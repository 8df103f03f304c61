#include "system/scratchpad/scratchpad.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace systolic {
namespace spad {

const char* OverlapPolicyToString(OverlapPolicy policy) {
  return policy == OverlapPolicy::kOff ? "off" : "on";
}

bool ParseOverlapPolicy(const std::string& token, OverlapPolicy* policy) {
  if (token == "off") {
    *policy = OverlapPolicy::kOff;
  } else if (token == "on") {
    *policy = OverlapPolicy::kOn;
  } else {
    return false;
  }
  return true;
}

size_t TransferCycles(double bytes) {
  SYSTOLIC_CHECK(bytes >= 0) << "negative transfer size " << bytes;
  return static_cast<size_t>(std::ceil(bytes / kBytesPerPulse));
}

double TupleBytes(size_t num_tuples, size_t arity) {
  return 8.0 * static_cast<double>(num_tuples) * static_cast<double>(arity);
}

double BitDrainBytes(size_t num_bits) {
  return static_cast<double>((num_bits + 7) / 8);
}

double CrossbarFeed(machine::MemoryModule& module) {
  if (!module.occupied()) {
    return 0;
  }
  module.AccountRead();
  return machine::RelationBytes(**module.Contents());
}

const rel::Relation& ScratchpadBank::Stage(const rel::Relation& source,
                                           size_t start, size_t count) {
  const size_t end = std::min(start + count, source.num_tuples());
  const rel::Relation* block = &source;
  if (start != 0 || end != source.num_tuples()) {
    copy_.emplace(source.schema(), rel::RelationKind::kMulti);
    for (size_t i = start; i < end; ++i) {
      SYSTOLIC_CHECK(copy_->Append(source.tuple(i)).ok());
    }
    block = &*copy_;
  }
  staged_bytes_ = machine::RelationBytes(*block);
  drained_bytes_ = 0;
  bytes_in_ += staged_bytes_;
  return *block;
}

void ScratchpadBank::Drain(double bytes) {
  SYSTOLIC_CHECK(drained_bytes_ + bytes <= staged_bytes_)
      << "scratchpad bank overdrain: " << drained_bytes_ << " + " << bytes
      << " exceeds staged " << staged_bytes_;
  drained_bytes_ += bytes;
  bytes_out_ += bytes;
}

const char* DmaOpToString(DmaOp op) {
  switch (op) {
    case DmaOp::kMvin:
      return "mvin";
    case DmaOp::kPreload:
      return "preload";
    case DmaOp::kCompute:
      return "compute";
    case DmaOp::kMvout:
      return "mvout";
  }
  return "mvin";
}

bool operator==(const DmaCommand& a, const DmaCommand& b) {
  return a.op == b.op && a.tile == b.tile && a.bank == b.bank &&
         a.cycles == b.cycles && a.bytes == b.bytes;
}

bool operator==(const DmaEvent& a, const DmaEvent& b) {
  return a.command == b.command && a.start == b.start && a.end == b.end;
}

std::string ToString(const DmaEvent& event) {
  std::ostringstream out;
  out << DmaOpToString(event.command.op) << " tile=" << event.command.tile
      << " bank=" << event.command.bank << " [" << event.start << ","
      << event.end << ")";
  return out.str();
}

DmaQueue::DmaQueue(bool overlap, size_t num_bank_pairs,
                   std::vector<DmaEvent>* trace)
    : overlap_(overlap),
      num_bank_pairs_(num_bank_pairs),
      trace_(trace),
      bank_free_(num_bank_pairs, 0) {
  SYSTOLIC_CHECK(num_bank_pairs_ > 0) << "a chip needs at least one bank pair";
}

void DmaQueue::Mvin(size_t tile, double bytes) {
  if (bytes > 0) Enqueue(DmaOp::kMvin, tile, TransferCycles(bytes), bytes);
}

void DmaQueue::Preload(size_t tile, double bytes) {
  if (bytes > 0) Enqueue(DmaOp::kPreload, tile, TransferCycles(bytes), bytes);
}

void DmaQueue::Compute(size_t tile, size_t cycles) {
  Enqueue(DmaOp::kCompute, tile, cycles, 0);
}

void DmaQueue::Mvout(size_t tile, double bytes) {
  if (bytes > 0) Enqueue(DmaOp::kMvout, tile, TransferCycles(bytes), bytes);
}

void DmaQueue::Enqueue(DmaOp op, size_t tile, size_t cycles, double bytes) {
  if (tiles_ == 0 || tile != tile_) {
    SYSTOLIC_CHECK(tiles_ == 0 || tile > tile_)
        << "DMA command for tile " << tile << " after tile " << tile_
        << ": each tile's commands queue together, in tile order";
    bank_ = tiles_++ % num_bank_pairs_;
    tile_ = tile;
    load_end_ = 0;
    tile_end_ = 0;
  }
  serial_total_ += cycles;
  if (op != DmaOp::kCompute) transfer_total_ += cycles;

  size_t start = 0;
  if (!overlap_) {
    // Serial baseline: every command waits for the previous one.
    start = makespan_;
  } else {
    // Double-buffered schedule: a tile's loads serialise on the load port;
    // its compute waits for its own loads and the compute unit; its mvout
    // waits for its compute and the store port — drains never block the
    // next tile's loads, which is the §9 "output pipelined back into
    // another memory" path. The bank pair frees only when the mvout ends,
    // stalling the tile that reuses it.
    switch (op) {
      case DmaOp::kMvin:
      case DmaOp::kPreload:
        start = std::max(load_free_, bank_free_[bank_]);
        load_free_ = start + cycles;
        load_end_ = std::max(load_end_, load_free_);
        break;
      case DmaOp::kCompute:
        start = std::max(load_end_, compute_free_);
        compute_free_ = start + cycles;
        break;
      case DmaOp::kMvout:
        start = std::max({load_end_, tile_end_, store_free_});
        store_free_ = start + cycles;
        bank_free_[bank_] = store_free_;
        break;
    }
  }
  const size_t end = start + cycles;
  tile_end_ = std::max(tile_end_, end);
  makespan_ = std::max(makespan_, end);
  if (trace_ != nullptr) {
    trace_->push_back({{op, tile, bank_, cycles, bytes}, start, end});
  }
}

}  // namespace spad
}  // namespace systolic
