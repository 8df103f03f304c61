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

DmaQueue::DmaQueue(bool overlap, size_t num_bank_pairs)
    : overlap_(overlap), num_bank_pairs_(num_bank_pairs) {
  SYSTOLIC_CHECK(num_bank_pairs_ > 0) << "a chip needs at least one bank pair";
}

size_t DmaQueue::BankOf(size_t tile) {
  if (tile_order_.empty() || tile != last_tile_) {
    last_tile_ = tile;
    last_bank_ =
        tile_order_.try_emplace(tile, tile_order_.size()).first->second %
        num_bank_pairs_;
  }
  return last_bank_;
}

void DmaQueue::Mvin(size_t tile, double bytes) {
  if (bytes <= 0) {
    return;
  }
  commands_.push_back(
      {DmaOp::kMvin, tile, BankOf(tile), TransferCycles(bytes), bytes});
}

void DmaQueue::Preload(size_t tile, double bytes) {
  if (bytes <= 0) {
    return;
  }
  commands_.push_back(
      {DmaOp::kPreload, tile, BankOf(tile), TransferCycles(bytes), bytes});
}

void DmaQueue::Compute(size_t tile, size_t cycles) {
  commands_.push_back({DmaOp::kCompute, tile, BankOf(tile), cycles, 0});
}

void DmaQueue::Mvout(size_t tile, double bytes) {
  if (bytes <= 0) {
    return;
  }
  commands_.push_back(
      {DmaOp::kMvout, tile, BankOf(tile), TransferCycles(bytes), bytes});
}

size_t DmaQueue::Schedule(std::vector<DmaEvent>* trace) const {
  size_t makespan = 0;
  if (!overlap_) {
    // Serial baseline: every command waits for the previous one.
    size_t clock = 0;
    for (const DmaCommand& command : commands_) {
      size_t start = clock;
      clock += command.cycles;
      if (trace != nullptr) {
        trace->push_back({command, start, clock});
      }
    }
    return clock;
  }
  // Double-buffered schedule: one load port (mvin/preload), one store port
  // (mvout), one compute unit, and num_bank_pairs_ bank pairs. A tile's
  // loads serialise on the load port in queue order; its compute waits for
  // its own loads and the compute unit; its mvout waits for its compute and
  // the store port — drains never block the next tile's loads, which is the
  // §9 "output pipelined back into another memory" path. The bank pair
  // frees only when the mvout ends, stalling the tile that reuses it.
  // Commands are queued per tile in order, so a single pass suffices.
  size_t load_free = 0;
  size_t store_free = 0;
  size_t compute_free = 0;
  std::vector<size_t> bank_free(num_bank_pairs_, 0);
  std::vector<size_t> load_end;   // per tile: when its operands are resident
  std::vector<size_t> tile_end;   // per tile: when its last command ends
  auto slot = [](std::vector<size_t>* v, size_t tile) -> size_t& {
    if (v->size() <= tile) {
      v->resize(tile + 1, 0);
    }
    return (*v)[tile];
  };
  for (const DmaCommand& command : commands_) {
    size_t start = 0;
    switch (command.op) {
      case DmaOp::kMvin:
      case DmaOp::kPreload:
        start = std::max(load_free, bank_free[command.bank]);
        load_free = start + command.cycles;
        slot(&load_end, command.tile) =
            std::max(slot(&load_end, command.tile), load_free);
        break;
      case DmaOp::kCompute:
        start = std::max(slot(&load_end, command.tile), compute_free);
        compute_free = start + command.cycles;
        break;
      case DmaOp::kMvout: {
        size_t ready = std::max(slot(&load_end, command.tile),
                                slot(&tile_end, command.tile));
        start = std::max(ready, store_free);
        store_free = start + command.cycles;
        bank_free[command.bank] = store_free;
        break;
      }
    }
    size_t end = start + command.cycles;
    slot(&tile_end, command.tile) = std::max(slot(&tile_end, command.tile), end);
    makespan = std::max(makespan, end);
    if (trace != nullptr) {
      trace->push_back({command, start, end});
    }
  }
  return makespan;
}

size_t DmaQueue::TransferCycleTotal() const {
  size_t total = 0;
  for (const DmaCommand& command : commands_) {
    if (command.op != DmaOp::kCompute) {
      total += command.cycles;
    }
  }
  return total;
}

size_t DmaQueue::SerialCycleTotal() const {
  size_t total = 0;
  for (const DmaCommand& command : commands_) {
    total += command.cycles;
  }
  return total;
}

}  // namespace spad
}  // namespace systolic
