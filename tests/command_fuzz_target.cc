// Fuzz target over the command interpreter, the decoder that takes a
// client's command lines. It is a plain libFuzzer entry point:
// `-fsanitize=fuzzer` can drive it, and in builds without libFuzzer the
// seeded corpus-mutation test in command_fuzz_test.cc does.
//
// Input: byte 0 picks the device — rows 0, 1, 2, 4, 5 or 63 (both row
// parities, unbounded, and the perfbench tile), 1-4 chips, the rtl or fast
// backend, planner on or off — and the remaining bytes are a script, run
// line by line through CommandInterpreter::Execute against a disk holding
// the demo catalog (supplies, required, parts) and the A/B pair of the
// even-rows probe. Property: no input aborts; every line returns a Status,
// OK or an error. OPEN lines are skipped: OPEN creates a durable directory
// at the path the input names.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/chip_pool.h"
#include "relational/builder.h"
#include "system/command.h"
#include "system/machine.h"
#include "util/logging.h"

namespace {

using namespace systolic;

/// Lines beyond this are ignored, so one input's work stays bounded.
constexpr size_t kMaxLines = 64;

rel::Relation Strings(const rel::Schema& schema,
                      const std::vector<std::vector<rel::Value>>& rows) {
  rel::RelationBuilder builder(schema);
  for (const auto& row : rows) SYSTOLIC_CHECK(builder.AddRow(row).ok());
  return builder.Finish();
}

/// The relations LOAD can name: examples/scripts' demo catalog and the
/// one-tuple A and B of the even-rows planner probe.
void SeedDisk(machine::Machine* m) {
  const auto supplier = rel::Domain::Make("supplier", rel::ValueType::kString);
  const auto part = rel::Domain::Make("part", rel::ValueType::kString);
  const auto weight = rel::Domain::Make("weight", rel::ValueType::kInt64);
  const auto s = [](const char* text) { return rel::Value::String(text); };
  m->disk().Put("supplies",
                Strings(rel::Schema({{"supplier", supplier}, {"part", part}}),
                        {{s("acme"), s("bolt")},
                         {s("acme"), s("nut")},
                         {s("brown"), s("bolt")},
                         {s("cyan"), s("bolt")},
                         {s("cyan"), s("nut")}}));
  m->disk().Put("required", Strings(rel::Schema({{"part", part}}),
                                    {{s("bolt")}, {s("nut")}}));
  m->disk().Put("parts",
                Strings(rel::Schema({{"part", part}, {"weight", weight}}),
                        {{s("bolt"), rel::Value::Int64(12)},
                         {s("nut"), rel::Value::Int64(25)}}));
  const rel::Schema ints = rel::MakeIntSchema(1);
  m->disk().Put("A", Strings(ints, {{rel::Value::Int64(5)}}));
  m->disk().Put("B", Strings(ints, {{rel::Value::Int64(5)}}));
}

/// One pool per chip count, shared by every input's machine, so an input
/// spawns no threads of its own. libFuzzer and the mutation test call the
/// target from one thread.
std::shared_ptr<db::ChipPool> PoolFor(size_t chips) {
  static std::array<std::shared_ptr<db::ChipPool>, 5> pools;
  if (pools[chips] == nullptr) {
    pools[chips] = std::make_shared<db::ChipPool>(chips);
  }
  return pools[chips];
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  static constexpr size_t kRows[] = {0, 1, 2, 4, 5, 63};
  const uint8_t pick = data[0];
  machine::MachineConfig config;
  config.num_memories = 16;
  config.device.rows = kRows[pick % 6];
  config.device.num_chips = 1 + pick / 6 % 4;
  config.device.backend = pick / 24 % 2 == 0 ? fastpath::Backend::kRtl
                                              : fastpath::Backend::kFast;
  if (config.device.num_chips > 1) {
    config.shared_pool = PoolFor(config.device.num_chips);
  }
  machine::Machine machine(config);
  SeedDisk(&machine);
  std::ostringstream out;
  machine::CommandInterpreter shell(&machine, &out);
  shell.set_planner_enabled(pick / 48 % 2 == 0);

  std::istringstream script(
      std::string(reinterpret_cast<const char*>(data) + 1, size - 1));
  std::string line;
  for (size_t n = 0; n < kMaxLines && std::getline(script, line); ++n) {
    std::istringstream tokens(line);
    std::string verb;
    tokens >> verb;
    if (verb == "OPEN") continue;
    const Status status = shell.Execute(line);
    static_cast<void>(status);
  }
  return 0;
}
