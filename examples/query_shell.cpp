// Query shell: an interactive / scripted front end to the §9 database
// machine. Reads commands (see system/command.h for the grammar) from stdin,
// or runs a built-in demo script when stdin is a terminal or empty.
//
//   $ ./query_shell < my_script.txt
//   $ echo 'LOAD parts
//           SELECT parts WHERE weight > 10 -> heavy
//           PRINT heavy' | ./query_shell
//
// `--chips N` drives the machine's systolic devices with N parallel chips.
// `--no-planner` starts with the cost-based query planner off (SET PLANNER
// on|off toggles it from the script).
// `--durable DIR` opens DIR as a crash-safe catalog before the script runs
// (same as a leading `OPEN DIR` command): STOREs and committed sinks are
// WAL-logged and fsync'd, and a re-run against the same DIR recovers them.
// Type HELP in a script for the full verb list, including CHECKPOINT and
// SET DURABILITY on|off.
//
// Server mode (DESIGN S24):
//   $ ./query_shell --serve 0 --chips 4            # prints the bound port
//   $ ./query_shell --connect PORT < my_script.txt # one session per client
// `--serve PORT` starts the concurrent multi-session server on
// 127.0.0.1:PORT (0 = pick an ephemeral port) with the demo relations
// seeded into the shared catalog; combine with `--durable DIR` for
// crash-safe cross-session group commit. Each `--connect` client gets its
// own session: private SET PLANNER/BACKEND/FAULTS settings, snapshot reads,
// and STOREs that group-commit with other sessions. The client speaks
// protocol v2 (request ids + reconnect-and-resume retry, DESIGN S26). The
// command line `SHUTDOWN` stops the server hard; `DRAIN` stops it gracefully
// (finish in-flight commands, flush group commit, then close).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "relational/builder.h"
#include "server/reliable_client.h"
#include "server/server.h"
#include "system/command.h"

namespace {

using namespace systolic;

constexpr char kDemoScript[] = R"(# demo: suppliers & parts on the systolic machine
LOAD supplies
LOAD required
PRINT supplies
# which suppliers ship every required part? (division array, §7)
DIVIDE supplies required ON part = part -> complete
PRINT complete
# heavy parts (selection array)
LOAD parts
SELECT parts WHERE weight >= 20 -> heavy
PRINT heavy
# join supplier shipments with part data (join array, §6)
JOIN supplies parts ON part = part -> detail
PROJECT detail supplier,weight -> supplier_weights
PRINT supplier_weights
# what would the planner do with a filtered join? (no execution)
EXPLAIN JOIN supplies parts ON part = part -> wide
# multi-step transaction: the planner pushes the selection below the join
BEGIN
JOIN supplies parts ON part = part -> shipped
SELECT shipped WHERE weight >= 20 -> heavy_shipments
EXPLAIN
COMMIT
PRINT heavy_shipments
# same transaction executed literally, planner off
SET PLANNER off
RELEASE heavy_shipments
BEGIN
JOIN supplies parts ON part = part -> shipped2
SELECT shipped2 WHERE weight >= 20 -> heavy2
COMMIT
PRINT heavy2
SET PLANNER on
# rerun a join on the vectorized fast path (same result, analytic pulses)
SET BACKEND fast
JOIN supplies parts ON part = part -> detail_fast
PRINT detail_fast
SET BACKEND rtl
STORE complete AS complete_suppliers
)";

std::vector<std::pair<std::string, rel::Relation>> MakeDemoRelations() {
  std::vector<std::pair<std::string, rel::Relation>> relations;
  auto ds = rel::Domain::Make("supplier", rel::ValueType::kString);
  auto dp = rel::Domain::Make("part", rel::ValueType::kString);
  auto dw = rel::Domain::Make("weight", rel::ValueType::kInt64);

  rel::Schema supplies_schema({{"supplier", ds}, {"part", dp}});
  rel::RelationBuilder supplies(supplies_schema);
  const char* rows[][2] = {{"acme", "bolt"}, {"acme", "nut"},
                           {"brown", "bolt"}, {"cyan", "bolt"},
                           {"cyan", "nut"}};
  for (const auto& row : rows) {
    SYSTOLIC_CHECK(supplies
                       .AddRow({rel::Value::String(row[0]),
                                rel::Value::String(row[1])})
                       .ok());
  }
  relations.emplace_back("supplies", supplies.Finish());

  rel::Schema required_schema({{"part", dp}});
  rel::RelationBuilder required(required_schema);
  for (const char* part : {"bolt", "nut"}) {
    SYSTOLIC_CHECK(required.AddRow({rel::Value::String(part)}).ok());
  }
  relations.emplace_back("required", required.Finish());

  rel::Schema parts_schema({{"part", dp}, {"weight", dw}});
  rel::RelationBuilder parts(parts_schema);
  SYSTOLIC_CHECK(
      parts.AddRow({rel::Value::String("bolt"), rel::Value::Int64(12)}).ok());
  SYSTOLIC_CHECK(
      parts.AddRow({rel::Value::String("nut"), rel::Value::Int64(25)}).ok());
  relations.emplace_back("parts", parts.Finish());
  return relations;
}

machine::Machine MakeDemoMachine(size_t num_chips) {
  machine::MachineConfig config;
  config.num_memories = 16;
  config.device.num_chips = num_chips;
  machine::Machine m(config);
  for (auto& [name, relation] : MakeDemoRelations()) {
    m.disk().Put(name, relation);
  }
  return m;
}

int RunServer(uint16_t port, size_t num_chips, const char* durable_dir) {
  server::ServerConfig config;
  config.machine.num_memories = 16;
  config.num_chips = num_chips;
  if (durable_dir != nullptr) config.durable_dir = durable_dir;
  Result<std::unique_ptr<server::Server>> created =
      server::Server::Create(std::move(config));
  if (!created.ok()) {
    std::printf("FAILED to start server: %s\n",
                created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<server::Server> srv = std::move(created).ValueOrDie();
  // Seed demo data so fresh clients have something to query; a durable
  // directory may already carry recovered relations under these names.
  const auto snapshot = srv->catalog().Snapshot();
  for (auto& [name, relation] : MakeDemoRelations()) {
    if (snapshot->relations.count(name) != 0) continue;
    const Status seeded = srv->catalog().Seed(name, std::move(relation));
    if (!seeded.ok()) {
      std::printf("FAILED to seed '%s': %s\n", name.c_str(),
                  seeded.ToString().c_str());
      return 1;
    }
  }
  const Status listening = srv->Listen(port);
  if (!listening.ok()) {
    std::printf("FAILED to listen: %s\n", listening.ToString().c_str());
    return 1;
  }
  std::printf("serving on 127.0.0.1:%u (chips=%zu%s)\n",
              static_cast<unsigned>(srv->port()), num_chips,
              durable_dir != nullptr ? ", durable" : "");
  std::fflush(stdout);
  const Status served = srv->Serve();
  if (!served.ok()) {
    std::printf("FAILED: %s\n", served.ToString().c_str());
    return 1;
  }
  const server::ServerStats stats = srv->stats();
  std::printf("served %zu session(s); group commit: %zu commit(s) in %zu "
              "batch(es), %zu conflict(s)\n",
              stats.sessions_admitted, stats.group_commit.commits,
              stats.group_commit.batches, stats.group_commit.conflicts);
  return 0;
}

// The client: protocol v2 through ReliableClient — request ids,
// reconnect-and-resume with capped backoff, exactly-once command effects.
int RunClient(uint16_t port) {
  server::ReliableClientOptions options;
  options.port = port;
  Result<server::ReliableClient> connected =
      server::ReliableClient::Connect(std::move(options));
  if (!connected.ok()) {
    std::printf("FAILED to connect: %s\n",
                connected.status().ToString().c_str());
    return 1;
  }
  server::ReliableClient client = std::move(connected).ValueOrDie();
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == "SHUTDOWN") {
      (void)client.Shutdown();
      std::printf("-- server stopping\n");
      return 0;
    }
    if (line == "DRAIN") {
      (void)client.Drain();
      std::printf("-- server draining\n");
      return 0;
    }
    Result<server::Client::Reply> reply = client.Execute(line);
    if (!reply.ok()) {
      std::printf("connection lost: %s\n", reply.status().ToString().c_str());
      return 1;
    }
    if (!reply->ok) std::printf("ERR %s\n", reply->error.c_str());
    std::fputs(reply->output.c_str(), stdout);
  }
  client.Close();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_chips = 1;
  bool demo = false;
  bool planner = true;
  const char* durable_dir = nullptr;
  int serve_port = -1;
  int connect_port = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chips") == 0 && i + 1 < argc) {
      num_chips = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--no-planner") == 0) {
      planner = false;
    } else if (std::strcmp(argv[i], "--durable") == 0 && i + 1 < argc) {
      durable_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect_port = std::atoi(argv[++i]);
    }
  }
  if (serve_port >= 0) {
    return RunServer(static_cast<uint16_t>(serve_port), num_chips,
                     durable_dir);
  }
  if (connect_port > 0) return RunClient(static_cast<uint16_t>(connect_port));
  machine::Machine m = MakeDemoMachine(num_chips);
  machine::CommandInterpreter interpreter(&m, &std::cout);
  interpreter.set_planner_enabled(planner);
  if (durable_dir != nullptr) {
    const Status opened = interpreter.Execute(std::string("OPEN ") +
                                              durable_dir);
    if (!opened.ok()) {
      std::printf("FAILED to open durable directory: %s\n",
                  opened.ToString().c_str());
      return 1;
    }
  }

  Status status;
  if (demo) {
    std::istringstream demo_in(kDemoScript);
    status = interpreter.ExecuteScript(demo_in);
  } else {
    // Read from stdin; if it yields nothing, fall back to the demo.
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    if (buffer.str().empty()) {
      std::printf("(no input on stdin; running the built-in demo)\n");
      std::istringstream demo_in(kDemoScript);
      status = interpreter.ExecuteScript(demo_in);
    } else {
      status = interpreter.ExecuteScript(buffer);
    }
  }
  if (!status.ok()) {
    std::printf("FAILED: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
