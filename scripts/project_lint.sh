#!/usr/bin/env bash
# Project lint (DESIGN S22): repo-specific invariants no compiler flag
# checks. Run from the repo root; exits non-zero listing every violation.
#
#   1. Raw durability syscalls (fsync / rename / unlink-for-swap) appear
#      ONLY in src/durability/io.cc — everything else must go through the
#      Io wrapper so the crash injector can cut the write path.
#   2. Wall-clock and libc randomness (rand / srand / time(...) /
#      std::random_device) appear ONLY in src/util/rng.* — everything else
#      takes seeds explicitly, keeping tests and fuzzers deterministic.
#   3. No stray debugging printf/cout in src/ libraries (the system layer
#      writes through its injected ostream; examples and tests are exempt,
#      as is util/logging.h — the SYSTOLIC_CHECK death path IS the stderr
#      writer of last resort).
#   4. Memory-module read accounting goes through the scratchpad layer
#      (DESIGN S25): AccountRead is called ONLY inside src/system/scratchpad
#      — engine and machine code feed the crossbar via spad::CrossbarFeed /
#      ScratchpadBank so every modeled byte is costed by the DMA model.
#   5. Raw mutex primitives (std::mutex / std::condition_variable /
#      .lock() / .unlock() / lock_guard / unique_lock) appear ONLY in
#      src/util/ — everything else uses util::Mutex / util::MutexLock /
#      util::CondVar (DESIGN §2.10), so clang thread-safety analysis and the
#      debug lock-order checker see every acquisition.
#   6. One tile-dispatch path (DESIGN §2.6): the deleted
#      fastpath::BackendPolicy enum (a device names a fastpath::Backend;
#      ParseBackendPolicy keeps its name and parses one), OverlapPolicy's
#      deleted `auto` value and the deleted per-tile fast drivers
#      fastpath::Fast{Division,Select} stay deleted in src/, tests/,
#      examples/ and bench/, and the backend entry points — per RTL tile,
#      RunMembership and arrays::Systolic{Join,Division,Select}; over whole
#      operands, fastpath::MembershipBits, JoinMatches, MatchDivision,
#      DivisionQuotient and SelectionBits — are called in src/ only from the
#      engine's tile dispatcher in src/core/engine.cc, apart from
#      src/arrays/ and src/fastpath/, which define them (the array-level
#      intersection and dedup arrays compose RunMembership).
#   7. No always-on DMA trace (DESIGN §2.8): ExecStats::dma_trace stays
#      deleted in src/, tests/, examples/ and bench/; a schedule is traced
#      by handing a spad::DmaQueue a trace vector directly.
#   8. kAuto decides from the exact schedule (DESIGN §2.1): the one-schedule
#      §8 estimates perf::FixedBMembershipPulses / MarchingMembershipPulses
#      are called in src/ only from src/perfmodel (which defines them),
#      src/planner (step costs, feed hints) and src/verify (hint audit).
#   9. Protocol v2 is the only wire contract (DESIGN §2.9): the deleted v1
#      session loop Server::HandleV1, the v1 client's Client::Connect and
#      Roundtrip(, Session::last_output(), query_shell's RunClientV1 and its
#      --v1 flag stay deleted in src/, tests/, examples/, scripts/ and
#      bench/ (this file, which names them, excepted).
#  10. CSV stays off the durable path (DESIGN §2.4): csv.h, ReadCsv and
#      WriteCsv appear nowhere in src/durability/ or src/relational/storage.*
#      — checkpoint data files and WAL put/append bodies are the binary
#      tuple blocks of src/relational/tuple_codec.h, and CSV stays the
#      library's import/export format.

set -u
cd "$(dirname "$0")/.."

fail=0

report() {
  echo "project-lint: $1"
  echo "$2" | sed 's/^/  /'
  fail=1
}

# --- rule 1: raw durability syscalls stay inside the Io wrapper ------------
hits=$(grep -rnE '::fsync\(|::rename\(|::fdatasync\(|std::rename\(' src \
  --include='*.cc' --include='*.h' | grep -v '^src/durability/io\.cc:' || true)
if [ -n "$hits" ]; then
  report "raw fsync/rename outside src/durability/io.cc (use durability::Io)" "$hits"
fi

# --- rule 2: nondeterminism stays inside util/rng --------------------------
hits=$(grep -rnE '\brand\(\)|\bsrand\(|std::time\(|\btime\(NULL\)|\btime\(nullptr\)|std::random_device' src \
  --include='*.cc' --include='*.h' | grep -v '^src/util/rng\.' || true)
if [ -n "$hits" ]; then
  report "libc randomness / wall clock outside src/util/rng (pass seeds explicitly)" "$hits"
fi

# --- rule 3: no stray stdout debugging in the libraries --------------------
hits=$(grep -rnE 'std::cout|std::cerr|\bprintf\(' src \
  --include='*.cc' --include='*.h' | grep -v '^src/util/logging\.h:' || true)
if [ -n "$hits" ]; then
  report "direct stdout/stderr in src/ (write through the injected ostream)" "$hits"
fi

# --- rule 4: memory reads are costed by the scratchpad/DMA layer -----------
hits=$(grep -rnE '\.AccountRead\(|->AccountRead\(' src \
  --include='*.cc' --include='*.h' | grep -v '^src/system/scratchpad/' || true)
if [ -n "$hits" ]; then
  report "direct MemoryModule::AccountRead outside src/system/scratchpad (feed through spad::CrossbarFeed)" "$hits"
fi

# --- rule 5: lock discipline goes through the annotated wrapper ------------
hits=$(grep -rnE 'std::mutex|std::condition_variable|std::lock_guard|std::unique_lock|std::scoped_lock|\.lock\(\)|\.unlock\(\)' src \
  --include='*.cc' --include='*.h' | grep -v '^src/util/' || true)
if [ -n "$hits" ]; then
  report "raw mutex primitives outside src/util/ (use util::Mutex / util::MutexLock / util::CondVar from util/mutex.h)" "$hits"
fi

# --- rule 6: one tile-dispatch path, no `auto` backend/overlap policy -------
hits=$(grep -rnE '\bBackendPolicy(ToString)?\b|OverlapPolicy::kAuto' src tests examples bench \
  --include='*.cc' --include='*.cpp' --include='*.h' || true)
if [ -n "$hits" ]; then
  report "deleted BackendPolicy enum or OverlapPolicy kAuto value (use fastpath::Backend / kOn)" "$hits"
fi
hits=$(grep -rnE '\bFast(Division|Select)\b' src tests examples bench \
  --include='*.cc' --include='*.cpp' --include='*.h' || true)
if [ -n "$hits" ]; then
  report "deleted per-tile fast driver (the fast backend runs division and selection over whole operands)" "$hits"
fi
hits=$(grep -rnE '\b(RunMembership|Systolic(Join|Division|Select)|MembershipBits|JoinMatches|MatchDivision|DivisionQuotient|SelectionBits)\(' src \
  --include='*.cc' --include='*.h' \
  | grep -vE '^src/(core/engine\.cc|arrays/|fastpath/)' \
  | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$hits" ]; then
  report "backend entry point called outside the engine's tile dispatcher (dispatch through db::Engine)" "$hits"
fi

# --- rule 7: no always-on DMA trace -----------------------------------------
hits=$(grep -rn 'dma_trace' src tests examples bench \
  --include='*.cc' --include='*.cpp' --include='*.h' || true)
if [ -n "$hits" ]; then
  report "deleted ExecStats::dma_trace (trace a spad::DmaQueue's Schedule directly)" "$hits"
fi

# --- rule 8: the engine's feed discipline comes from its exact evaluator ---
hits=$(grep -rnE '\b(FixedB|Marching)MembershipPulses\(' src \
  --include='*.cc' --include='*.h' \
  | grep -vE '^src/(perfmodel|planner|verify)/' \
  | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$hits" ]; then
  report "§8 pulse estimate called outside src/perfmodel, src/planner and src/verify (kAuto decides from the exact schedule)" "$hits"
fi

# --- rule 9: protocol v2 is the only wire contract -------------------------
hits=$(grep -rnIE '\b(HandleV1|RunClientV1|Client::Connect)\b|--v1\b|\bRoundtrip\(|\blast_output\(\)' \
  src tests examples scripts bench | grep -v '^scripts/project_lint\.sh:' || true)
if [ -n "$hits" ]; then
  report "deleted protocol-v1 path (speak v2 through ReliableClient)" "$hits"
fi

# --- rule 10: CSV stays off the durable path -------------------------------
hits=$(grep -rnE 'csv\.h|\b(ReadCsv|WriteCsv)\b' src/durability \
  src/relational/storage.* || true)
if [ -n "$hits" ]; then
  report "CSV on the durable path (checkpoints and WAL bodies use rel::EncodeTuples / DecodeTuples)" "$hits"
fi

if [ "$fail" -eq 0 ]; then
  echo "project-lint: clean"
fi
exit "$fail"
