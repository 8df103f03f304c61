// Golden-value tests for the fast-path SWAR kernels and the analytic timing
// contract (DESIGN S23). Each kernel is pinned against the per-pulse RTL
// cell semantics — the simulated arrays themselves — at the word-size
// boundaries where packed bit arithmetic goes wrong first (1, 63, 64, 65
// pair bits) and at the widest domain codes the cells compare. The timing
// sweeps assert the closed forms in fastpath/analytic_timing equal the
// simulator's quiescence cycle on every covered shape; a dataflow change
// that shifts the RTL by one pulse fails here, not in the field.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "arrays/division_array.h"
#include "faults/fault_plan.h"
#include "arrays/join_array.h"
#include "arrays/membership.h"
#include "arrays/selection_array.h"
#include "core/engine.h"
#include "fastpath/analytic_timing.h"
#include "fastpath/backend.h"
#include "fastpath/kernels.h"
#include "gtest/gtest.h"
#include "relational/builder.h"
#include "test_util.h"
#include "util/rng.h"

namespace systolic {
namespace fastpath {
namespace {

using arrays::ArrayRunInfo;
using arrays::EdgeRule;
using arrays::FeedMode;
using rel::Relation;
using rel::Schema;

/// Deterministic relation: n tuples of the given arity with codes drawn
/// from [0, domain) — `salt` decorrelates the A and B sides.
Relation MakeRel(const Schema& schema, size_t n, size_t arity, int64_t domain,
                 uint64_t salt) {
  Relation r(schema, rel::RelationKind::kMulti);
  Rng rng(salt * 2654435761u + 17);
  for (size_t i = 0; i < n; ++i) {
    rel::Tuple t;
    for (size_t c = 0; c < arity; ++c) {
      t.push_back(static_cast<rel::Code>(rng.Uniform(0, domain)));
    }
    SYSTOLIC_CHECK(r.Append(t).ok());
  }
  return r;
}

/// The word-size boundary cases: a single pair bit, one word minus a bit,
/// exactly one word, and one word plus one bit.
const size_t kBoundarySizes[] = {1, 63, 64, 65};

TEST(FastpathKernels, MembershipMatchesRtlAtWordBoundaries) {
  const Schema schema = rel::MakeIntSchema(2);
  for (const size_t n_b : kBoundarySizes) {
    for (const size_t n_a : {size_t{1}, size_t{7}}) {
      const Relation a = MakeRel(schema, n_a, 2, 5, n_b);
      const Relation b = MakeRel(schema, n_b, 2, 5, n_b + 1);
      const std::vector<size_t> cols{0, 1};
      for (const EdgeRule rule :
           {EdgeRule::kAllTrue, EdgeRule::kStrictLowerTriangle}) {
        for (const FeedMode mode : {FeedMode::kMarching, FeedMode::kFixedB}) {
          arrays::MembershipOptions options;
          options.mode = mode;
          // Dedup tiles compare a block against itself; mirror that for the
          // lower-triangle rule so the RTL reference is the real use.
          const Relation& lhs = rule == EdgeRule::kAllTrue ? a : b;
          auto rtl = RunMembership(lhs, b, cols, cols, rule, options, nullptr);
          ASSERT_OK(rtl);
          const BitVector fast = MembershipBits(lhs, b, cols, cols, rule);
          EXPECT_EQ(*rtl, fast)
              << "n_a=" << n_a << " n_b=" << n_b << " rule "
              << static_cast<int>(rule) << " mode " << static_cast<int>(mode);
        }
      }
    }
  }
}

TEST(FastpathKernels, MembershipMatchesRtlAtMaxDomainWidth) {
  // Full-width codes: every bit of the compared word participates, so a
  // masking or sign bug in the packed comparators shows up here.
  const Schema schema = rel::MakeIntSchema(1);
  const int64_t kHuge = INT64_MAX - 1;
  Relation a(schema, rel::RelationKind::kMulti);
  Relation b(schema, rel::RelationKind::kMulti);
  for (const int64_t v : {int64_t{0}, kHuge, kHuge - 1, int64_t{1}}) {
    SYSTOLIC_CHECK(a.Append({v}).ok());
  }
  for (const int64_t v : {kHuge, int64_t{2}, kHuge - 1}) {
    SYSTOLIC_CHECK(b.Append({v}).ok());
  }
  const std::vector<size_t> cols{0};
  auto rtl = RunMembership(a, b, cols, cols, EdgeRule::kAllTrue,
                           arrays::MembershipOptions{}, nullptr);
  ASSERT_OK(rtl);
  EXPECT_EQ(*rtl, MembershipBits(a, b, cols, cols, EdgeRule::kAllTrue));
}

TEST(FastpathKernels, JoinMatchesRtlAtWordBoundaries) {
  const Schema schema = rel::MakeIntSchema(2);
  for (const size_t n_b : kBoundarySizes) {
    const Relation a = MakeRel(schema, 6, 2, 4, 3);
    const Relation b = MakeRel(schema, n_b, 2, 4, 4);
    for (const rel::ComparisonOp op :
         {rel::ComparisonOp::kEq, rel::ComparisonOp::kLt,
          rel::ComparisonOp::kGe, rel::ComparisonOp::kNe}) {
      rel::JoinSpec spec{{0}, {0}, op};
      auto rtl = arrays::SystolicJoin(a, b, spec);
      ASSERT_OK(rtl);
      EXPECT_EQ(rtl->matches, JoinMatches(a, b, {0}, {0}, op))
          << "n_b=" << n_b << " op " << rel::ComparisonOpToString(op);
    }
  }
}

TEST(FastpathKernels, SelectionMatchesRtlAtWordBoundaries) {
  // Selection packs the TUPLE index, so the boundary is on |A|.
  const Schema schema = rel::MakeIntSchema(2);
  for (const size_t n_a : kBoundarySizes) {
    const Relation a = MakeRel(schema, n_a, 2, 6, 9);
    const std::vector<arrays::SelectionPredicate> predicates{
        {0, rel::ComparisonOp::kGe, 2}, {1, rel::ComparisonOp::kLt, 5}};
    auto rtl = arrays::SystolicSelect(a, predicates);
    ASSERT_OK(rtl);
    EXPECT_EQ(rtl->selected, SelectionBits(a, predicates)) << "n_a=" << n_a;
  }
}

TEST(FastpathKernels, MatchMaskWordsZeroesTailBits) {
  // Bits past n_b must stay clear or a later popcount / harvest overcounts.
  const Schema schema = rel::MakeIntSchema(1);
  Relation b(schema, rel::RelationKind::kMulti);
  for (size_t j = 0; j < 65; ++j) {
    SYSTOLIC_CHECK(b.Append({0}).ok());  // every pair matches
  }
  const rel::Tuple a_i{0};
  const std::vector<std::vector<rel::Code>> packed{PackColumn(b, 0)};
  const auto words =
      MatchMaskWords(a_i, {0}, packed, {rel::ComparisonOp::kEq}, 65);
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[0], ~uint64_t{0});
  EXPECT_EQ(words[1], uint64_t{1});  // only bit 64 of 65 survives
}

// ---------------------------------------------------------------------------
// Analytic timing: the closed forms must equal the simulated quiescence
// cycle on every shape, not approximately track it.
// ---------------------------------------------------------------------------

TEST(AnalyticTiming, MembershipCyclesEqualSimulated) {
  const Schema schema = rel::MakeIntSchema(2);
  for (const FeedMode mode : {FeedMode::kMarching, FeedMode::kFixedB}) {
    for (const size_t n_a : {size_t{1}, size_t{2}, size_t{5}, size_t{9}}) {
      for (const size_t n_b : {size_t{1}, size_t{3}, size_t{8}, size_t{12}}) {
        for (const size_t m : {size_t{1}, size_t{2}}) {
          const Schema s = rel::MakeIntSchema(m);
          const Relation a = MakeRel(s, n_a, m, 4, 1);
          const Relation b = MakeRel(s, n_b, m, 4, 2);
          std::vector<size_t> cols;
          for (size_t c = 0; c < m; ++c) cols.push_back(c);
          const size_t need = mode == FeedMode::kMarching
                                  ? 2 * std::max(n_a, n_b) - 1
                                  : std::max<size_t>(1, n_b);
          for (const size_t rows :
               {size_t{0}, need + (mode == FeedMode::kMarching ? 2 : 1)}) {
            arrays::MembershipOptions options;
            options.mode = mode;
            options.rows = rows;
            ArrayRunInfo info;
            auto rtl =
                RunMembership(a, b, cols, cols, EdgeRule::kAllTrue, options,
                              &info);
            ASSERT_OK(rtl);
            EXPECT_EQ(info.cycles, MembershipCycles(mode, n_a, n_b, m, rows))
                << "mode " << static_cast<int>(mode) << " n_a=" << n_a
                << " n_b=" << n_b << " m=" << m << " rows=" << rows;
          }
        }
      }
    }
  }
}

TEST(AnalyticTiming, DedupStripCyclesEqualSimulated) {
  // §8's fixed-B dedup strip: the head of R tuples of A's suffix preloaded,
  // the whole suffix of a > R tuples streamed past it under §5's strict
  // lower triangle.
  for (const size_t rows : {size_t{1}, size_t{3}, size_t{5}, size_t{63}}) {
    for (const size_t a_count : {rows + 1, 2 * rows + 5}) {
      for (const size_t m : {size_t{1}, size_t{2}, size_t{3}}) {
        const Schema s = rel::MakeIntSchema(m);
        const Relation a = MakeRel(s, a_count, m, 3, 8);
        Relation head(s, rel::RelationKind::kMulti);
        for (size_t j = 0; j < rows; ++j) {
          ASSERT_STATUS_OK(head.Append(a.tuple(j)));
        }
        std::vector<size_t> cols;
        for (size_t c = 0; c < m; ++c) cols.push_back(c);
        arrays::MembershipOptions options;
        options.mode = FeedMode::kFixedB;
        options.rows = rows;
        ArrayRunInfo info;
        auto rtl = RunMembership(a, head, cols, cols,
                                 EdgeRule::kStrictLowerTriangle, options,
                                 &info);
        ASSERT_OK(rtl);
        EXPECT_EQ(info.cycles,
                  MembershipCycles(FeedMode::kFixedB, a_count, rows, m, rows))
            << "rows=" << rows << " a=" << a_count << " m=" << m;
        EXPECT_EQ(*rtl, MembershipBits(a, head, cols, cols,
                                       EdgeRule::kStrictLowerTriangle))
            << "rows=" << rows << " a=" << a_count << " m=" << m;
      }
    }
  }
}

TEST(AnalyticTiming, JoinCyclesEqualSimulated) {
  for (const FeedMode mode : {FeedMode::kMarching, FeedMode::kFixedB}) {
    for (const size_t n_a : {size_t{1}, size_t{3}, size_t{7}}) {
      for (const size_t n_b : {size_t{1}, size_t{4}, size_t{9}}) {
        for (const size_t m : {size_t{1}, size_t{2}}) {
          const Schema s = rel::MakeIntSchema(m + 1);
          const Relation a = MakeRel(s, n_a, m + 1, 4, 5);
          const Relation b = MakeRel(s, n_b, m + 1, 4, 6);
          rel::JoinSpec spec;
          for (size_t c = 0; c < m; ++c) {
            spec.left_columns.push_back(c);
            spec.right_columns.push_back(c);
          }
          spec.op = rel::ComparisonOp::kEq;
          arrays::JoinArrayOptions options;
          options.mode = mode;
          auto rtl = arrays::SystolicJoin(a, b, spec, options);
          ASSERT_OK(rtl);
          EXPECT_EQ(rtl->info.cycles, JoinCycles(mode, n_a, n_b, m, 0))
              << "mode " << static_cast<int>(mode) << " n_a=" << n_a
              << " n_b=" << n_b << " m=" << m;
        }
      }
    }
  }
}

TEST(AnalyticTiming, SelectionCyclesEqualSimulated) {
  const Schema schema = rel::MakeIntSchema(2);
  for (const size_t n : {size_t{1}, size_t{4}, size_t{11}}) {
    for (const size_t preds : {size_t{1}, size_t{2}}) {
      const Relation a = MakeRel(schema, n, 2, 5, 7);
      std::vector<arrays::SelectionPredicate> predicates;
      for (size_t p = 0; p < preds; ++p) {
        predicates.push_back({p % 2, rel::ComparisonOp::kGe,
                              static_cast<rel::Code>(p)});
      }
      auto rtl = arrays::SystolicSelect(a, predicates);
      ASSERT_OK(rtl);
      EXPECT_EQ(rtl->info.cycles, SelectionCycles(n, preds))
          << "n=" << n << " preds=" << preds;
    }
  }
}

TEST(AnalyticTiming, DivisionCyclesEqualSimulated) {
  // Random dividends exercise the data-dependent M term (duplicate pairs
  // shift the phase-1 quiescence cycle).
  const Schema schema = rel::MakeIntSchema(2);
  Rng rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n_a = 1 + trial % 11;
    const size_t n_b = trial % 6;  // 0 covers the empty-divisor (Q=0) case
    Relation a(schema, rel::RelationKind::kMulti);
    Relation b(schema, rel::RelationKind::kMulti);
    for (size_t i = 0; i < n_a; ++i) {
      SYSTOLIC_CHECK(
          a.Append({rng.Uniform(0, 3), rng.Uniform(0, 4)}).ok());
    }
    for (size_t i = 0; i < n_b; ++i) {
      SYSTOLIC_CHECK(
          b.Append({rng.Uniform(0, 3), rng.Uniform(0, 4)}).ok());
    }
    rel::DivisionSpec spec{{1}, {1}};
    auto rtl = arrays::SystolicDivision(a, b, spec);
    ASSERT_OK(rtl);
    // Recompute the feed term exactly as the engine's division records do.
    std::map<rel::Code, size_t> x_rank;
    size_t m_feed = 0;
    for (size_t t = 0; t < n_a; ++t) {
      auto [it, inserted] = x_rank.emplace(a.tuple(t)[0], x_rank.size());
      m_feed = std::max(m_feed, t + it->second);
    }
    EXPECT_EQ(rtl->info.cycles,
              DivisionCycles(n_a, rtl->dividend_rows, rtl->divisor_cells,
                             m_feed))
        << "n_a=" << n_a << " n_b=" << n_b << " P=" << rtl->dividend_rows
        << " Q=" << rtl->divisor_cells;
  }
}

// ---------------------------------------------------------------------------
// Backend plumbing: name parsing and the ExecStats analytic guards.
// ---------------------------------------------------------------------------

TEST(Backend, ParseAndPrintPolicies) {
  Backend backend;
  EXPECT_TRUE(ParseBackendPolicy("rtl", &backend));
  EXPECT_EQ(backend, Backend::kRtl);
  EXPECT_TRUE(ParseBackendPolicy("fast", &backend));
  EXPECT_EQ(backend, Backend::kFast);
  EXPECT_FALSE(ParseBackendPolicy("auto", &backend));
  EXPECT_FALSE(ParseBackendPolicy("turbo", &backend));
  EXPECT_STREQ(BackendToString(Backend::kRtl), "rtl");
  EXPECT_STREQ(BackendToString(Backend::kFast), "fast");
}

TEST(Backend, UtilizationGuardedUnderAnalyticTiming) {
  // The fast path reports analytic cycles but simulates zero pulses; the
  // utilization ratios must not divide busy-cell counts by analytic time.
  db::ExecStats stats;
  stats.cycles = 100;
  stats.makespan_cycles = 100;
  stats.busy_cell_cycles = 50;
  stats.num_compute_cells = 4;
  EXPECT_GT(stats.Utilization(), 0.0);
  EXPECT_GT(stats.MakespanUtilization(), 0.0);
  stats.analytic_timing = true;
  EXPECT_EQ(stats.Utilization(), 0.0);
  EXPECT_EQ(stats.MakespanUtilization(), 0.0);
}

// ---------------------------------------------------------------------------
// Degenerate shapes: the fast backend must refuse or short-circuit exactly
// where the RTL tiles do, so backend dispatch never changes which queries
// are accepted or what they report.
// ---------------------------------------------------------------------------

TEST(Backend, FallbackPolicyNameAndRtlName) {
  EXPECT_STREQ(BackendToString(Backend::kRtl), "rtl");
  // A backend value from a newer build must print, not crash.
  EXPECT_STREQ(BackendToString(static_cast<Backend>(99)), "rtl");
}

TEST(Backend, FastIntersectRejectsZeroColumnOperandsLikeRtl) {
  // Whole-operand membership runs no per-tile driver, so the engine must
  // refuse zero-column operands itself, exactly when RunMembership would.
  const Schema none = rel::MakeIntSchema(0);
  Relation a(none, rel::RelationKind::kMulti);
  SYSTOLIC_CHECK(a.Append({}).ok());
  const Relation empty(none, rel::RelationKind::kMulti);
  for (const Backend backend : {Backend::kRtl, Backend::kFast}) {
    db::DeviceConfig device;
    device.backend = backend;
    const db::Engine engine(device);
    auto intersect = engine.Intersect(a, a);
    EXPECT_TRUE(intersect.status().IsInvalidArgument())
        << BackendToString(backend);
    auto subtract = engine.Subtract(a, a);
    EXPECT_TRUE(subtract.status().IsInvalidArgument())
        << BackendToString(backend);
    // No B tuples, no tile, nothing to refuse.
    EXPECT_OK(engine.Intersect(a, empty)) << BackendToString(backend);
  }
}

TEST(Backend, WholeOperandRecordsMatchRtlOnAutoSizedFixedB) {
  // rows = 0 auto-sizes a fixed-B grid to its B side, and a dedup tile's B
  // side is its own A block: the closed-form pass records must size every
  // tile exactly as the simulated pass does.
  const Schema schema = rel::MakeIntSchema(2);
  const Relation a = MakeRel(schema, 40, 2, 4, 11);
  const Relation b = MakeRel(schema, 25, 2, 4, 12);
  db::DeviceConfig device;
  device.mode = arrays::FeedModePolicy::kFixedB;
  const db::Engine rtl(device);
  device.backend = Backend::kFast;
  const db::Engine fast(device);
  const auto expect_same = [](const Result<db::EngineResult>& r,
                              const Result<db::EngineResult>& f,
                              const char* what) {
    ASSERT_OK(r);
    ASSERT_OK(f);
    EXPECT_EQ(r->relation.tuples(), f->relation.tuples()) << what;
    EXPECT_EQ(r->stats.passes, f->stats.passes) << what;
    EXPECT_EQ(r->stats.cycles, f->stats.cycles) << what;
    EXPECT_EQ(r->stats.dma_cycles, f->stats.dma_cycles) << what;
    EXPECT_EQ(r->stats.memory_makespan_cycles, f->stats.memory_makespan_cycles)
        << what;
  };
  expect_same(rtl.RemoveDuplicates(a), fast.RemoveDuplicates(a), "dedup");
  expect_same(rtl.Union(a, b), fast.Union(a, b), "union");
  expect_same(rtl.Intersect(a, b), fast.Intersect(a, b), "intersect");
  const rel::JoinSpec spec{{0}, {0}, rel::ComparisonOp::kEq};
  expect_same(rtl.Join(a, b, spec), fast.Join(a, b, spec), "join");
}

TEST(FastpathKernels, MembershipBitsEmptyAIsEmptyBits) {
  const Schema schema = rel::MakeIntSchema(1);
  const Relation empty(schema, rel::RelationKind::kMulti);
  const Relation b = MakeRel(schema, 3, 1, 3, 2);
  EXPECT_EQ(MembershipBits(empty, b, {0}, {0}, EdgeRule::kAllTrue).size(), 0u);
}

TEST(FastpathKernels, JoinMatchesEmptyOperandIsEmpty) {
  const Schema schema = rel::MakeIntSchema(2);
  const Relation a = MakeRel(schema, 3, 2, 4, 1);
  const Relation empty(schema, rel::RelationKind::kMulti);
  for (const rel::ComparisonOp op :
       {rel::ComparisonOp::kEq, rel::ComparisonOp::kLt}) {
    EXPECT_TRUE(JoinMatches(a, empty, {0}, {0}, op).empty());
    EXPECT_TRUE(JoinMatches(empty, a, {0}, {0}, op).empty());
  }
  EXPECT_EQ(JoinCycles(FeedMode::kMarching, 3, 0, 1, 0), 0u);
}

/// Runs `op` on an RTL and a fast engine over one device and requires the
/// same relation, kind and ExecStats counters.
template <typename Op>
void ExpectFastMatchesRtl(const db::DeviceConfig& device, const Op& op,
                          const char* what) {
  db::DeviceConfig fast_device = device;
  fast_device.backend = Backend::kFast;
  const Result<db::EngineResult> rtl = op(db::Engine(device));
  const Result<db::EngineResult> fast = op(db::Engine(fast_device));
  ASSERT_OK(rtl);
  ASSERT_OK(fast);
  EXPECT_EQ(rtl->relation.tuples(), fast->relation.tuples()) << what;
  EXPECT_EQ(rtl->relation.kind(), fast->relation.kind()) << what;
  const db::ExecStats& r = rtl->stats;
  const db::ExecStats& f = fast->stats;
  EXPECT_EQ(r.passes, f.passes) << what;
  EXPECT_EQ(r.cycles, f.cycles) << what;
  EXPECT_EQ(r.makespan_cycles, f.makespan_cycles) << what;
  EXPECT_EQ(r.dma_cycles, f.dma_cycles) << what;
  EXPECT_EQ(r.overlap_cycles, f.overlap_cycles) << what;
  EXPECT_EQ(r.memory_makespan_cycles, f.memory_makespan_cycles) << what;
  EXPECT_EQ(r.overlap_enabled, f.overlap_enabled) << what;
  EXPECT_EQ(f.backend, Backend::kFast) << what;
}

TEST(Backend, EmptyDividendIsEmptyQuotientOnBothBackends) {
  const Schema schema = rel::MakeIntSchema(2);
  const Relation empty(schema, rel::RelationKind::kMulti);
  const Relation b = MakeRel(schema, 2, 2, 3, 2);
  const rel::DivisionSpec spec{{1}, {1}};
  for (const size_t rows : {size_t{0}, size_t{3}}) {
    db::DeviceConfig device;
    device.rows = rows;
    ExpectFastMatchesRtl(
        device, [&](const db::Engine& e) { return e.Divide(empty, b, spec); },
        "empty dividend");
  }
}

TEST(Backend, VacuousAndEmptySelectionOnBothBackends) {
  const Schema schema = rel::MakeIntSchema(2);
  const Relation a = MakeRel(schema, 5, 2, 4, 9);
  const Relation empty(schema, rel::RelationKind::kMulti);
  const std::vector<arrays::SelectionPredicate> ge1{
      {0, rel::ComparisonOp::kGe, 1}};
  const db::DeviceConfig device;
  // Empty predicate list: vacuous conjunction selects A as it is.
  ExpectFastMatchesRtl(
      device, [&](const db::Engine& e) { return e.Select(a, {}); },
      "no predicates");
  ExpectFastMatchesRtl(
      device, [&](const db::Engine& e) { return e.Select(empty, {}); },
      "no predicates, empty operand");
  // Empty input: empty output of the same schema.
  ExpectFastMatchesRtl(
      device, [&](const db::Engine& e) { return e.Select(empty, ge1); },
      "empty operand");
}

TEST(FastpathKernels, DivisionQuotientMatchesRtl) {
  // Duplicate pairs, divisor values A never carries and B's own duplicates:
  // counting distinct matched values per key is §7's AND across the row.
  const Schema schema = rel::MakeIntSchema(2);
  for (uint64_t salt = 1; salt <= 12; ++salt) {
    const Relation a = MakeRel(schema, 6 + salt * 5, 2, 4, salt);
    const Relation b = MakeRel(schema, salt % 5, 2, 5, salt + 100);
    const rel::DivisionSpec spec{{1}, {1}};
    auto rtl = arrays::SystolicDivision(a, b, spec);
    ASSERT_OK(rtl);
    const DivisionMatches matches = MatchDivision(a, b, {0}, {1}, {1});
    EXPECT_EQ(matches.key_rows.size(), rtl->dividend_rows) << salt;
    EXPECT_EQ(matches.value_rows.size(), rtl->divisor_cells) << salt;
    Relation quotient(rtl->relation.schema());
    ASSERT_STATUS_OK(DivisionQuotient(a, {0}, matches, &quotient));
    EXPECT_EQ(rtl->relation.tuples(), quotient.tuples()) << salt;
  }
}

TEST(FastpathKernels, MatchMaskDiesEarlyOnFirstColumn) {
  // An A value matching nothing clears every word on the first compared
  // column; the kernel must stop refining (the dead-grid shortcut) and
  // still report an all-zero mask.
  const Schema schema = rel::MakeIntSchema(2);
  Relation b(schema, rel::RelationKind::kMulti);
  for (int64_t j = 0; j < 70; ++j) {
    SYSTOLIC_CHECK(b.Append({j % 5, j % 3}).ok());
  }
  const rel::Tuple a_i{1000, 0};  // no b has column 0 == 1000
  const std::vector<std::vector<rel::Code>> packed{PackColumn(b, 0),
                                                   PackColumn(b, 1)};
  const auto words = MatchMaskWords(
      a_i, {0, 1}, packed, {rel::ComparisonOp::kEq, rel::ComparisonOp::kEq},
      70);
  for (uint64_t word : words) EXPECT_EQ(word, 0u);
}

TEST(Backend, EngineResolvesFaultFallback) {
  db::DeviceConfig device;
  device.backend = Backend::kFast;
  EXPECT_EQ(db::Engine(device).ResolveBackend(), Backend::kFast);
  device.backend = Backend::kRtl;
  EXPECT_EQ(db::Engine(device).ResolveBackend(), Backend::kRtl);
  // Fault injection needs pulse-level fidelity: the fast policy falls back.
  device.backend = Backend::kFast;
  device.faults = std::make_shared<faults::FaultPlan>(
      faults::FaultPlan::Uniform(7, 2, 0.01, 0.0, 0.0));
  EXPECT_EQ(db::Engine(device).ResolveBackend(), Backend::kRtl);
}

}  // namespace
}  // namespace fastpath
}  // namespace systolic
