#include "arrays/division_array.h"

#include <map>
#include <vector>

#include "arrays/division_cells.h"
#include "systolic/feeder.h"
#include "systolic/simulator.h"

namespace systolic {
namespace arrays {

namespace {

/// Packs each sub-tuple over `columns` into a scratch integer code (fresh
/// codes in first-occurrence order), recording the distinct sub-tuples in
/// `order`. The shared map lets A's divisor part and B use one code space.
rel::Code PackSubTuple(rel::TupleRef tuple,
                       const std::vector<size_t>& columns,
                       std::map<rel::Tuple, rel::Code>* codes,
                       std::vector<rel::Tuple>* order) {
  rel::Tuple sub;
  sub.reserve(columns.size());
  for (size_t c : columns) sub.push_back(tuple[c]);
  auto [it, inserted] =
      codes->emplace(std::move(sub), static_cast<rel::Code>(codes->size()));
  if (inserted && order != nullptr) order->push_back(it->first);
  return it->second;
}

}  // namespace

Result<DivisionArrayResult> SystolicDivision(const rel::Relation& a,
                                             const rel::Relation& b,
                                             const rel::DivisionSpec& spec,
                                             const DivisionArrayOptions& options) {
  SYSTOLIC_RETURN_NOT_OK(rel::ValidateDivisionSpec(a.schema(), b.schema(), spec));
  const std::vector<size_t> quotient_columns =
      rel::DivisionQuotientColumns(a.schema(), spec);
  SYSTOLIC_ASSIGN_OR_RETURN(rel::Schema out_schema,
                            rel::DivisionOutputSchema(a.schema(), spec));
  DivisionArrayResult result(
      rel::Relation(std::move(out_schema), rel::RelationKind::kSet));
  if (a.num_tuples() == 0) {
    return result;
  }

  // Pack multi-column sub-tuples into single scratch codes (§2.3-style
  // reversible encoding); single-column specs pack to a bijection of the
  // original codes, so the restricted case is unchanged.
  std::map<rel::Tuple, rel::Code> x_codes;
  std::vector<rel::Tuple> x_order;  // distinct quotient values, in A order
  std::map<rel::Tuple, rel::Code> y_codes;
  std::vector<std::pair<rel::Code, rel::Code>> pairs;  // (x, y) per A tuple
  pairs.reserve(a.num_tuples());
  for (rel::TupleRef ta : a.tuples()) {
    const rel::Code x = PackSubTuple(ta, quotient_columns, &x_codes, &x_order);
    const rel::Code y = PackSubTuple(ta, spec.a_columns, &y_codes, nullptr);
    pairs.emplace_back(x, y);
  }
  std::vector<rel::Code> divisor;  // distinct divisor values
  {
    std::map<rel::Tuple, rel::Code> seen;
    for (rel::TupleRef tb : b.tuples()) {
      const rel::Code packed = PackSubTuple(tb, spec.b_columns, &y_codes, nullptr);
      // Deduplicate: only the first sighting of each distinct divisor value
      // is preloaded (the paper stores "elements appearing in the divisor").
      rel::Tuple sub;
      sub.reserve(spec.b_columns.size());
      for (size_t c : spec.b_columns) sub.push_back(tb[c]);
      if (seen.emplace(std::move(sub), packed).second) divisor.push_back(packed);
    }
  }

  const size_t P = x_order.size();   // dividend rows
  const size_t Q = divisor.size();   // divisor cells per row
  result.dividend_rows = P;
  result.divisor_cells = Q;

  // --- Build the device (Fig. 7-2). ---
  sim::Simulator simulator;
  std::vector<sim::Wire*> z(P + 1);
  std::vector<sim::Wire*> y(P + 1);
  for (size_t p = 0; p <= P; ++p) {
    z[p] = simulator.NewWire("z" + std::to_string(p));
    y[p] = simulator.NewWire("y" + std::to_string(p));
  }
  std::vector<std::vector<sim::Wire*>> lane(P);
  std::vector<DividendStoreCell*> stores(P);
  std::vector<DivisorCell*> divisor_cells;
  std::vector<sim::SinkCell*> sinks(P);
  for (size_t p = 0; p < P; ++p) {
    sim::Wire* match = simulator.NewWire("m" + std::to_string(p));
    lane[p].resize(Q + 1);
    for (size_t q = 0; q <= Q; ++q) {
      lane[p][q] = simulator.NewWire("lane" + std::to_string(p) + "," +
                                     std::to_string(q));
    }
    stores[p] = simulator.AddCell<DividendStoreCell>(
        "store" + std::to_string(p), z[p], z[p + 1], match);
    stores[p]->Preload(static_cast<rel::Code>(p),
                       static_cast<sim::TupleTag>(p));
    simulator.AddCell<DividendGateCell>("gate" + std::to_string(p), y[p],
                                        y[p + 1], match, lane[p][0]);
    for (size_t q = 0; q < Q; ++q) {
      DivisorCell* cell = simulator.AddCell<DivisorCell>(
          "div" + std::to_string(p) + "," + std::to_string(q), lane[p][q],
          lane[p][q + 1]);
      cell->Preload(divisor[q]);
      divisor_cells.push_back(cell);
    }
    sinks[p] = simulator.AddInfrastructureCell<sim::SinkCell>(
        "quot" + std::to_string(p), lane[p][Q]);
  }
  auto* z_feeder =
      simulator.AddInfrastructureCell<sim::StreamFeeder>("feed-z", z[0]);
  auto* y_feeder =
      simulator.AddInfrastructureCell<sim::StreamFeeder>("feed-y", y[0]);
  std::vector<sim::StreamFeeder*> probe_feeders(P);
  for (size_t p = 0; p < P; ++p) {
    probe_feeders[p] = simulator.AddInfrastructureCell<sim::StreamFeeder>(
        "probe" + std::to_string(p), lane[p][0]);
  }

  // --- Phase 1: pump the dividend pairs through, y one pulse behind x. ---
  for (size_t t = 0; t < pairs.size(); ++t) {
    const auto tag = static_cast<sim::TupleTag>(t);
    z_feeder->ScheduleAt(t, sim::Word::Element(pairs[t].first, tag));
    y_feeder->ScheduleAt(t + 1, sim::Word::Element(pairs[t].second, tag));
  }
  const size_t max_cycles =
      options.max_cycles != 0 ? options.max_cycles
                              : 4 * (pairs.size() + P + Q) + 64;
  SYSTOLIC_RETURN_NOT_OK(simulator.RunUntilQuiescent(max_cycles).status());

  // --- Phase 2: AND-probe each divisor row (§7's "AND across the row"). ---
  for (size_t p = 0; p < P; ++p) {
    sinks[p]->Clear();
    probe_feeders[p]->ScheduleAt(
        simulator.cycle(),
        sim::Word::Boolean(true, sim::kNoTag, static_cast<sim::TupleTag>(p)));
  }
  for (DivisorCell* cell : divisor_cells) cell->SetPhase(DivisorPhase::kCollect);
  SYSTOLIC_ASSIGN_OR_RETURN(size_t cycles,
                            simulator.RunUntilQuiescent(max_cycles));
  result.info.cycles = cycles;
  result.info.sim = simulator.Stats();

  for (size_t p = 0; p < P; ++p) {
    if (sinks[p]->received().size() != 1) {
      return Status::Internal("divisor row " + std::to_string(p) +
                              " emitted " +
                              std::to_string(sinks[p]->received().size()) +
                              " probe results, expected 1");
    }
    if (sinks[p]->received()[0].second.AsBool()) {
      SYSTOLIC_RETURN_NOT_OK(result.relation.Append(x_order[p]));
    }
  }
  return result;
}

}  // namespace arrays
}  // namespace systolic
