#include "workload.h"

#include <algorithm>
#include <random>
#include <set>

#include "planner/physical.h"
#include "planner/plan.h"
#include "relational/builder.h"
#include "relational/generator.h"
#include "relational/ops_reference.h"

namespace perfbench {

namespace {

using systolic::Result;
using systolic::Status;
using machine::OpKind;
namespace planner = systolic::planner;

constexpr size_t kSharedPerSession = 3;

uint64_t Mix(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Mix(uint64_t a, uint64_t b) { return Mix(a ^ Mix(b)); }

const rel::JoinSpec kJoinOnC0{{0}, {0}, rel::ComparisonOp::kEq};
const rel::DivisionSpec kDivideOnC0{{0}, {0}};

const char* Verb(OpKind op) {
  switch (op) {
    case OpKind::kIntersect: return "INTERSECT";
    case OpKind::kJoin: return "JOIN";
    case OpKind::kRemoveDuplicates: return "DEDUP";
    case OpKind::kDivide: return "DIVIDE";
    case OpKind::kSelect: return "SELECT";
    default: return "?";
  }
}

/// Expected result of one step: the reference operator (relational/
/// ops_reference) on the step's operands; SELECT, which has no reference
/// operator, filters by value.
Result<rel::Relation> Reference(const StepDesc& step, const rel::Relation& a,
                                const rel::Relation* b) {
  switch (step.op) {
    case OpKind::kIntersect: return rel::reference::Intersection(a, *b);
    case OpKind::kJoin: return rel::reference::Join(a, *b, kJoinOnC0);
    case OpKind::kRemoveDuplicates: return rel::reference::RemoveDuplicates(a);
    case OpKind::kDivide: return rel::reference::Division(a, *b, kDivideOnC0);
    case OpKind::kSelect: {
      SYSTOLIC_ASSIGN_OR_RETURN(
          const rel::Code code,
          a.schema().column(0).domain->Lookup(rel::Value::Int64(step.value)));
      rel::Relation out(a.schema(), a.kind());
      for (const rel::Tuple& t : a.tuples()) {
        if (t[0] == code) SYSTOLIC_RETURN_NOT_OK(out.Append(t));
      }
      return out;
    }
    default: return Status::InvalidArgument("unsupported step");
  }
}

Status AppendStep(const StepDesc& step, const rel::Schema& left_schema,
                  machine::Transaction* txn) {
  switch (step.op) {
    case OpKind::kIntersect:
      txn->Intersect(step.left, step.right, step.out);
      return Status::OK();
    case OpKind::kJoin:
      txn->Join(step.left, step.right, kJoinOnC0, step.out);
      return Status::OK();
    case OpKind::kRemoveDuplicates:
      txn->RemoveDuplicates(step.left, step.out);
      return Status::OK();
    case OpKind::kDivide:
      txn->Divide(step.left, step.right, kDivideOnC0, step.out);
      return Status::OK();
    case OpKind::kSelect: {
      SYSTOLIC_ASSIGN_OR_RETURN(
          const rel::Code code,
          left_schema.column(0).domain->Lookup(rel::Value::Int64(step.value)));
      txn->Select(step.left, {{0, rel::ComparisonOp::kEq, code}}, step.out);
      return Status::OK();
    }
    default: return Status::InvalidArgument("unsupported step");
  }
}

Frame LineFrame(std::string line) {
  Frame frame;
  frame.line = std::move(line);
  return frame;
}

std::string StepLine(const StepDesc& step,
                     const std::map<std::string, std::string>& names) {
  const auto name = [&names](const std::string& n) {
    const auto it = names.find(n);
    return it == names.end() ? n : it->second;
  };
  std::string line = std::string(Verb(step.op)) + " " + name(step.left);
  switch (step.op) {
    case OpKind::kJoin:
    case OpKind::kDivide:
      line += " " + name(step.right) + " ON c0 = c0";
      break;
    case OpKind::kSelect:
      line += " WHERE c0 = " + std::to_string(step.value);
      break;
    case OpKind::kIntersect:
      line += " " + name(step.right);
      break;
    default:
      break;
  }
  return line + " -> " + name(step.out);
}

WorkloadSpec SpecFor(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "oltp-commit") {
    spec.connections = 4;
    spec.backend = "fast";
    spec.chips = 1;
    // Every command is admitted as a plan; commits must overlap for the
    // group-commit leader to batch them.
    spec.admission = 4;
    spec.durable_writes = true;
    spec.rate = 8;
    spec.replay_every = 1;
  } else if (name == "analytic-tiled") {
    spec.connections = 4;
    spec.backend = "fast";
    spec.chips = 4;
    spec.admission = 2;
    spec.durable_writes = false;
    spec.rate = 6;
    spec.replay_every = 3;
  } else if (name == "rtl-sim") {
    // Four connections, not two: each connection's TCP delayed-ACK state
    // sets its frames' round trip, and two connections were too few for the
    // median to settle.
    spec.connections = 4;
    spec.backend = "rtl";
    spec.chips = 2;
    spec.admission = 2;
    spec.durable_writes = false;
    spec.rate = 7;
    spec.replay_every = 2;
  }
  return spec;
}

}  // namespace

Workload::Workload(WorkloadSpec spec, uint64_t seed)
    : spec_(std::move(spec)), seed_(seed), schema_(rel::MakeIntSchema(2)) {}

Result<std::unique_ptr<Workload>> Workload::Make(const std::string& name,
                                                 uint64_t seed) {
  if (name != "oltp-commit" && name != "analytic-tiled" && name != "rtl-sim") {
    return Status::InvalidArgument(
        "unknown workload '" + name +
        "'; valid: oltp-commit, analytic-tiled, rtl-sim");
  }
  std::unique_ptr<Workload> workload(new Workload(SpecFor(name), seed));
  SYSTOLIC_RETURN_NOT_OK(workload->Build());
  return workload;
}

std::string Workload::TupleLines(const rel::Relation& relation) {
  const std::string text = relation.ToString();
  const size_t newline = text.find('\n');
  return newline == std::string::npos ? "" : text.substr(newline + 1);
}

const rel::Relation* Workload::Keep(rel::Relation relation) {
  kept_.push_back(std::move(relation));
  return &kept_.back();
}

const std::string* Workload::Rows(const rel::Relation* relation) {
  auto it = rows_.find(relation);
  if (it == rows_.end()) {
    it = rows_.emplace(relation, TupleLines(*relation)).first;
  }
  return &it->second;
}

Status Workload::Build() {
  const bool oltp = spec_.name == "oltp-commit";
  const bool rtl = spec_.name == "rtl-sim";
  const std::vector<size_t> light =
      oltp ? std::vector<size_t>{16, 64, 256}
           : rtl ? std::vector<size_t>{16, 64} : std::vector<size_t>{256, 1000};
  const size_t heavy = oltp ? 0 : rtl ? 256 : 4000;

  // Relations: a/b overlapping pairs (intersect, join), d with duplicates
  // (dedup), v a small divisor. One schema, so every column pair shares its
  // domain and all operands are union-compatible.
  std::vector<size_t> sizes = light;
  if (heavy != 0) sizes.push_back(heavy);
  for (size_t s : sizes) {
    const uint64_t salt = Mix(seed_, s);
    rel::PairOptions pair;
    pair.base.num_tuples = s;
    pair.base.domain_size = static_cast<int64_t>(8 * s + 16);
    pair.base.seed = Mix(salt, 1);
    pair.b_num_tuples = s;
    pair.overlap_fraction = 0.3;
    SYSTOLIC_ASSIGN_OR_RETURN(rel::RelationPair ab,
                              rel::GenerateOverlappingPair(schema_, pair));
    const std::string n = std::to_string(s);
    base_.emplace("a" + n, std::move(ab.a));
    base_.emplace("b" + n, std::move(ab.b));
    if (oltp) continue;
    rel::GeneratorOptions dup = pair.base;
    dup.seed = Mix(salt, 2);
    SYSTOLIC_ASSIGN_OR_RETURN(rel::Relation d,
                              rel::GenerateWithDuplicates(schema_, dup, 2.0));
    base_.emplace("d" + n, std::move(d));
    rel::GeneratorOptions divisor = pair.base;
    divisor.num_tuples = std::max<size_t>(4, s / 8);
    divisor.seed = Mix(salt, 3);
    SYSTOLIC_ASSIGN_OR_RETURN(rel::Relation v,
                              rel::GenerateRelation(schema_, divisor));
    base_.emplace("v" + n, std::move(v));
  }
  for (const auto& [name, relation] : base_) {
    base_names_.push_back(name);
    Rows(&relation);
  }

  setup_lines_.push_back("SET BACKEND " + spec_.backend);
  if (!spec_.durable_writes) setup_lines_.push_back("SET DURABILITY off");
  for (const std::string& name : base_names_) {
    setup_lines_.push_back("LOAD " + name);
  }

  // A SELECT constant that occurs in the relation: c0 of a seeded tuple.
  const auto value_in = [this](const std::string& name, uint64_t salt) {
    const rel::Relation& r = base_.at(name);
    const rel::Tuple& t = r.tuple(Mix(seed_, salt) % r.num_tuples());
    return r.schema().column(0).domain->Decode(t[0]).ValueOrDie().AsInt64();
  };

  for (size_t s : light) {
    const std::string n = std::to_string(s);
    const std::string a = "a" + n;
    const std::string b = "b" + n;
    if (oltp) {
      SYSTOLIC_RETURN_NOT_OK(AddShape(
          "select", {{OpKind::kSelect, a, "", "o0", value_in(a, s)}}, false,
          false));
      SYSTOLIC_RETURN_NOT_OK(
          AddShape("join", {{OpKind::kJoin, a, b, "o0", 0}}, true, false));
      SYSTOLIC_RETURN_NOT_OK(AddShape(
          "intersect", {{OpKind::kIntersect, a, b, "o0", 0}}, true, false));
      continue;
    }
    SYSTOLIC_RETURN_NOT_OK(AddShape(
        "intersect", {{OpKind::kIntersect, a, b, "o0", 0}}, false, false));
    SYSTOLIC_RETURN_NOT_OK(
        AddShape("join", {{OpKind::kJoin, a, b, "o0", 0}}, false, false));
    SYSTOLIC_RETURN_NOT_OK(AddShape(
        "dedup", {{OpKind::kRemoveDuplicates, "d" + n, "", "o0", 0}}, false,
        false));
    SYSTOLIC_RETURN_NOT_OK(AddShape(
        "divide", {{OpKind::kDivide, a, "v" + n, "o0", 0}}, false, false));
    // σ over a join: the planner pushes the selection below the join (a
    // pulse saving it reports), next to an independent intersection.
    SYSTOLIC_RETURN_NOT_OK(AddShape(
        "txn",
        {{OpKind::kJoin, a, b, "o0", 0},
         {OpKind::kSelect, "o0", "", "o1", value_in(a, s + 1)},
         {OpKind::kIntersect, b, a, "o2", 0}},
        true, false));
  }
  if (heavy != 0) {
    const std::string n = std::to_string(heavy);
    SYSTOLIC_RETURN_NOT_OK(AddShape(
        "intersect", {{OpKind::kIntersect, "a" + n, "b" + n, "o0", 0}}, false,
        true));
    SYSTOLIC_RETURN_NOT_OK(AddShape(
        "join", {{OpKind::kJoin, "a" + n, "b" + n, "o0", 0}}, false, true));
    SYSTOLIC_RETURN_NOT_OK(AddShape(
        "dedup", {{OpKind::kRemoveDuplicates, "d" + n, "", "o0", 0}}, false,
        true));
    SYSTOLIC_RETURN_NOT_OK(AddShape(
        "divide", {{OpKind::kDivide, "a" + n, "v" + n, "o0", 0}}, false,
        true));
  }

  if (oltp) {
    // Each session owns kSharedPerSession names that others LOAD; every
    // STORE to a name writes the same contents, so any committed version a
    // reader sees is checkable.
    for (size_t c = 0; c < spec_.connections; ++c) {
      for (size_t k = 0; k < kSharedPerSession; ++k) {
        const std::string& source = base_names_[(c + k) % base_names_.size()];
        shared_.emplace("u" + std::to_string(c) + "_" + std::to_string(k),
                        &base_.at(source));
      }
    }
    // Latency clusters, fastest first: PRINT and STORE (one frame), point
    // SELECT (two), shared LOAD (three), transactions (five). Three SELECTs
    // put the median in the middle of the SELECT cluster instead of on the
    // edge between two clusters, where it would flip from run to run.
    deck_ = {'P', 'S', 'S', 'S', 'L', 'W', 'W', 'W', 'T', 'T'};
  } else {
    deck_ = {'I', 'J', 'D', 'V', 'I', 'J', 'D', 'T', 'T', 'H'};
  }
  return Status::OK();
}

Status Workload::AddShape(std::string family, std::vector<StepDesc> steps,
                          bool transaction, bool heavy) {
  auto shape = std::make_unique<Shape>();
  shape->id = shapes_.size();
  shape->family = std::move(family);
  shape->transaction = transaction;
  shape->steps = std::move(steps);

  std::map<std::string, const rel::Relation*> env;
  for (const auto& [name, relation] : base_) env[name] = &relation;
  std::map<std::string, planner::InputInfo> inputs;
  std::set<std::string> consumed;
  for (const StepDesc& step : shape->steps) {
    for (const std::string& operand : {step.left, step.right}) {
      if (operand.empty()) continue;
      consumed.insert(operand);
      const auto it = base_.find(operand);
      if (it == base_.end() || inputs.count(operand) != 0) continue;
      planner::InputInfo info;
      info.schema = it->second.schema();
      info.num_tuples = it->second.num_tuples();
      info.duplicate_free = planner::ProvablyDuplicateFree(it->second);
      inputs.emplace(operand, std::move(info));
    }
    const rel::Relation* a = env.at(step.left);
    const rel::Relation* b = step.right.empty() ? nullptr : env.at(step.right);
    SYSTOLIC_RETURN_NOT_OK(AppendStep(step, a->schema(), &shape->txn));
    SYSTOLIC_ASSIGN_OR_RETURN(rel::Relation expected, Reference(step, *a, b));
    const rel::Relation* kept = Keep(std::move(expected));
    env[step.out] = kept;
    shape->expected[step.out] = kept;
  }
  for (const StepDesc& step : shape->steps) {
    if (consumed.count(step.out) == 0) shape->sinks.push_back(step.out);
  }
  if (transaction) {
    // A planned COMMIT leaves every emitted step's output except the
    // planner's own temporaries; plan exactly as the session will to know
    // which buffers the request must release.
    planner::PlannerOptions options;
    options.params.default_device.rows = spec_.rows;
    options.params.default_device.num_chips = spec_.chips;
    SYSTOLIC_ASSIGN_OR_RETURN(
        const planner::PlannedTransaction planned,
        planner::PlanTransaction(shape->txn, inputs, options));
    const std::set<std::string> temps(planned.temp_buffers.begin(),
                                      planned.temp_buffers.end());
    for (const machine::PlanStep& step : planned.transaction.steps()) {
      if (temps.count(step.output) == 0) shape->remaining.push_back(step.output);
    }
    shape->print_rows = Rows(shape->expected.at(shape->sinks.front()));
  }
  if (heavy) {
    heavy_.push_back(shape->id);
  } else {
    light_[transaction ? "txn" : shape->family].push_back(shape->id);
  }
  shapes_.push_back(std::move(shape));
  return Status::OK();
}

std::vector<Frame> Workload::ShapeFrames(const Shape& shape, size_t conn,
                                         const std::string& prefix) const {
  std::map<std::string, std::string> names;
  for (const StepDesc& step : shape.steps) {
    names[step.out] = prefix + "c" + std::to_string(conn) + "s" +
                      std::to_string(shape.id) + step.out;
  }
  std::vector<Frame> frames;
  if (!shape.transaction) {
    const StepDesc& step = shape.steps.front();
    Frame run;
    run.line = StepLine(step, names);
    run.expect_tuples =
        static_cast<int64_t>(shape.expected.at(step.out)->num_tuples());
    run.reports_pulses = true;
    run.step = &step;
    frames.push_back(std::move(run));
    Frame release;
    release.line = "RELEASE " + names.at(step.out);
    frames.push_back(std::move(release));
    return frames;
  }
  frames.push_back(LineFrame("BEGIN"));
  for (const StepDesc& step : shape.steps) {
    frames.push_back(LineFrame(StepLine(step, names)));
  }
  Frame commit;
  commit.line = "COMMIT";
  commit.reports_pulses = true;
  commit.commit_verb = true;
  if (spec_.durable_writes) {
    for (const std::string& sink : shape.sinks) {
      commit.puts.emplace_back(names.at(sink), shape.expected.at(sink));
    }
  }
  frames.push_back(std::move(commit));
  Frame print;
  print.line = "PRINT " + names.at(shape.sinks.front());
  print.expect_rows = shape.print_rows;
  frames.push_back(std::move(print));
  for (const std::string& name : shape.remaining) {
    frames.push_back(LineFrame("RELEASE " + names.at(name)));
  }
  return frames;
}

Request Workload::RenderShape(const Shape& shape, size_t conn) const {
  Request request;
  request.family = shape.transaction ? "txn" : shape.family;
  request.frames = ShapeFrames(shape, conn, "");
  request.mirror_frames = ShapeFrames(shape, conn, "m");
  request.shape = &shape;
  return request;
}

Request Workload::Generate(uint64_t index, size_t conn) const {
  const uint64_t deck = index / deck_.size();
  const size_t pos = index % deck_.size();
  std::vector<char> classes = deck_;
  std::mt19937_64 shuffle(Mix(seed_, Mix(deck, 0x5eed)));
  for (size_t i = classes.size() - 1; i > 0; --i) {
    std::swap(classes[i], classes[shuffle() % (i + 1)]);
  }
  std::mt19937_64 rng(Mix(seed_, Mix(index, conn)));
  // Cycle each class through its shapes by its own occurrence count, so a
  // run's size mix is exact whatever order the shuffle dealt the deck in.
  const char cls = classes[pos];
  const size_t per_deck =
      static_cast<size_t>(std::count(deck_.begin(), deck_.end(), cls));
  const size_t rotation =
      static_cast<size_t>(deck) * per_deck +
      static_cast<size_t>(std::count(classes.begin(), classes.begin() + pos, cls));
  const auto pick = [&](const char* family) -> const Shape& {
    const std::vector<size_t>& ids = light_.at(family);
    return *shapes_[ids[rotation % ids.size()]];
  };

  const std::string c = std::to_string(conn);
  Request request;
  switch (cls) {
    case 'P': {
      const std::string& name = base_names_[rotation % base_names_.size()];
      request.family = "print";
      Frame print;
      print.line = "PRINT " + name;
      print.expect_rows = &rows_.at(&base_.at(name));
      request.frames = {print};
      request.mirror_frames = request.frames;
      return request;
    }
    case 'L': {
      const size_t other =
          (conn + 1 + rng() % (spec_.connections - 1)) % spec_.connections;
      const std::string name = "u" + std::to_string(other) + "_" +
                               std::to_string(rng() % kSharedPerSession);
      const rel::Relation* contents = shared_.at(name);
      request.family = "load";
      Frame load;
      load.line = "LOAD " + name;
      load.expect_tuples = static_cast<int64_t>(contents->num_tuples());
      load.shared_load = true;
      Frame print;
      print.line = "PRINT " + name;
      print.expect_rows = &rows_.at(contents);
      request.frames = {load, print, LineFrame("RELEASE " + name)};
      request.mirror_frames = request.frames;
      return request;
    }
    case 'W': {
      const size_t k = rng() % kSharedPerSession;
      const std::string target = "u" + c + "_" + std::to_string(k);
      const std::string& source =
          base_names_[(conn + k) % base_names_.size()];
      const rel::Relation* contents = &base_.at(source);
      request.family = "store";
      Frame store;
      store.line = "STORE " + source + " AS " + target;
      store.puts = {{target, contents}};
      Frame mirror = store;
      mirror.line = "STORE " + source + " AS m" + target;
      mirror.puts = {{"m" + target, contents}};
      request.frames = {store};
      request.mirror_frames = {mirror};
      return request;
    }
    case 'S': return RenderShape(pick("select"), conn);
    case 'T': return RenderShape(pick("txn"), conn);
    case 'I': return RenderShape(pick("intersect"), conn);
    case 'J': return RenderShape(pick("join"), conn);
    case 'D': return RenderShape(pick("dedup"), conn);
    case 'V': return RenderShape(pick("divide"), conn);
    default:
      return RenderShape(*shapes_[heavy_[deck % heavy_.size()]], conn);
  }
}

}  // namespace perfbench
