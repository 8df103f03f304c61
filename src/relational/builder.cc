#include "relational/builder.h"

namespace systolic {
namespace rel {

Status RelationBuilder::AddRow(const std::vector<Value>& row) {
  const Schema& schema = relation_.schema();
  if (row.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema " +
        schema.ToString());
  }
  Tuple tuple;
  tuple.reserve(row.size());
  for (size_t c = 0; c < row.size(); ++c) {
    SYSTOLIC_ASSIGN_OR_RETURN(Code code, schema.column(c).domain->Encode(row[c]));
    tuple.push_back(code);
  }
  return relation_.Append(tuple);
}

Relation RelationBuilder::Finish() {
  Relation out(relation_.schema(), relation_.kind());
  using std::swap;
  swap(out, relation_);
  return out;
}

Result<Relation> MakeRelation(const Schema& schema,
                              const std::vector<std::vector<int64_t>>& rows,
                              RelationKind kind) {
  RelationBuilder builder(schema, kind);
  for (const auto& row : rows) {
    std::vector<Value> values;
    values.reserve(row.size());
    for (int64_t v : row) values.push_back(Value::Int64(v));
    SYSTOLIC_RETURN_NOT_OK(builder.AddRow(values));
  }
  return builder.Finish();
}

Schema MakeIntSchema(size_t arity, const std::string& domain_prefix) {
  std::vector<Column> columns;
  columns.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    columns.push_back(Column{
        "c" + std::to_string(i),
        Domain::Make(domain_prefix + std::to_string(i), ValueType::kInt64)});
  }
  return Schema(std::move(columns));
}

}  // namespace rel
}  // namespace systolic
