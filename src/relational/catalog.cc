#include "relational/catalog.h"

namespace systolic {
namespace rel {

Result<std::shared_ptr<Domain>> Catalog::CreateDomain(const std::string& name,
                                                      ValueType type) {
  if (domains_.count(name) != 0) {
    return Status::AlreadyExists("domain '" + name + "' already registered");
  }
  auto domain = Domain::Make(name, type);
  domains_.emplace(name, domain);
  return domain;
}

Result<std::shared_ptr<Domain>> Catalog::GetDomain(
    const std::string& name) const {
  auto it = domains_.find(name);
  if (it == domains_.end()) {
    return Status::NotFound("no domain named '" + name + "'");
  }
  return it->second;
}

void Catalog::PutRelation(const std::string& name, Relation relation) {
  relations_.insert_or_assign(name, std::move(relation));
}

Result<const Relation*> Catalog::GetRelation(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  return &it->second;
}

std::vector<std::string> Catalog::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, relation] : relations_) names.push_back(name);
  return names;
}

}  // namespace rel
}  // namespace systolic
