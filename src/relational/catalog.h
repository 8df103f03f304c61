#ifndef SYSTOLIC_RELATIONAL_CATALOG_H_
#define SYSTOLIC_RELATIONAL_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "relational/domain.h"
#include "relational/relation.h"
#include "util/result.h"

namespace systolic {
namespace rel {

/// A tiny in-memory catalog: named domains and named relations.
///
/// The catalog is the single owner of Domain objects in an application, so
/// that two relations which should be union-compatible share the same Domain
/// instance (§2.4). Examples and the integrated system (§9) use it as the
/// "memories" side of the machine.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers a new domain; AlreadyExists if the name is taken.
  Result<std::shared_ptr<Domain>> CreateDomain(const std::string& name,
                                               ValueType type);

  /// Fetches a registered domain by name.
  Result<std::shared_ptr<Domain>> GetDomain(const std::string& name) const;

  /// Stores `relation` under `name`, replacing any previous relation.
  void PutRelation(const std::string& name, Relation relation);

  /// Fetches a stored relation by name.
  Result<const Relation*> GetRelation(const std::string& name) const;

  /// Names of all stored relations, sorted.
  std::vector<std::string> RelationNames() const;

 private:
  std::map<std::string, std::shared_ptr<Domain>> domains_;
  std::map<std::string, Relation> relations_;
};

}  // namespace rel
}  // namespace systolic

#endif  // SYSTOLIC_RELATIONAL_CATALOG_H_
