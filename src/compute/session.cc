#include "compute/session.h"

#include "common/strings.h"
#include "sql/parser.h"

namespace scoop {

void SparkSession::RegisterTable(
    const std::string& name, std::shared_ptr<PartitionedRelation> relation) {
  tables_[ToLower(name)] = std::move(relation);
}

Result<std::shared_ptr<PartitionedRelation>> SparkSession::GetTable(
    const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return Status::NotFound("no table named " + name);
  return it->second;
}

Result<QueryOutcome> SparkSession::Sql(const std::string& query) {
  SCOOP_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSql(query));
  SCOOP_ASSIGN_OR_RETURN(auto relation, GetTable(stmt.table));
  SqlJobRunner runner(&pool_, metrics_);
  return runner.Run(stmt, relation.get());
}

Result<std::string> SparkSession::ExplainSql(const std::string& query) {
  SCOOP_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSql(query));
  SCOOP_ASSIGN_OR_RETURN(auto relation, GetTable(stmt.table));
  SCOOP_ASSIGN_OR_RETURN(auto plan,
                         PhysicalPlan::Create(stmt, relation->schema()));
  return plan->Explain();
}

}  // namespace scoop
