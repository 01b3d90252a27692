#ifndef DATASPREAD_EXEC_PLANNER_H_
#define DATASPREAD_EXEC_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "exec/aggregates.h"
#include "exec/binder.h"
#include "exec/operators.h"
#include "exec/resolver.h"
#include "exec/result_set.h"
#include "sql/ast.h"

namespace dataspread {

/// An executable SELECT: the operator tree plus output metadata. Operators
/// reference expression nodes owned either by the statement AST (which must
/// outlive execution) or by `owned_exprs` (expressions the planner
/// synthesized, e.g. star expansions).
struct PlannedQuery {
  OperatorPtr root;
  std::vector<std::string> columns;
  std::vector<sql::ExprPtr> owned_exprs;
};

/// Plans a SELECT. Binds expressions in place (mutating `stmt`) and folds
/// constant subexpressions once at plan time (after ORDER BY resolution, so
/// textual output-column matching sees the original spelling).
///
/// Planner decisions (DESIGN.md §6a):
///  - equi-join conditions on column references become hash joins when every
///    key pair's declared types compare without raising; everything else
///    (a numeric key against a TEXT key included) runs as a (left-outer)
///    nested loop over the ON condition. RANGETABLE columns are untyped, so
///    their keys always hash, and a mixed-type pair there matches nothing;
///  - NATURAL JOIN hash-joins on the shared column names and hides the
///    right-hand duplicates from `SELECT *`; a shared pair of numeric and
///    TEXT columns is a plan-time TypeError naming the column;
///  - with joins, a WHERE none of whose conjuncts can raise (typed column
///    against a literal or a typed column, IS [NOT] NULL, AND) is split on
///    AND, and each conjunct filters at the lowest point of the left-deep
///    join chain whose columns it reads, never below a nested-loop ON; any
///    other WHERE runs whole above the joins;
///  - ORDER BY under a LIMIT with no DISTINCT between them becomes a top-K
///    sort keeping LIMIT + OFFSET rows;
///  - a bare `SELECT ... FROM t LIMIT n OFFSET k` (no predicates or ordering)
///    pushes the window straight into the positional-index scan — the
///    interface-aware pane fetch of paper §2.2 ("the burden of supplying or
///    refreshing the current window is placed on the relational database");
///  - a single-table `WHERE <pk> = <literal>` (MatchKeyEquality) reads from a
///    KeyLookupOp leaf — the primary-key index — instead of a scan, ahead of
///    the morsel-parallel leaf.
///
/// Every operator reads only the columns read above it (column pruning):
/// the first source's scan, each hash join's copy-out and build table, and
/// each build side's scan (keys plus live columns).
///
/// `exec` shapes execution: the batch size every operator fills to, and the
/// morsel-parallel leaf's worker count and morsel size.
/// With `groups` set, an aggregate query's operator hands its folded groups
/// (first-seen order, before HAVING) to `*groups` when it has built them.
/// With `join_builds` set, batch hash joins count their builds there and
/// reuse the build of a catalog table whose version has not moved
/// (DESIGN.md §6a "Build reuse").
Result<PlannedQuery> PlanSelect(sql::SelectStmt* stmt, Catalog& catalog,
                                ExternalResolver* resolver,
                                const ExecOptions& exec = {},
                                std::vector<AggGroup>* groups = nullptr,
                                JoinBuildCache* join_builds = nullptr);

/// Plans, executes, and materializes a SELECT into a ResultSet, pulling the
/// plan in batches of EffectiveBatchSize(exec) tuples. `groups` and
/// `join_builds` as for PlanSelect.
Result<ResultSet> RunSelect(sql::SelectStmt* stmt, Catalog& catalog,
                            ExternalResolver* resolver,
                            const ExecOptions& exec = {},
                            std::vector<AggGroup>* groups = nullptr,
                            JoinBuildCache* join_builds = nullptr);

/// What a maintained DBSQL result keeps of the execution that seeded it
/// (Database::Execute's optional out-param, DESIGN.md §6c): the executed
/// statement, bound and folded — the aggregate states and the output
/// expressions point into it — and an aggregate query's folded groups.
struct SelectCapture {
  std::unique_ptr<sql::SelectStmt> stmt;
  std::vector<AggGroup> groups;
};

/// Marks every input column `e` (may be null) reads: its bound column
/// references below `used->size()`.
void MarkColumns(const sql::Expr* e, std::vector<bool>* used);

/// True when evaluating the bound, folded `e` can never raise, by shape: a
/// comparison between a typed column and a literal, or between two typed
/// columns, whose types do not mix numeric with TEXT (the catalog coerces
/// every stored value to its column's declared type), IS [NOT] NULL of a
/// typed column, or an AND of those.
bool CannotRaise(const sql::Expr& e, const Scope& scope);

}  // namespace dataspread

#endif  // DATASPREAD_EXEC_PLANNER_H_
