#ifndef DATASPREAD_EXEC_EXPR_EVAL_H_
#define DATASPREAD_EXEC_EXPR_EVAL_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "exec/row_batch.h"
#include "sql/ast.h"
#include "types/value.h"

namespace dataspread {

/// Evaluates a *bound* expression over one input row.
///
/// `agg_values`, when non-null, supplies the finalized value for each
/// aggregate call site (indexed by Expr::aggregate_index); this is how
/// post-aggregation expressions like `AVG(g) + 1` are computed.
///
/// SQL NULL semantics: arithmetic and comparisons propagate NULL; AND/OR use
/// three-valued logic (represented by a NULL Value).
Result<Value> EvalScalar(const sql::Expr& e, const Row* input,
                         const std::vector<Value>* agg_values = nullptr);

/// WHERE/HAVING acceptance: true iff the expression evaluates to TRUE
/// (NULL and FALSE both reject).
Result<bool> EvalPredicate(const sql::Expr& e, const Row* input,
                           const std::vector<Value>* agg_values = nullptr);

/// Vectorized evaluation: computes `e` for every position listed in `active`
/// over `batch`, writing each result into `(*out)[pos]` (`out` is resized to
/// batch.size(); positions outside `active` are NULL). Operator codes and
/// arity checks resolve once per node per batch instead of once per row —
/// the core of the batch pipeline's expression win.
///
/// Semantics are shared with EvalScalar through common per-value kernels,
/// including lazy evaluation: AND/OR right sides, CASE branches, and IN-list
/// items are evaluated only at the positions the scalar evaluator would
/// reach them, so data-dependent errors (e.g. `x <> 0 AND 1/x > 2`) surface
/// for exactly the same inputs. Aggregate call sites are rejected (batches
/// only flow below the aggregation boundary).
Status EvalScalarBatch(const sql::Expr& e, const RowBatch& batch,
                       const std::vector<uint32_t>& active,
                       std::vector<Value>* out);

/// Vectorized WHERE/HAVING/ON acceptance: appends to `passing` the subset of
/// `active` positions where `e` evaluates to TRUE (NULL and FALSE reject).
/// Comparisons over typed columns, and AND/OR/NOT of them, run as typed
/// kernels (DESIGN.md §6b "Batch layout"); every other shape goes through
/// EvalScalarBatch, with identical results and errors.
Status EvalPredicateBatch(const sql::Expr& e, const RowBatch& batch,
                          const std::vector<uint32_t>& active,
                          std::vector<uint32_t>* passing);

/// Folds constant subtrees of a *bound* expression into literals, in place.
/// A subtree folds only when it is pure (no column refs, range values, or
/// aggregate calls) and its evaluation succeeds — an erroring constant
/// (e.g. `1/0` inside a CASE branch that may never be taken) is left for
/// runtime so error behavior is position-exact. Planner calls this after
/// binding.
void FoldConstants(sql::Expr* e);

/// SQL LIKE with `%` (any run) and `_` (any single character).
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace dataspread

#endif  // DATASPREAD_EXEC_EXPR_EVAL_H_
