#ifndef DATASPREAD_EXEC_AGGREGATES_H_
#define DATASPREAD_EXEC_AGGREGATES_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "exec/row_batch.h"
#include "sql/ast.h"
#include "types/column_vector.h"
#include "types/value.h"

namespace dataspread {

/// Finds every aggregate call site in `e` (depth-first), assigns each a dense
/// `aggregate_index`, and appends the node pointers to `calls`. Call sites
/// that already carry an index (shared subtrees) keep it.
void CollectAggregates(sql::Expr* e, std::vector<sql::Expr*>* calls);

/// Running state of one aggregate call over one group. The call's function
/// name is resolved to an opcode once, at construction, so folding a value
/// is a switch rather than string compares.
class AggState {
 public:
  /// `call` must outlive the state (it lives in the statement AST).
  explicit AggState(const sql::Expr* call);

  /// True when the call consumes an argument value per row; false only for
  /// COUNT(*), which counts rows without evaluating anything.
  bool needs_arg() const { return op_ != Op::kCountStar; }

  /// Folds one precomputed argument value into the state. For COUNT(*)
  /// (needs_arg() false) call UpdateStar() instead.
  Status UpdateValue(const Value& v);
  void UpdateStar() { ++count_; }
  /// UpdateValue of a non-NULL INT or REAL read from a typed column: the
  /// same state, with no Value built for COUNT, SUM and AVG. Only for a
  /// known() call that needs_arg().
  void UpdateInt(int64_t v) {
    if (op_ != Op::kSum && op_ != Op::kAvg && op_ != Op::kCount) {
      (void)UpdateValue(Value::Int(v));  // MIN / MAX: cannot fail
      return;
    }
    ++count_;
    if (op_ == Op::kCount) return;
    if (is_real_) {
      sum_real_ += static_cast<double>(v);
    } else {
      sum_int_ += v;
    }
  }
  void UpdateReal(double v) {
    if (op_ != Op::kSum && op_ != Op::kAvg && op_ != Op::kCount) {
      (void)UpdateValue(Value::Real(v));  // MIN / MAX: cannot fail
      return;
    }
    ++count_;
    if (op_ == Op::kCount) return;
    if (!is_real_) {
      sum_real_ = static_cast<double>(sum_int_);
      is_real_ = true;
    }
    sum_real_ += v;
  }
  /// False for a call name no opcode matches (UpdateValue reports it).
  bool known() const { return op_ != Op::kUnknown; }

  /// Takes back one value an earlier UpdateValue folded in — the retraction
  /// a maintained result applies for a deleted or updated row (DESIGN.md
  /// §6c). Returns false, leaving the state unusable, when the state cannot
  /// say what it would hold without `v`: a SUM or AVG that folded a REAL
  /// (floating-point addition does not undo exactly), or a MIN/MAX whose
  /// current extreme compares equal to `v` (the next extreme is unknown).
  /// The caller then recomputes from the data. For COUNT(*) call
  /// RetractStar() instead.
  bool Retract(const Value& v);
  void RetractStar() { --count_; }

  /// Folds another partial state for the same call into this one — the
  /// morsel-parallel merge (DESIGN.md §6b). `this` must cover the earlier
  /// display-order rows: ties (MIN/MAX compare-equal extremes) keep this
  /// state's value, matching what serial row-order folding would have kept.
  void Merge(const AggState& other);

  /// Final value: COUNT → INT; SUM → INT/REAL (NULL on empty); AVG → REAL
  /// (NULL on empty); MIN/MAX → input type (NULL on empty). INTEGER sums
  /// accumulate exactly in 128 bits, so every fold, merge and retraction
  /// order reaches the same total; a SUM whose total does not fit INTEGER
  /// is OutOfRange.
  Result<Value> Finalize() const;

 private:
  enum class Op : uint8_t {
    kCount,
    kCountStar,
    kSum,
    kAvg,
    kMin,
    kMax,
    kUnknown
  };

  /// True when `v` should replace the running MIN/MAX (strict, so
  /// compare-equal later values never win).
  bool Improves(const Value& v) const;

  const sql::Expr* call_;
  Op op_;
  int64_t count_ = 0;        // non-null inputs (or all rows for COUNT(*))
  bool is_real_ = false;
  __extension__ __int128 sum_int_ = 0;  // exact: cannot overflow in 2^64 adds
  double sum_real_ = 0.0;
  bool has_extreme_ = false;
  Value extreme_;            // running MIN or MAX
};

/// One aggregation group: its key, the first input row seen (non-aggregate
/// parts of the output expressions evaluate against it), one running state
/// per aggregate call, its first-seen order key (the morsel-parallel merge
/// sorts groups by it, DESIGN.md §6b), and the number of input rows folded
/// into it (a maintained result drops the group when it reaches 0).
struct AggGroup {
  Row key;
  Row first_row;
  std::vector<AggState> states;
  uint64_t order_key = 0;
  int64_t rows = 0;
};

/// A fresh group (empty key and first row) with one state per call.
AggGroup MakeAggGroup(const std::vector<sql::Expr*>& agg_calls);

/// The batch aggregate fold, shared by the serial HashAggregateOp and the
/// morsel-parallel workers (DESIGN.md §6b): group-by keys and aggregate
/// arguments are computed once per batch, then every live row is routed to
/// its group and every aggregate folds its argument column.
///
/// Per batch: each live row gets a group id — with no GROUP BY every row is
/// group 0 and nothing is hashed; a single key that is an INTEGER column
/// (kind kInt) is probed by int64_t; otherwise one hash probe per row on
/// the key tuple. Then each aggregate folds its argument column: an INT or
/// REAL column natively (UpdateInt/UpdateReal), any other through Values.
/// Keys and arguments that are plain column references are read from the
/// batch column in place; other expressions go through EvalScalarBatch into
/// reused scratch columns, so scratch stays bounded by the batch size.
///
/// Groups are kept in first-seen order; a group first seen at the i-th live
/// row folded (counting from the `seq` passed to Fold) gets order_key i.
class AggregateFold {
 public:
  /// The expressions must outlive the fold (they live in the statement AST).
  AggregateFold(const std::vector<const sql::Expr*>& group_exprs,
                const std::vector<sql::Expr*>& agg_calls);

  /// Folds the live rows of `batch`. `*seq` is the order key of the first
  /// live row and is advanced past the batch's live rows.
  Status Fold(const RowBatch& batch, uint64_t* seq);

  /// The groups in first-seen order. A global aggregate (no GROUP BY) over
  /// empty input has no group here; see TakeGroups.
  std::vector<AggGroup>& groups() { return groups_; }

  /// Moves the groups out, first synthesizing the single empty-input group
  /// a global aggregate still yields when nothing was folded.
  std::vector<AggGroup> TakeGroups();

 private:
  static constexpr uint32_t kNoGroup = UINT32_MAX;

  /// The values of `e` at the batch's positions: the batch column itself
  /// for a plain column reference, otherwise `scratch` filled by
  /// EvalScalarBatch at the `active` positions.
  Result<const ColumnVector*> Column(const sql::Expr& e, const RowBatch& batch,
                                     const std::vector<uint32_t>& active,
                                     ColumnVector* scratch);
  /// Appends a new group keyed `key`, first seen at position `p`.
  uint32_t AddGroup(Row key, const RowBatch& batch, uint32_t p,
                    uint64_t order_key);
  /// Moves the int64-keyed groups into `ids_` for good (a batch whose key
  /// column is not kInt arrived).
  void SwitchToRowKeys();

  const std::vector<const sql::Expr*>& group_exprs_;
  const std::vector<sql::Expr*>& agg_calls_;
  std::vector<AggGroup> groups_;
  std::unordered_map<Row, uint32_t, RowHash, RowEq> ids_;  // key -> group
  // A single INTEGER key: int64 key -> group, and the NULL key's group.
  bool row_keys_ = false;
  std::unordered_map<int64_t, uint32_t> int_ids_;
  uint32_t null_group_ = kNoGroup;
  // Per-batch scratch, reused across batches.
  std::vector<uint32_t> positions_;
  std::vector<uint32_t> group_ids_;  // group of the i-th live row
  std::vector<const ColumnVector*> key_cols_;
  std::vector<ColumnVector> key_scratch_, arg_scratch_;
  Row key_;
};

}  // namespace dataspread

#endif  // DATASPREAD_EXEC_AGGREGATES_H_
