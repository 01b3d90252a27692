#ifndef DATASPREAD_EXEC_OPERATORS_H_
#define DATASPREAD_EXEC_OPERATORS_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "catalog/table.h"
#include "common/result.h"
#include "exec/aggregates.h"
#include "exec/row_batch.h"
#include "sql/ast.h"
#include "types/value.h"

namespace dataspread {

/// Pull operator with two drive modes over one tree.
///
/// Open() prepares state; then the *driver* picks exactly one contract and
/// sticks with it for the whole execution:
///   - Next(Row*): the Volcano row-at-a-time baseline — one output tuple per
///     call, false at end of stream;
///   - Next(RowBatch*): the vectorized pipeline — fills `out` (column-major,
///     up to out->capacity() tuples, possibly with a selection vector) and
///     returns true iff the batch holds at least one live tuple.
/// Operators propagate the chosen mode to their children (a batch-driven
/// aggregate drains its child in batches), so the mode decision stays at the
/// root. Blocking operators (joins' build sides, sort, aggregate, limit's
/// offset skip) defer child-draining work from Open() to the first Next() so
/// the mode is known when it happens. Mixing modes on one opened tree is
/// unsupported.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;
  virtual Result<bool> Next(Row* out) = 0;
  virtual Result<bool> Next(RowBatch* out) = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Ordered scan over a catalog table (display order). `start`/`count`
/// implement the interface-aware LIMIT/OFFSET pushdown: a pane fetch reads
/// exactly the window's tuples (paper §2.2 "Window").
///
/// The batch path fills the batch's column vectors straight from storage:
/// one Table::GatherWindow per batch (one GatherRows page-cursor sweep per
/// touched file), so a tuple costs one value copy per *read* column from the
/// pinned page into the batch — no intermediate Row, no per-row callback.
/// SetColumns() narrows the read to the columns the plan above references
/// (planner column pruning); every other column is filled with NULLs up to
/// the batch length, so each column keeps the batch's size() and
/// MaterializeRow, DISTINCT, and the join emit path stay valid. The row
/// path fetches whole-tuple GetWindow slices of `row_batch_hint` tuples (the
/// pre-vectorization behavior).
class TableScanOp : public Operator {
 public:
  TableScanOp(const Table* table, size_t start, size_t count,
              size_t row_batch_hint = kDefaultExecBatchSize);
  Status Open() override;
  Result<bool> Next(Row* out) override;
  Result<bool> Next(RowBatch* out) override;

  /// Re-targets the scan to display window [start, start+count) and rewinds
  /// it — the morsel-parallel path re-aims one scan per morsel instead of
  /// constructing an operator chain per morsel (src/exec/morsel.cc).
  void SetWindow(size_t start, size_t count);

  /// Restricts the batch path to the listed columns (ascending, each below
  /// the table's column count); the others read as NULL. Default: all.
  void SetColumns(std::vector<size_t> columns);

 private:
  const Table* table_;
  size_t start_, remaining_, next_pos_ = 0;
  size_t row_batch_hint_;
  std::vector<size_t> columns_;  // read by the batch path
  std::vector<std::vector<Value>*> column_out_;
  std::vector<Row> batch_;
  size_t batch_index_ = 0;
};

/// The key-direct leaf (DESIGN.md §6a): the one row of `table` whose primary
/// key equals `key`, or no row. The lookup runs at Open() — through the
/// table's primary-key hash index, O(1) expected — so a plan opened later
/// sees the table as it is then.
class KeyLookupOp : public Operator {
 public:
  KeyLookupOp(const Table* table, Value key)
      : table_(table), key_(std::move(key)) {}
  Status Open() override;
  Result<bool> Next(Row* out) override;
  Result<bool> Next(RowBatch* out) override;

 private:
  const Table* table_;
  Value key_;
  Row row_;
  bool pending_ = false;  // row_ found and not yet emitted
};

/// Scan over materialized rows (RANGETABLE contents, join build sides, ...).
/// The batch path moves values out of the shared vector into batch columns
/// instead of copying a Row per call; the vector's tuples must not be read
/// again after the scan (each plan materializes its own copy).
class RowsScanOp : public Operator {
 public:
  explicit RowsScanOp(std::shared_ptr<std::vector<Row>> rows)
      : rows_(std::move(rows)) {}
  Status Open() override {
    index_ = 0;
    return Status::OK();
  }
  Result<bool> Next(Row* out) override {
    if (index_ >= rows_->size()) return false;
    *out = (*rows_)[index_++];
    return true;
  }
  Result<bool> Next(RowBatch* out) override;

 private:
  std::shared_ptr<std::vector<Row>> rows_;
  size_t index_ = 0;
};

/// Emits input rows for which the (bound) predicate is TRUE. The batch path
/// narrows the child batch's selection vector in place — no tuple is copied.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, const sql::Expr* predicate)
      : child_(std::move(child)), predicate_(predicate) {}
  Status Open() override { return child_->Open(); }
  Result<bool> Next(Row* out) override;
  Result<bool> Next(RowBatch* out) override;

 private:
  OperatorPtr child_;
  const sql::Expr* predicate_;
  std::vector<uint32_t> scratch_positions_;
};

/// Evaluates one (bound) expression per output column; vectorized per batch.
class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<const sql::Expr*> exprs)
      : child_(std::move(child)), exprs_(std::move(exprs)) {}
  Status Open() override { return child_->Open(); }
  Result<bool> Next(Row* out) override;
  Result<bool> Next(RowBatch* out) override;

 private:
  OperatorPtr child_;
  std::vector<const sql::Expr*> exprs_;
  RowBatch input_;
  std::vector<uint32_t> scratch_positions_;
};

/// Nested-loop join; supports CROSS (no condition), INNER, and LEFT OUTER.
/// The right input is materialized at the first Next(). The batch path
/// evaluates the join condition vectorized: for each left tuple it builds a
/// combined batch (left values broadcast against a chunk of right tuples)
/// and filters it with one EvalPredicateBatch call.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, const sql::Expr* on,
                   bool left_outer, size_t right_width);
  Status Open() override;
  Result<bool> Next(Row* out) override;
  Result<bool> Next(RowBatch* out) override;

 private:
  Status BuildRightRows();
  Status BuildRightBatched(size_t batch_size);
  /// Pulls the next live left tuple into left_row_ (from the child batch in
  /// batch mode). Returns false at end of the left stream.
  Result<bool> AdvanceLeftBatched();

  OperatorPtr left_, right_;
  const sql::Expr* on_;  // may be null (cross join)
  bool left_outer_;
  size_t right_width_;
  bool right_built_ = false;
  std::vector<Row> right_rows_;
  Row left_row_;
  bool have_left_ = false;
  bool left_matched_ = false;
  size_t right_index_ = 0;
  // Batch-mode state.
  RowBatch left_batch_;
  std::vector<uint32_t> left_positions_;
  size_t left_cursor_ = 0;  // index into left_positions_
  RowBatch combined_;
  std::vector<uint32_t> combined_positions_, passing_;
};

/// Equi hash join on column offsets; builds a hash table over the right
/// input at the first Next(). INNER or LEFT OUTER. The batch path probes a
/// whole left batch per iteration and emits combined tuples column-wise.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right, std::vector<int> left_keys,
             std::vector<int> right_keys, bool left_outer, size_t right_width);
  Status Open() override;
  Result<bool> Next(Row* out) override;
  Result<bool> Next(RowBatch* out) override;

 private:
  Status BuildRows();
  Status BuildBatched(size_t batch_size);
  Result<bool> AdvanceLeftBatched();

  OperatorPtr left_, right_;
  std::vector<int> left_keys_, right_keys_;
  bool left_outer_;
  size_t right_width_;
  bool built_ = false;
  std::unordered_map<Row, std::vector<Row>, RowHash, RowEq> build_;
  Row left_row_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_index_ = 0;
  bool have_left_ = false;
  bool left_matched_ = false;
  // Batch-mode state.
  RowBatch left_batch_;
  std::vector<uint32_t> left_positions_;
  size_t left_cursor_ = 0;
};

/// The aggregate finalization tail, shared by the serial and parallel paths:
/// for each group (in the given order) finalizes its states, applies
/// `having` (groups failing it are dropped), and evaluates `output_exprs`
/// — aggregate call sites replaced by finalized values, everything else
/// evaluated on the group's first row — appending one row per surviving
/// group to `results`. Callers synthesize the empty-input global group
/// before calling (AggregateFold::TakeGroups).
Status FinalizeAggregateGroups(
    const std::vector<const sql::Expr*>& output_exprs, const sql::Expr* having,
    const std::vector<AggGroup>& groups, std::vector<Row>* results);

/// Blocking hash aggregation. Groups by `group_exprs`; for each group the
/// output row is `output_exprs` evaluated with aggregate call sites replaced
/// by their finalized values and non-aggregate parts evaluated on the group's
/// first input row. `having` (optional) filters groups. With no group
/// expressions, produces exactly one (possibly empty-input) global group.
/// The batch build is the shared AggregateFold (exec/aggregates.h): group
/// keys and aggregate arguments are computed once per batch and each
/// aggregate folds its argument column.
class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(OperatorPtr child, std::vector<const sql::Expr*> group_exprs,
                  std::vector<sql::Expr*> agg_calls,
                  std::vector<const sql::Expr*> output_exprs,
                  const sql::Expr* having);
  Status Open() override;
  Result<bool> Next(Row* out) override;
  Result<bool> Next(RowBatch* out) override;

 private:
  Status BuildRows();
  Status BuildBatched(size_t batch_size);

  OperatorPtr child_;
  std::vector<const sql::Expr*> group_exprs_;
  std::vector<sql::Expr*> agg_calls_;
  std::vector<const sql::Expr*> output_exprs_;
  const sql::Expr* having_;
  bool built_ = false;
  std::vector<Row> results_;
  size_t index_ = 0;
  RowBatch input_;
};

/// Blocking sort. Keys are expressions over the child's rows; the batch
/// build computes key tuples vectorized per input batch.
class SortOp : public Operator {
 public:
  struct Key {
    const sql::Expr* expr;
    bool descending;
  };
  SortOp(OperatorPtr child, std::vector<Key> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {}
  Status Open() override;
  Result<bool> Next(Row* out) override;
  Result<bool> Next(RowBatch* out) override;

 private:
  Status BuildRows();
  Status BuildBatched(size_t batch_size);
  Status SortCollected(std::vector<Row> keys);

  OperatorPtr child_;
  std::vector<Key> keys_;
  bool built_ = false;
  std::vector<Row> rows_;
  size_t index_ = 0;
  RowBatch input_;
};

/// OFFSET/LIMIT. The offset rows are skipped at the first Next() (batch mode
/// slices whole batches past the offset instead of pulling row by row).
class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, int64_t limit, int64_t offset)
      : child_(std::move(child)), limit_(limit), offset_(offset) {}
  Status Open() override;
  Result<bool> Next(Row* out) override;
  Result<bool> Next(RowBatch* out) override;

 private:
  OperatorPtr child_;
  int64_t limit_;   // -1 = unlimited
  int64_t offset_;
  int64_t emitted_ = 0;
  int64_t to_skip_ = 0;
  bool skipped_ = false;
};

/// Row-level DISTINCT. The batch path narrows the selection to first
/// occurrences.
class DistinctOp : public Operator {
 public:
  explicit DistinctOp(OperatorPtr child) : child_(std::move(child)) {}
  Status Open() override {
    seen_.clear();
    return child_->Open();
  }
  Result<bool> Next(Row* out) override;
  Result<bool> Next(RowBatch* out) override;

 private:
  OperatorPtr child_;
  std::unordered_map<Row, bool, RowHash, RowEq> seen_;
  std::vector<uint32_t> scratch_positions_;
};

/// Drains an operator tree into a vector, row at a time (the baseline path).
Result<std::vector<Row>> Materialize(Operator* op);

/// Drains an operator tree into a vector through the batch contract with
/// batches of `batch_size` tuples.
Result<std::vector<Row>> MaterializeBatched(Operator* op, size_t batch_size);

}  // namespace dataspread

#endif  // DATASPREAD_EXEC_OPERATORS_H_
