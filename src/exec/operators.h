#ifndef DATASPREAD_EXEC_OPERATORS_H_
#define DATASPREAD_EXEC_OPERATORS_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "catalog/table.h"
#include "common/result.h"
#include "exec/aggregates.h"
#include "exec/join_build.h"
#include "exec/row_batch.h"
#include "sql/ast.h"
#include "types/value.h"

namespace dataspread {

/// Pull operator over column-major batches (the one execution contract).
///
/// Open() prepares state; each Next() fills `out` (column-major, up to
/// out->capacity() tuples, possibly with a selection vector) and returns
/// true iff the batch holds at least one live tuple. Blocking operators
/// (joins' build sides, sort, aggregate) drain their children at the first
/// Next(), with batches of the caller's capacity.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;
  virtual Result<bool> Next(RowBatch* out) = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Ordered scan over a catalog table (display order). `start`/`count`
/// implement the interface-aware LIMIT/OFFSET pushdown: a pane fetch reads
/// exactly the window's tuples (paper §2.2 "Window").
///
/// The scan fills the batch's columns straight from storage: one
/// Table::GatherWindow per batch (one GatherRows page-cursor sweep per
/// touched file), each read column typed by its declared type (DESIGN.md
/// §6b "Batch layout"), so a tuple costs one native copy per *read* column
/// from the pinned page into the batch — no intermediate Row, no per-row
/// callback. SetColumns() narrows the read to the columns the plan above
/// references (planner column pruning); every other column is absent and
/// reads as NULL, so MaterializeRow, DISTINCT, and the join emit path stay
/// valid.
class TableScanOp : public Operator {
 public:
  TableScanOp(const Table* table, size_t start, size_t count);
  Status Open() override;
  Result<bool> Next(RowBatch* out) override;

  /// Re-targets the scan to display window [start, start+count) and rewinds
  /// it — the morsel-parallel path re-aims one scan per morsel instead of
  /// constructing an operator chain per morsel (src/exec/morsel.cc).
  void SetWindow(size_t start, size_t count);

  /// Restricts the scan to the listed columns (ascending, each below
  /// the table's column count); the others are absent. Default: all.
  void SetColumns(std::vector<size_t> columns);

 private:
  const Table* table_;
  size_t start_, remaining_, next_pos_ = 0;
  std::vector<size_t> columns_;  // the columns read
  std::vector<ColumnVector*> column_out_;
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
  Result<bool> Next(RowBatch* out) override;

 private:
  const Table* table_;
  Value key_;
  Row row_;
  bool pending_ = false;  // row_ found and not yet emitted
};

/// Scan over materialized rows (RANGETABLE contents, join build sides, ...).
/// It moves values out of the shared vector into batch columns
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
  Result<bool> Next(RowBatch* out) override;

 private:
  std::shared_ptr<std::vector<Row>> rows_;
  size_t index_ = 0;
};

/// Emits input rows for which the (bound) predicate is TRUE. It narrows the child batch's selection vector in place — no tuple is copied.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, const sql::Expr* predicate)
      : child_(std::move(child)), predicate_(predicate) {}
  Status Open() override { return child_->Open(); }
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
  Result<bool> Next(RowBatch* out) override;

 private:
  OperatorPtr child_;
  std::vector<const sql::Expr*> exprs_;
  RowBatch input_;
  std::vector<uint32_t> scratch_positions_;
};

/// Nested-loop join; supports CROSS (no condition), INNER, and LEFT OUTER.
/// The right input is materialized at the first Next(). The join condition
/// is evaluated vectorized: for each left tuple it builds a
/// combined batch (left values broadcast against a chunk of right tuples)
/// and filters it with one EvalPredicateBatch call.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, const sql::Expr* on,
                   bool left_outer, size_t right_width);
  Status Open() override;
  Result<bool> Next(RowBatch* out) override;

 private:
  Status BuildRight(size_t batch_size);
  /// Pulls the next live left tuple of the child batch into left_row_.
  /// Returns false at end of the left stream.
  Result<bool> AdvanceLeft();

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
  RowBatch left_batch_;
  std::vector<uint32_t> left_positions_;
  size_t left_cursor_ = 0;  // index into left_positions_
  RowBatch combined_;
  std::vector<uint32_t> combined_positions_, passing_;
};

/// Equi hash join on column offsets. INNER or LEFT OUTER; a NULL key never
/// joins. The planner takes this path only when every key pair's declared
/// types compare without raising (DESIGN.md §6a), so a probe cannot fail.
///
/// The join probes an immutable JoinBuild (exec/join_build.h), made
/// from the right input at the first Next() — or, given a cache and the
/// catalog table the right input scans, reused from an earlier execution
/// while that table's version is unchanged. The probe reads each left key
/// in place from the left batch's column and emits (left position, build
/// index) pairs, which are then copied out column by column: the left
/// batch's columns at the position (moved, on a position's last pair) and
/// the build columns at the index. SetColumns() narrows that copy to the
/// columns read above the join — the rest are absent, as
/// TableScanOp::SetColumns leaves them — and the build stores only the
/// live right columns, typed as the right input's columns are. A chain
/// longer than the room left in the output batch resumes mid-chain on the
/// next call, so batches never exceed capacity.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right, std::vector<int> left_keys,
             std::vector<int> right_keys, bool left_outer, size_t right_width,
             JoinBuildCache* cache = nullptr, const Table* right_table = nullptr);
  Status Open() override;
  Result<bool> Next(RowBatch* out) override;

  /// Marks the left and right columns read above the join (empty = all);
  /// the join copies only those and leaves the others absent.
  void SetColumns(std::vector<bool> left_live, std::vector<bool> right_live);

 private:
  static constexpr uint32_t kNoMatch = JoinBuild::kNoMatch;
  /// One output tuple: left batch position and build index (kNoMatch for a
  /// NULL-extended LEFT JOIN tuple). `last` marks the position's final pair.
  struct Pair {
    uint32_t left, right;
    bool last;
  };

  bool RightLive(size_t c) const {
    return right_live_.empty() || right_live_[c];
  }
  /// Drains the right input into a new build table.
  Result<std::shared_ptr<JoinBuild>> Build(size_t batch_size);
  /// First build index whose key equals the key at left batch position
  /// `pos`, or kNoMatch.
  uint32_t ProbeChain(uint32_t pos);
  /// Appends the pending pairs to `out` column-wise and clears them.
  void FlushPairs(RowBatch* out);

  OperatorPtr left_, right_;
  std::vector<int> left_keys_, right_keys_;
  bool left_outer_;
  size_t right_width_;
  JoinBuildCache* cache_;
  const Table* right_table_;  // null: the right input is not a table scan
  std::vector<bool> left_live_, right_live_;
  bool built_ = false;
  bool left_matched_ = false;  // the current left tuple has joined
  // The build table and the probe cursor.
  std::shared_ptr<const JoinBuild> table_;
  Row probe_key_;
  RowBatch left_batch_;
  std::vector<uint32_t> left_positions_;
  size_t left_cursor_ = 0;  // index into left_positions_
  bool probed_ = false;     // chain_ holds the cursor position's matches
  uint32_t chain_ = kNoMatch;
  std::vector<Pair> pairs_;
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
/// The build is the shared AggregateFold (exec/aggregates.h): group
/// keys and aggregate arguments are computed once per batch and each
/// aggregate folds its argument column.
class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(OperatorPtr child, std::vector<const sql::Expr*> group_exprs,
                  std::vector<sql::Expr*> agg_calls,
                  std::vector<const sql::Expr*> output_exprs,
                  const sql::Expr* having);
  Status Open() override;
  Result<bool> Next(RowBatch* out) override;

  /// After the build, the folded groups (first-seen order, before HAVING)
  /// are moved into `*sink` — the seed of a maintained result (DESIGN.md
  /// §6c).
  void set_group_sink(std::vector<AggGroup>* sink) { group_sink_ = sink; }

 private:
  Status Build(size_t batch_size);

  OperatorPtr child_;
  std::vector<const sql::Expr*> group_exprs_;
  std::vector<sql::Expr*> agg_calls_;
  std::vector<const sql::Expr*> output_exprs_;
  const sql::Expr* having_;
  std::vector<AggGroup>* group_sink_ = nullptr;
  bool built_ = false;
  std::vector<Row> results_;
  size_t index_ = 0;
  RowBatch input_;
};

/// Blocking sort. Keys are expressions over the child's rows; the build
/// computes key tuples vectorized per input batch.
///
/// With `keep` set (the planner passes LIMIT + OFFSET when a LIMIT sits
/// above the sort and no DISTINCT between them), the sort is a top-K
/// sort: a bounded max-heap ordered by (keys, arrival sequence) holds the
/// `keep` best rows seen so far. A later row ties with a kept one only to
/// lose on arrival, so the heap keeps exactly the stable sort's first `keep`
/// rows, ties included. A row that does not beat the heap's worst entry is
/// compared in place and never moved out of its batch; a key that is a
/// plain column reference is compared on the typed column itself, so only
/// a row entering the heap is materialized. Every row's keys are
/// still evaluated, so key errors surface as in the full sort.
class SortOp : public Operator {
 public:
  struct Key {
    const sql::Expr* expr;
    bool descending;
  };
  static constexpr size_t kKeepAll = SIZE_MAX;
  SortOp(OperatorPtr child, std::vector<Key> keys, size_t keep = kKeepAll)
      : child_(std::move(child)), keys_(std::move(keys)), keep_(keep) {}
  Status Open() override;
  Result<bool> Next(RowBatch* out) override;

 private:
  Status Build(size_t batch_size);
  Status SortCollected(std::vector<Row> keys);
  /// Orders two key tuples as the output does: <0 when `a` sorts first.
  int CompareKeys(const Row& a, const Row& b) const;

  OperatorPtr child_;
  std::vector<Key> keys_;
  size_t keep_;
  bool built_ = false;
  std::vector<Row> rows_;
  size_t index_ = 0;
  RowBatch input_;
};

/// OFFSET/LIMIT. The offset rows are skipped by narrowing (or dropping)
/// the first batches' selections.
class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, int64_t limit, int64_t offset)
      : child_(std::move(child)), limit_(limit), offset_(offset) {}
  Status Open() override;
  Result<bool> Next(RowBatch* out) override;

 private:
  OperatorPtr child_;
  int64_t limit_;   // -1 = unlimited
  int64_t offset_;
  int64_t emitted_ = 0;
  int64_t to_skip_ = 0;  // offset rows not yet dropped
};

/// Row-level DISTINCT: narrows each batch's selection to first occurrences.
class DistinctOp : public Operator {
 public:
  explicit DistinctOp(OperatorPtr child) : child_(std::move(child)) {}
  Status Open() override {
    seen_.clear();
    return child_->Open();
  }
  Result<bool> Next(RowBatch* out) override;

 private:
  OperatorPtr child_;
  std::unordered_map<Row, bool, RowHash, RowEq> seen_;
  std::vector<uint32_t> scratch_positions_;
};

/// Drains an operator tree into a vector through the batch contract with
/// batches of `batch_size` tuples.
Result<std::vector<Row>> MaterializeBatched(Operator* op, size_t batch_size);

}  // namespace dataspread

#endif  // DATASPREAD_EXEC_OPERATORS_H_
