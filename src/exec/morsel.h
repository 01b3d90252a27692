#ifndef DATASPREAD_EXEC_MORSEL_H_
#define DATASPREAD_EXEC_MORSEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "catalog/table.h"
#include "common/result.h"
#include "exec/operators.h"
#include "exec/row_batch.h"
#include "sql/ast.h"
#include "types/value.h"

namespace dataspread {

/// Morsel-driven parallel execution for the leaf of the batch pipeline
/// (DESIGN.md §6b).
///
/// A table's display-order window is partitioned into *morsels* — spans of a
/// few batches each, cut along the table's storage slot runs so every morsel
/// is a bulk page-cursor sweep. A pool of worker threads pulls morsels from a
/// shared atomic dispenser; each worker drives its own serial
/// TableScanOp → FilterOp [→ partial aggregation] pipeline over its own
/// RowBatch and PageCursors (the pager is reader-safe per DESIGN.md §7, and
/// bound expression trees are immutable during evaluation). Workers share no
/// mutable execution state — the only cross-thread traffic is the dispenser
/// counter and per-morsel result slots each written by exactly one worker.
///
/// Determinism: morsels are dispensed in display order and results are
/// stitched back together by morsel index, so non-aggregate output order
/// equals the serial scan's. Partial aggregates carry first-seen order keys
/// and are merged smallest-key-first, reproducing the serial group order
/// (see ParallelAggregateOp).

/// One unit of parallel work: display positions [start, start+count).
struct Morsel {
  size_t index;  ///< Position in the global dispense order (determinism key).
  size_t start;  ///< First display position.
  size_t count;  ///< Rows in the morsel.
};

/// No LIMIT pushdown: scan the whole window.
inline constexpr size_t kNoLimitHint = std::numeric_limits<size_t>::max();

/// Partitions display window [start, start+count) (clipped to the table)
/// into morsels of `morsel_size` rows, aligned to the table's storage slot
/// runs: runs longer than a morsel are split at morsel_size multiples; short
/// runs accumulate until a run boundary at/after morsel_size. A sub-morsel
/// tail is absorbed into the previous morsel, so every morsel holds
/// [morsel_size, 2·morsel_size) rows except a possibly-smaller first-and-only
/// one. Morsels tile the window exactly, in display order.
std::vector<Morsel> BuildMorsels(const Table& table, size_t start,
                                 size_t count, size_t morsel_size);

/// The shared work queue: hands out morsels in index order, one atomic
/// fetch-add per claim. Close() makes all subsequent claims fail, so the
/// dispensed set is always a contiguous prefix of the morsel list — the
/// property the deterministic-concatenation and LIMIT early-stop arguments
/// rest on.
class MorselDispenser {
 public:
  explicit MorselDispenser(std::vector<Morsel> morsels)
      : morsels_(std::move(morsels)) {}

  /// Claims the next morsel; false when exhausted or closed.
  bool Next(Morsel* out) {
    size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= morsels_.size()) return false;
    *out = morsels_[i];
    return true;
  }

  /// Stops dispensing (already-claimed morsels still complete). Used for
  /// LIMIT early stop and first-error abort.
  void Close() { next_.store(morsels_.size(), std::memory_order_relaxed); }

  size_t size() const { return morsels_.size(); }

 private:
  std::vector<Morsel> morsels_;
  std::atomic<size_t> next_{0};
};

/// Morsel-parallel scan→filter leaf: materializes the (filtered) window
/// across `exec.num_threads` workers and serves it in morsel order, so the
/// output row order is byte-identical to the serial scan's. Blocking: the
/// fan-out/join runs at the first Next(). `limit_hint` (kNoLimitHint = none)
/// lets a bare LIMIT/OFFSET above stop dispensing once the completed prefix
/// holds enough rows.
class ParallelScanOp : public Operator {
 public:
  ParallelScanOp(const Table* table, size_t start, size_t count,
                 const sql::Expr* where, const ExecOptions& exec,
                 size_t limit_hint);
  Status Open() override;
  Result<bool> Next(Row* out) override;
  Result<bool> Next(RowBatch* out) override;

  /// Column pruning for the workers' scans (TableScanOp::SetColumns).
  void SetColumns(std::vector<size_t> columns) { columns_ = std::move(columns); }

 private:
  Status Build();

  const Table* table_;
  size_t start_, count_;
  const sql::Expr* where_;  // may be null (no filter)
  ExecOptions exec_;
  size_t limit_hint_;
  size_t num_columns_;
  std::vector<size_t> columns_;  // read by the workers' scans
  bool built_ = false;
  std::vector<Row> rows_;  // morsel-order concatenation
  size_t index_ = 0;
};

/// Morsel-parallel scan→filter→aggregate leaf: each worker folds its
/// morsels into a private AggregateFold (the same batch fold as the serial
/// HashAggregateOp), then partial groups are merged single-threaded and
/// finalized through the shared FinalizeAggregateGroups tail. Every group
/// carries a first-seen order key (morsel index, live row within the
/// morsel); merging keeps the smallest key's first_row and lets the earlier
/// partial win MIN/MAX compare-equal ties, so the merged group order and
/// contents match the serial operator's.
class ParallelAggregateOp : public Operator {
 public:
  ParallelAggregateOp(const Table* table, size_t start, size_t count,
                      const sql::Expr* where,
                      std::vector<const sql::Expr*> group_exprs,
                      std::vector<sql::Expr*> agg_calls,
                      std::vector<const sql::Expr*> output_exprs,
                      const sql::Expr* having, const ExecOptions& exec);
  Status Open() override;
  Result<bool> Next(Row* out) override;
  Result<bool> Next(RowBatch* out) override;

  /// Column pruning for the workers' scans (TableScanOp::SetColumns).
  void SetColumns(std::vector<size_t> columns) { columns_ = std::move(columns); }

 private:
  Status Build();

  const Table* table_;
  size_t start_, count_;
  const sql::Expr* where_;  // may be null
  std::vector<const sql::Expr*> group_exprs_;
  std::vector<sql::Expr*> agg_calls_;
  std::vector<const sql::Expr*> output_exprs_;
  const sql::Expr* having_;
  ExecOptions exec_;
  std::vector<size_t> columns_;  // read by the workers' scans
  bool built_ = false;
  std::vector<Row> results_;
  size_t index_ = 0;
};

}  // namespace dataspread

#endif  // DATASPREAD_EXEC_MORSEL_H_
