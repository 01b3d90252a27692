#ifndef DATASPREAD_EXEC_ROW_BATCH_H_
#define DATASPREAD_EXEC_ROW_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "types/column_vector.h"
#include "types/value.h"

namespace dataspread {

/// Execution-pipeline configuration, plumbed from DatabaseOptions down to the
/// planner: the batch size every operator fills to, and the morsel-parallel
/// pair below (DESIGN.md §6b).
struct ExecOptions {
  /// Tuples per RowBatch (0 = kDefaultExecBatchSize). Benches sweep this via
  /// the DS_EXEC_BATCH environment variable (bench/workloads.h).
  size_t batch_size = 0;
  /// Morsel-parallel leaf: 0 disables (serial pipeline, the default); N >= 1
  /// runs eligible scan→filter[→aggregate] leaves across N worker threads
  /// pulling morsels from a shared dispenser (src/exec/morsel.h). 1 is the
  /// dispenser-overhead baseline, not a synonym for 0. Benches sweep this
  /// via DS_EXEC_THREADS (bench/workloads.h).
  size_t num_threads = 0;
  /// Display-order rows per morsel (0 = kDefaultMorselBatches batches).
  /// Tests shrink this to force morsel-boundary edge cases.
  size_t morsel_size = 0;
};

inline constexpr size_t kDefaultExecBatchSize = 1024;
/// Default morsel span, in units of the effective batch size: a morsel is a
/// few batches so dispensing stays off the per-batch hot path while work
/// still spreads evenly across workers.
inline constexpr size_t kDefaultMorselBatches = 4;

inline size_t EffectiveBatchSize(const ExecOptions& exec) {
  return exec.batch_size == 0 ? kDefaultExecBatchSize : exec.batch_size;
}

inline size_t EffectiveMorselSize(const ExecOptions& exec) {
  return exec.morsel_size == 0 ? kDefaultMorselBatches * EffectiveBatchSize(exec)
                               : exec.morsel_size;
}

/// A batch of tuples in column-major layout plus an optional selection
/// vector — the unit of exchange of the vectorized operator pipeline.
///
/// Each column is a ColumnVector of one kind (DESIGN.md §6b "Batch
/// layout"): a table scan fills int64, double, byte or arena-TEXT columns
/// with null bitmaps, straight from the pinned pages; a column pruned by the
/// planner is kAbsent (no storage, reads as NULL); everything else —
/// RANGETABLE input, expression results, aggregate and sort output — is the
/// kValue fallback. Reset() shapes every column as kValue; typed producers
/// re-kind their columns after it.
///
/// Physical rows live at positions [0, size()). When a selection is set,
/// only the positions it lists (strictly increasing) are live; everything
/// else is dead weight a consumer-side gather drops.
/// Filters refine batches by *narrowing the selection in place* — no value
/// is copied or moved on the filter path.
///
/// Capacity is a hard target: producers fill until size() reaches capacity()
/// and then stop, resuming from the same position on the next Next() call —
/// a join mid-match-list sizes its emit chunk to the space remaining, so
/// batches never exceed capacity(). (The predicate path can still land a
/// batch *under* capacity; only full() is load-bearing for producers.)
class RowBatch {
 public:
  explicit RowBatch(size_t capacity = kDefaultExecBatchSize)
      : capacity_(capacity == 0 ? kDefaultExecBatchSize : capacity) {}

  size_t capacity() const { return capacity_; }
  void set_capacity(size_t capacity) {
    capacity_ = capacity == 0 ? kDefaultExecBatchSize : capacity;
  }

  /// Clears all rows and the selection, shaping the batch to `num_columns`
  /// kValue columns. Column storage is reused across calls.
  void Reset(size_t num_columns) {
    columns_.resize(num_columns);
    for (auto& col : columns_) col.Reset(ColumnKind::kValue);
    num_rows_ = 0;
    has_selection_ = false;
    selection_.clear();
  }

  size_t num_columns() const { return columns_.size(); }
  /// Physical row count (including unselected positions).
  size_t size() const { return num_rows_; }
  bool full() const { return num_rows_ >= capacity_; }

  ColumnVector& column(size_t c) { return columns_[c]; }
  const ColumnVector& column(size_t c) const { return columns_[c]; }

  /// Producers must call this after appending values column-wise so the row
  /// count matches the columns.
  void set_size(size_t n) { num_rows_ = n; }

  // ---- Selection ----------------------------------------------------------

  bool has_selection() const { return has_selection_; }
  const std::vector<uint32_t>& selection() const { return selection_; }
  void SetSelection(std::vector<uint32_t> sel) {
    selection_ = std::move(sel);
    has_selection_ = true;
  }

  /// Live row count: selection size when set, physical size otherwise.
  size_t ActiveSize() const {
    return has_selection_ ? selection_.size() : num_rows_;
  }

  /// The live positions as an explicit vector (the form the vectorized
  /// expression evaluator consumes). When no selection is set this
  /// materializes [0, size()) into `scratch` and returns it.
  const std::vector<uint32_t>& ActivePositions(
      std::vector<uint32_t>* scratch) const {
    if (has_selection_) return selection_;
    scratch->resize(num_rows_);
    for (size_t i = 0; i < num_rows_; ++i) {
      (*scratch)[i] = static_cast<uint32_t>(i);
    }
    return *scratch;
  }

  // ---- Row bridging -------------------------------------------------------

  /// Appends one tuple, moving the values out of `row`. The batch must be
  /// shaped (Reset) to `row.size()` columns.
  void AppendRowMove(Row&& row) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].AppendMove(std::move(row[c]));
    }
    ++num_rows_;
  }

  /// Dense Row copy of physical position `pos`.
  Row MaterializeRow(size_t pos) const {
    Row out;
    out.reserve(columns_.size());
    for (const auto& col : columns_) out.push_back(col.GetValue(pos));
    return out;
  }
  /// Dense Row moving the values out of physical position `pos` (the
  /// position must not be read again).
  Row MoveRow(size_t pos) {
    Row out;
    out.reserve(columns_.size());
    for (auto& col : columns_) out.push_back(col.TakeValue(pos));
    return out;
  }

 private:
  std::vector<ColumnVector> columns_;
  size_t num_rows_ = 0;
  size_t capacity_;
  std::vector<uint32_t> selection_;
  bool has_selection_ = false;
};

}  // namespace dataspread

#endif  // DATASPREAD_EXEC_ROW_BATCH_H_
