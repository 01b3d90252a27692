#ifndef DATASPREAD_CORE_BINDING_H_
#define DATASPREAD_CORE_BINDING_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/table.h"
#include "common/result.h"
#include "db/database.h"
#include "sheet/sheet.h"

namespace dataspread {

/// A two-way binding between a sheet region and a relational table — the unit
/// the paper's Interface Manager maintains per `DBTABLE` (§3): a *context*
/// (sheet + anchor position) plus the key↔location mapping that lets an edit
/// at a position be translated into a keyed UPDATE.
///
/// Layout: the header row (column names) sits at the anchor row; data row
/// `p` of the table displays at sheet row `anchor_row + 1 + p`. Only a
/// *window* of positions [window_start, window_start+window_count) is
/// materialized into sheet cells; the Window Manager slides it as the user
/// pans, which is how a million-row table stays responsive (paper §1).
class TableBinding {
 public:
  TableBinding(int id, Sheet* sheet, int64_t anchor_row, int64_t anchor_col,
               Table* table, Database* db, size_t default_window);

  int id() const { return id_; }
  Sheet* sheet() const { return sheet_; }
  Table* table() const { return table_; }
  int64_t anchor_row() const { return anchor_row_; }
  int64_t anchor_col() const { return anchor_col_; }
  int64_t data_row() const { return anchor_row_ + 1; }
  size_t window_start() const { return window_start_; }
  size_t window_count() const { return window_count_; }

  /// True if the sheet coordinate falls inside the bound region (header or
  /// any data position, materialized or not).
  bool ContainsCell(const Sheet* sheet, int64_t row, int64_t col) const;

  /// Hook invoked for every sheet cell the binding writes or clears. The
  /// Interface Manager routes it to FormulaEngine::MarkDirty, so a formula
  /// that reads a bound cell is recomputed even when the write happens inside
  /// a recalculation, where the engine ignores sheet events (the DBTABLE
  /// anchor's re-evaluation refreshes the window from there).
  void set_cell_written_hook(std::function<void(int64_t, int64_t)> hook) {
    cell_written_hook_ = std::move(hook);
  }

  /// Writes the header row (skipping the anchor cell itself, whose value is
  /// delivered through the formula result).
  Status WriteHeader();

  /// Slides the materialized window to positions [start, start+count). Only
  /// the positions that enter the span are read and written, and only those
  /// that leave it are cleared: the overlap is already current, because any
  /// back-end change since it was written has queued its own refresh
  /// (QueueChange).
  Status SetWindow(size_t start, size_t count);

  /// Re-reads the whole configured span from the table and rewrites it,
  /// clearing rows that fell off the end when the table shrank. This is the
  /// refresh for changes that move rows (insert, delete, schema, bulk) and
  /// for a DBTABLE re-evaluation.
  Status RefreshWindow();

  /// Records a back-end change for the next ApplyQueuedChanges. A kUpdate
  /// queues its (rid, column); any other kind asks for a full RefreshWindow,
  /// which absorbs every update queued before or after it.
  void QueueChange(const TableChange& change);

  /// The refresh task: a full RefreshWindow when one was asked for, else a
  /// rewrite of just the queued cells whose rows are materialized, each read
  /// by row id.
  Status ApplyQueuedChanges();

  /// Clears every cell the binding materialized (used on unbind).
  Status ClearMaterialized();

  /// Translates a front-end edit at (row, col) into a database mutation:
  /// data cells become keyed UPDATEs (positional when the table has no
  /// primary key); header cells become column renames.
  Status ApplyFrontEndEdit(int64_t row, int64_t col, const Value& v);

  /// Number of window refreshes performed (observability for benches).
  uint64_t refreshes() const { return refreshes_; }
  /// Data cells the binding has written and cleared (header excluded).
  uint64_t cells_written() const { return cells_written_; }
  uint64_t cells_cleared() const { return cells_cleared_; }

 private:
  /// Reads positions [start, start+count) of the current window, writes
  /// their cells and records their row ids in `rids_`.
  Status WriteRows(size_t start, size_t count);
  Status ClearRows(size_t start, size_t count);
  void WroteCell(int64_t row, int64_t col) {
    if (cell_written_hook_) cell_written_hook_(row, col);
  }

  int id_;
  Sheet* sheet_;
  int64_t anchor_row_, anchor_col_;
  Table* table_;
  Database* db_;
  size_t window_start_ = 0;
  size_t window_count_ = 0;    // rows currently materialized (clipped)
  size_t requested_count_ = 0; // configured span; grows with the table
  size_t default_window_;
  // Row ids of the materialized rows: rids_[i] displays at position
  // window_start_ + i.
  std::vector<uint64_t> rids_;
  // Back-end changes not yet applied (QueueChange).
  bool full_refresh_queued_ = false;
  std::vector<std::pair<uint64_t, size_t>> queued_updates_;  // (rid, column)
  uint64_t refreshes_ = 0;
  uint64_t cells_written_ = 0;
  uint64_t cells_cleared_ = 0;
  std::function<void(int64_t, int64_t)> cell_written_hook_;
};

}  // namespace dataspread

#endif  // DATASPREAD_CORE_BINDING_H_
