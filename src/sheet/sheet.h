#ifndef DATASPREAD_SHEET_SHEET_H_
#define DATASPREAD_SHEET_SHEET_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "index/grid_index.h"
#include "index/positional_index.h"
#include "types/value.h"

namespace dataspread {

/// One spreadsheet cell: a dynamic value plus (optionally) the formula text
/// that produced it. Compiled formula state lives in the formula engine, not
/// here — the sheet is pure Interface Storage.
struct Cell {
  Value value;
  std::string formula;  // original text incl. '=' for formula cells, else ""
  bool has_formula() const { return !formula.empty(); }
  bool empty() const { return value.is_null() && formula.empty(); }
};

/// Mutation events published to the formula engine, bindings, and the window
/// manager.
struct SheetEvent {
  enum class Kind {
    kCellChanged,   ///< cell at (row, col) set or cleared
    kRowsInserted,  ///< `count` rows inserted before position `index`
    kRowsDeleted,   ///< `count` rows removed starting at position `index`
    kColsInserted,
    kColsDeleted,
  };
  Kind kind;
  int64_t row = 0, col = 0;   // kCellChanged
  int64_t index = 0, count = 0;  // structural events
  bool has_formula = false;   // kCellChanged: the cell now holds a formula
};

/// The paper's Interface Storage Manager (§3): schema-less interface data
/// "stored as a collection of cells ... grouped by proximity into data blocks
/// ... indexed by a two-dimensional indexing method".
///
/// Cells live in 32×32 tiles addressed through a GridIndex directory. Row and
/// column *positions* are indirected through positional indexes, so inserting
/// or deleting rows/columns is O(log n) — no cell is re-keyed (cells are keyed
/// by stable axis ids). Reference adjustment in formulas is the formula
/// engine's job; the sheet only reports the structural event.
class Sheet {
 public:
  /// Sheets auto-grow: addressing a cell beyond the current extent extends
  /// the axes. `initial_rows`/`initial_cols` pre-size the axes.
  explicit Sheet(std::string name, int64_t initial_rows = 128,
                 int64_t initial_cols = 32);

  const std::string& name() const { return name_; }
  int64_t num_rows() const { return static_cast<int64_t>(row_axis_.size()); }
  int64_t num_cols() const { return static_cast<int64_t>(col_axis_.size()); }
  /// Number of non-empty cells.
  size_t cell_count() const { return cell_count_; }

  // ---- Cell access by display position (0-based) ----

  /// Cell at (row, col), or nullptr when empty / out of range.
  const Cell* GetCell(int64_t row, int64_t col) const;
  /// Displayed value; NULL for empty cells.
  Value GetValue(int64_t row, int64_t col) const;

  /// Sets a plain value (clears any formula).
  Status SetValue(int64_t row, int64_t col, Value v);
  /// Stores formula text; the engine computes and writes the value via
  /// SetComputedValue. `formula` must start with '='.
  Status SetFormula(int64_t row, int64_t col, std::string formula);
  /// Writes a computed result without touching the stored formula text.
  Status SetComputedValue(int64_t row, int64_t col, Value v);
  /// Rewrites the stored formula text without emitting an event; used by the
  /// formula engine when structural edits shift references ("=A5" → "=A6").
  Status ReplaceFormulaText(int64_t row, int64_t col, std::string formula);
  /// Empties the cell.
  Status ClearCell(int64_t row, int64_t col);

  // ---- Structural operations ----

  Status InsertRows(int64_t before, int64_t count);
  Status DeleteRows(int64_t first, int64_t count);
  Status InsertCols(int64_t before, int64_t count);
  Status DeleteCols(int64_t first, int64_t count);

  // ---- Bulk/range access ----

  /// Visits occupied cells in [r0,r1]×[c0,c1] (inclusive, clipped).
  void VisitRange(int64_t r0, int64_t c0, int64_t r1, int64_t c1,
                  const std::function<void(int64_t, int64_t, const Cell&)>& fn)
      const;

  /// (max occupied row + 1, max occupied col + 1); (0,0) when empty.
  std::pair<int64_t, int64_t> UsedExtent() const;

  // ---- Events ----

  using Listener = std::function<void(const SheetEvent&)>;
  int AddListener(Listener listener);
  void RemoveListener(int token);

 private:
  struct Tile {
    std::unordered_map<uint16_t, Cell> cells;  // key: row_off*32 + col_off
  };

  static uint64_t PackIds(uint64_t rid, uint64_t cid) {
    return (rid << 32) | cid;
  }

  /// Grows axes so (row, col) is addressable.
  Status EnsureSize(int64_t row, int64_t col);
  /// Axis ids for a position (must be in range).
  Result<std::pair<uint64_t, uint64_t>> IdsAt(int64_t row, int64_t col) const;
  Cell* FindCellById(uint64_t rid, uint64_t cid);
  const Cell* FindCellById(uint64_t rid, uint64_t cid) const;
  /// Writes a cell (creating tile as needed) and maintains occupancy.
  void StoreCell(uint64_t rid, uint64_t cid, Cell cell);
  /// Erases a cell if present and maintains occupancy.
  void EraseCell(uint64_t rid, uint64_t cid);
  void Notify(const SheetEvent& event);
  /// Deletes every cell whose row id (axis=true) / col id (axis=false) is in
  /// `ids`.
  void DropCellsForIds(const std::vector<uint64_t>& ids, bool axis_is_row);

  std::string name_;
  PositionalIndex row_axis_;  // position -> row id
  PositionalIndex col_axis_;  // position -> col id
  uint64_t next_row_id_ = 0;
  uint64_t next_col_id_ = 0;
  GridIndex tile_directory_;            // (rid/32, cid/32) -> slot in tiles_
  std::vector<Tile> tiles_;
  std::unordered_map<uint64_t, uint32_t> row_occupancy_;  // rid -> #cells
  std::unordered_map<uint64_t, uint32_t> col_occupancy_;  // cid -> #cells
  size_t cell_count_ = 0;
  int next_listener_token_ = 1;
  std::vector<std::pair<int, Listener>> listeners_;
};

}  // namespace dataspread

#endif  // DATASPREAD_SHEET_SHEET_H_
