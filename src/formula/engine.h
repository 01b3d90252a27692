#ifndef DATASPREAD_FORMULA_ENGINE_H_
#define DATASPREAD_FORMULA_ENGINE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "formula/formula_ast.h"
#include "sheet/workbook.h"

namespace dataspread::formula {

/// Identifies a cell by sheet pointer and display position.
struct CellKey {
  Sheet* sheet = nullptr;
  int64_t row = 0;
  int64_t col = 0;
  bool operator==(const CellKey& o) const {
    return sheet == o.sheet && row == o.row && col == o.col;
  }
};

struct CellKeyHash {
  size_t operator()(const CellKey& k) const {
    size_t h = std::hash<const void*>{}(k.sheet);
    h ^= std::hash<int64_t>{}(k.row) + 0x9e3779b9 + (h << 6) + (h >> 2);
    h ^= std::hash<int64_t>{}(k.col) + 0x9e3779b9 + (h << 6) + (h >> 2);
    return h;
  }
};

/// A single-cell precedent of a formula.
struct CellDep {
  Sheet* sheet;
  int64_t row, col;
};

/// A rectangular precedent of a formula (inclusive corners).
struct RangeDep {
  Sheet* sheet;
  int64_t r0, c0, r1, c1;
  bool Contains(const Sheet* s, int64_t row, int64_t col) const {
    return s == sheet && row >= r0 && row <= r1 && col >= c0 && col <= c1;
  }
};

/// Delegate for the paper's hybrid constructs. The formula engine does not
/// know about the database; when a cell's formula is DBSQL(...) or
/// DBTABLE(...), evaluation and dependency analysis are delegated to the
/// Interface Manager through this interface.
class ExternalFormulaHandler {
 public:
  virtual ~ExternalFormulaHandler() = default;

  /// Reports the precedents of a hybrid formula (the cells/ranges referenced
  /// via RANGEVALUE/RANGETABLE inside the SQL text).
  virtual Status AnalyzeDependencies(Sheet* sheet, int64_t row, int64_t col,
                                     const FExpr& root,
                                     std::vector<CellDep>* cells,
                                     std::vector<RangeDep>* ranges) = 0;

  /// Computes (or schedules) the hybrid cell and returns the anchor value.
  virtual Value EvaluateHybrid(Sheet* sheet, int64_t row, int64_t col,
                               const FExpr& root) = 0;

  /// The hybrid formula at (sheet, row, col) was removed or replaced: the
  /// handler retires whatever it keeps for that cell (a DBSQL spill, its
  /// cached result).
  virtual void ReleaseHybrid(Sheet* sheet, int64_t row, int64_t col) = 0;
};

/// The value-at-a-time computation engine (paper §2.2/§3): compiles cell
/// formulas, tracks the dependency graph, and recomputes dirty cells in
/// topological order with cycle detection (#CYCLE!).
///
/// Recalculation entry points:
///  - RecalcDirty(): everything that is out of date;
///  - RecalcWindow(): only the dirty cells (and their dirty precedents)
///    needed to make a viewport consistent — the primitive the Compute
///    Engine's visible-first scheduling is built on (§3).
class FormulaEngine {
 public:
  explicit FormulaEngine(Workbook* workbook);
  ~FormulaEngine();

  FormulaEngine(const FormulaEngine&) = delete;
  FormulaEngine& operator=(const FormulaEngine&) = delete;

  /// Starts tracking a sheet (listens to its events). Sheets added to the
  /// workbook after construction must be attached explicitly.
  void AttachSheet(Sheet* sheet);

  void set_external_handler(ExternalFormulaHandler* handler) {
    external_handler_ = handler;
  }

  // ---- Recalculation ----

  /// Recompiles every formula cell and recomputes everything.
  Status RecalcAll();
  /// Recomputes the dirty closure in dependency order.
  Status RecalcDirty();
  /// Recomputes only the dirty cells needed for the given rectangle to be
  /// consistent. Remaining dirty cells stay queued, and so do the formulas
  /// outside the rectangle that depend on a cell it consumed.
  Status RecalcWindow(Sheet* sheet, int64_t r0, int64_t c0, int64_t r1,
                      int64_t c1);

  size_t dirty_count() const { return dirty_.size(); }
  bool IsDirty(Sheet* sheet, int64_t row, int64_t col) const {
    return dirty_.count(CellKey{sheet, row, col}) > 0;
  }
  size_t formula_count() const { return formulas_.size(); }
  uint64_t cells_evaluated() const { return cells_evaluated_; }

  /// Evaluates a formula string in the context of (sheet, row, col) without
  /// storing anything. Errors in the formula surface as error values.
  Result<Value> EvaluateImmediate(Sheet* sheet, std::string_view formula_text,
                                  int64_t row, int64_t col);

  /// Marks a cell dirty explicitly (used by the Interface Manager for the
  /// cells a binding refresh or a DBSQL spill writes). Like a sheet event,
  /// it marks only a cell that holds a formula or that something reads.
  void MarkDirty(Sheet* sheet, int64_t row, int64_t col);

  /// True when some formula reads the cell: an exact reference, or a range
  /// reference (tile bucket or overflow list) that covers it. Allocates
  /// nothing.
  bool HasDependents(const CellKey& key) const;

 private:
  struct Compiled {
    FExprPtr ast;
    std::vector<CellDep> cell_deps;
    std::vector<RangeDep> range_deps;
    bool hybrid = false;
  };

  // -- compile / decompile --
  void OnSheetEvent(Sheet* sheet, const SheetEvent& event);
  void CompileCell(Sheet* sheet, int64_t row, int64_t col,
                   const std::string& text);
  void RemoveFormula(const CellKey& key);
  void ExtractDeps(Sheet* context, const FExpr& e, Compiled* out);
  void RegisterDeps(const CellKey& key, const Compiled& compiled);
  void UnregisterDeps(const CellKey& key, const Compiled& compiled);

  // -- dependency queries --
  std::vector<CellKey> DependentsOf(const CellKey& key) const;
  /// The one dirty-mark rule: `key` enters `dirty_` only if it holds a
  /// formula or has dependents.
  void MarkDirty(const CellKey& key);

  // -- recalculation --
  /// Expands `seeds` to the full reverse-reachable closure.
  std::unordered_set<CellKey, CellKeyHash> DirtyClosure() const;
  /// Kahn's algorithm over formula cells in `target`; leftovers → #CYCLE!.
  Status RecalcSet(const std::unordered_set<CellKey, CellKeyHash>& target);
  Value EvaluateCell(const CellKey& key, const Compiled& compiled);

  // -- evaluation --
  struct EvalResult {
    Value scalar;
    bool is_range = false;
    int64_t rows = 0, cols = 0;
    std::vector<Value> grid;
  };
  EvalResult EvalNode(const FExpr& e, Sheet* context);
  Value EvalScalarNode(const FExpr& e, Sheet* context);

  // -- structural adjustment --
  void OnStructuralChange(Sheet* sheet, const SheetEvent& event);
  /// Adjusts one reference; returns false if it became invalid (#REF!).
  bool AdjustRef(CellRef* ref, Sheet* ref_sheet, Sheet* changed,
                 const SheetEvent& event) const;
  bool AdjustRangeRef(RangeRef* range, Sheet* ref_sheet, Sheet* changed,
                      const SheetEvent& event) const;
  /// Rewrites refs in an AST; returns true if anything became #REF!.
  bool AdjustAst(FExpr* e, Sheet* context, Sheet* changed,
                 const SheetEvent& event);

  /// Reverse index over range precedents. Ranges covering few 32×32 position
  /// tiles register in per-tile buckets (point lookups touch one bucket);
  /// ranges spanning many tiles go to a small linear overflow list. This
  /// keeps dependents-of-cell sublinear even with 10⁵ range formulas.
  struct RangeDepIndex {
    static constexpr int kTileBits = 5;
    static constexpr int64_t kMaxBucketTiles = 64;
    struct Entry {
      RangeDep range;
      CellKey dependent;
    };
    std::unordered_map<uint64_t, std::vector<Entry>> buckets;
    std::vector<Entry> large;

    static uint64_t TileKey(int64_t row, int64_t col) {
      return (static_cast<uint64_t>(row >> kTileBits) << 32) |
             static_cast<uint32_t>(col >> kTileBits);
    }
    void Add(const RangeDep& range, const CellKey& dependent);
    /// Removes the entries `Add(range, dependent)` created (targeted buckets).
    void Remove(const RangeDep& range, const CellKey& dependent);
    void CollectDependents(const CellKey& cell,
                           std::vector<CellKey>* out) const;
    /// True when some registered range covers `cell`.
    bool Covers(const CellKey& cell) const;
  };

  Workbook* workbook_;
  ExternalFormulaHandler* external_handler_ = nullptr;
  std::unordered_map<CellKey, Compiled, CellKeyHash> formulas_;
  std::unordered_set<CellKey, CellKeyHash> dirty_;
  // Reverse edges: precedent cell -> dependents (exact single-cell deps).
  std::unordered_map<CellKey, std::vector<CellKey>, CellKeyHash> exact_rev_;
  // Range precedents per sheet, tile-bucketed.
  std::unordered_map<Sheet*, RangeDepIndex> range_rev_;
  std::vector<std::pair<Sheet*, int>> sheet_listeners_;
  bool adjusting_ = false;  // suppress event handling during self-inflicted edits
  uint64_t cells_evaluated_ = 0;
};

}  // namespace dataspread::formula

#endif  // DATASPREAD_FORMULA_ENGINE_H_
