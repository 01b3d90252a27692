#ifndef DATASPREAD_CORE_INTERFACE_MANAGER_H_
#define DATASPREAD_CORE_INTERFACE_MANAGER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/binding.h"
#include "core/scheduler.h"
#include "core/schema_infer.h"
#include "db/database.h"
#include "formula/engine.h"
#include "sheet/workbook.h"

namespace dataspread {

/// The paper's **Interface Manager** (§3) — the component that makes the
/// database interface-aware. It owns:
///
///  - *contexts*: every displayed relational artifact (a `DBTABLE` region or
///    a `DBSQL` spill) is registered with its sheet + positional address;
///  - *positional addressing for SQL*: `RANGEVALUE`/`RANGETABLE` are resolved
///    against the sheet relative to the querying cell (SheetResolver);
///  - *two-way synchronization*: front-end edits inside bound regions become
///    keyed UPDATEs; back-end changes refresh bound regions and re-run
///    dependent `DBSQL` cells;
///  - *shared computation* (§3 Compute Engine): identical `DBSQL` queries
///    whose inputs have not changed are served from a result cache keyed by
///    resolved SQL and stamped with the referenced tables' versions. A
///    single-table aggregate result is also *maintained*: each row change
///    folds its delta into the entry's groups and restamps it, so the next
///    evaluation serves it without re-running the query (DESIGN.md §6c).
///    Each anchor owns the key of the entry it shows; an entry no anchor
///    shows is dropped, as is the spill of a cell that stops being DBSQL.
class InterfaceManager : public formula::ExternalFormulaHandler {
 public:
  InterfaceManager(Workbook* workbook, Database* db,
                   formula::FormulaEngine* engine, Scheduler* scheduler,
                   size_t default_window = 256);
  ~InterfaceManager() override;

  // ---- Figure 2b: export / import ----

  /// Creates a relational table from a sheet range with inferred schema.
  /// `key_column` (optional, case-insensitive) marks the PRIMARY KEY.
  Result<Table*> CreateTableFromRange(Sheet* sheet, const RangeRef& range,
                                      const std::string& table_name,
                                      HeaderMode mode = HeaderMode::kAuto,
                                      const std::string& key_column = "");

  /// Binds `table_name` to a region anchored at (anchor_row, anchor_col):
  /// the programmatic form of entering `=DBTABLE("name")`.
  Result<TableBinding*> BindTable(Sheet* sheet, int64_t anchor_row,
                                  int64_t anchor_col,
                                  const std::string& table_name,
                                  size_t window = 0);

  Status Unbind(int binding_id);

  /// The binding whose region contains the cell, or nullptr.
  TableBinding* FindBindingAt(const Sheet* sheet, int64_t row,
                              int64_t col) const;
  const std::vector<std::unique_ptr<TableBinding>>& bindings() const {
    return bindings_;
  }

  // ---- Two-way sync: front-end half ----

  /// Routes a user edit; returns true if the cell belonged to a binding and
  /// was translated into a database mutation.
  Result<bool> RouteFrontEndEdit(Sheet* sheet, int64_t row, int64_t col,
                                 const Value& v);

  // ---- ExternalFormulaHandler (DBSQL / DBTABLE) ----

  Status AnalyzeDependencies(Sheet* sheet, int64_t row, int64_t col,
                             const formula::FExpr& root,
                             std::vector<formula::CellDep>* cells,
                             std::vector<formula::RangeDep>* ranges) override;
  Value EvaluateHybrid(Sheet* sheet, int64_t row, int64_t col,
                       const formula::FExpr& root) override;
  void ReleaseHybrid(Sheet* sheet, int64_t row, int64_t col) override;

  /// Resolver for RANGEVALUE/RANGETABLE with `anchor_sheet` as the default
  /// sheet (may be null: only sheet-qualified references resolve).
  std::unique_ptr<ExternalResolver> MakeResolver(Sheet* anchor_sheet) const;

  // ---- Visibility probe (set by the Window Manager) ----

  using VisibilityProbe = std::function<bool(const Sheet*, int64_t, int64_t,
                                             int64_t, int64_t)>;
  void set_visibility_probe(VisibilityProbe probe) {
    visibility_probe_ = std::move(probe);
  }

  // ---- Observability ----

  uint64_t dbsql_executions() const { return dbsql_executions_; }
  uint64_t dbsql_cache_hits() const { return dbsql_cache_hits_; }
  /// Row changes folded into a maintained DBSQL result.
  uint64_t dbsql_maintained() const { return dbsql_maintained_; }
  /// Maintained results given up because a change could not be folded in
  /// (the next evaluation re-executes and reseeds).
  uint64_t dbsql_fallbacks() const { return dbsql_fallbacks_; }
  /// Live DBSQL result-cache entries: at most one per anchor.
  size_t dbsql_cache_size() const { return dbsql_cache_.size(); }
  uint64_t backend_refreshes() const { return backend_refreshes_; }

 private:
  struct MaintainedAggregate;  // interface_manager.cc
  struct DbsqlCache {
    ResultSet result;
    std::vector<std::pair<std::string, uint64_t>> table_versions;
    std::unique_ptr<MaintainedAggregate> maintained;  // null: re-executed
  };
  struct SpillExtent {
    int64_t rows = 0;
    int64_t cols = 0;
  };
  /// One DBSQL cell: the cache entry it shows, the tables it is registered
  /// under in `anchors_by_table_`, and its current spill.
  struct DbsqlAnchor {
    std::string cache_key;  // empty: shows no entry
    std::vector<std::string> tables;
    SpillExtent spill;
  };

  void OnTableChanged(const std::string& table_name, const TableChange& change);
  Value EvaluateDbsql(Sheet* sheet, int64_t row, int64_t col,
                      const formula::FExpr& root);
  Value EvaluateDbtable(Sheet* sheet, int64_t row, int64_t col,
                        const formula::FExpr& root);
  /// Evaluates a formula argument to a scalar (usually a literal string).
  Value EvalArg(Sheet* sheet, int64_t row, int64_t col,
                const formula::FExpr& arg);
  /// Writes a DBSQL result block anchored at (row, col); returns the anchor
  /// value. Clears stale cells from the previous spill.
  Value WriteSpill(Sheet* sheet, int64_t row, int64_t col,
                   const ResultSet& result);
  /// Points `anchor` at the entry `cache_key` over `tables`, registering it
  /// for their changes and dropping the entry it showed before if no other
  /// anchor shows it.
  void ShowEntry(const formula::CellKey& anchor, std::string cache_key,
                 std::vector<std::string> tables);
  /// Erases entry `cache_key` unless some anchor still shows it.
  void DropIfUnshown(const std::string& cache_key);
  /// True when every table `entry` read still has the version it is
  /// stamped with, re-finalizing a maintained result if its groups moved.
  bool ServeFresh(DbsqlCache* entry);
  /// Folds `change` into every maintained entry the anchors over the table
  /// show; an entry that cannot take it stops being maintained.
  void Maintain(const std::vector<formula::CellKey>& anchors,
                const TableChange& change);
  bool RegionVisible(const Sheet* sheet, int64_t r0, int64_t c0, int64_t r1,
                     int64_t c1) const;

  Workbook* workbook_;
  Database* db_;
  formula::FormulaEngine* engine_;
  Scheduler* scheduler_;
  size_t default_window_;
  int db_listener_token_ = 0;
  int next_binding_id_ = 1;
  std::vector<std::unique_ptr<TableBinding>> bindings_;
  std::unordered_map<std::string, DbsqlCache> dbsql_cache_;
  std::unordered_map<formula::CellKey, DbsqlAnchor, formula::CellKeyHash>
      anchors_;
  // DBSQL anchors by referenced table (lower-cased) for invalidation.
  std::unordered_map<std::string, std::vector<formula::CellKey>>
      anchors_by_table_;
  VisibilityProbe visibility_probe_;
  uint64_t dbsql_executions_ = 0;
  uint64_t dbsql_cache_hits_ = 0;
  uint64_t dbsql_maintained_ = 0;
  uint64_t dbsql_fallbacks_ = 0;
  uint64_t backend_refreshes_ = 0;
};

}  // namespace dataspread

#endif  // DATASPREAD_CORE_INTERFACE_MANAGER_H_
