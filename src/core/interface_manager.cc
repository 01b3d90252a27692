#include "core/interface_manager.h"

#include <algorithm>
#include <utility>

#include "common/str_util.h"
#include "exec/expr_eval.h"
#include "exec/planner.h"
#include "sql/parser.h"

namespace dataspread {

namespace {

/// ExternalResolver that reads the workbook. RANGEVALUE("B1") resolves on
/// `anchor_sheet` unless the reference is sheet-qualified — this is the
/// *context* the paper assigns to every displayed item.
class SheetResolver : public ExternalResolver {
 public:
  SheetResolver(const Workbook* workbook, Sheet* anchor_sheet)
      : workbook_(workbook), anchor_(anchor_sheet) {}

  Result<Value> ResolveRangeValue(const std::string& ref) override {
    DS_ASSIGN_OR_RETURN(CellRef cell, ParseCellRef(ref));
    DS_ASSIGN_OR_RETURN(Sheet * sheet, ResolveSheet(cell.sheet));
    return sheet->GetValue(cell.row, cell.col);
  }

  Result<RangeTableData> ResolveRangeTable(const std::string& ref) override {
    DS_ASSIGN_OR_RETURN(RangeRef range, ParseRangeRef(ref));
    DS_ASSIGN_OR_RETURN(Sheet * sheet, ResolveSheet(range.sheet));
    DS_ASSIGN_OR_RETURN(InferredTable inferred,
                        InferTableFromRange(*sheet, range));
    RangeTableData data;
    for (const ColumnDef& c : inferred.schema.columns()) {
      data.columns.push_back(c.name);
    }
    data.rows = std::move(inferred.rows);
    return data;
  }

 private:
  Result<Sheet*> ResolveSheet(const std::string& name) {
    if (name.empty()) {
      if (anchor_ == nullptr) {
        return Status::InvalidArgument(
            "relative sheet reference outside a spreadsheet context");
      }
      return anchor_;
    }
    return workbook_->GetSheet(name);
  }

  const Workbook* workbook_;
  Sheet* anchor_;
};

/// Collects RANGEVALUE cell refs and RANGETABLE range refs from a SELECT.
void CollectExprRefs(const sql::Expr* e, std::vector<std::string>* cells) {
  if (e == nullptr) return;
  if (e->kind == sql::ExprKind::kRangeValue) {
    cells->push_back(e->ref_text);
    return;
  }
  for (const sql::ExprPtr& a : e->args) CollectExprRefs(a.get(), cells);
}

void CollectSelectRefs(const sql::SelectStmt& stmt,
                       std::vector<std::string>* cells,
                       std::vector<std::string>* ranges,
                       std::vector<std::string>* tables) {
  if (stmt.from.has_value()) {
    if (stmt.from->kind == sql::TableRef::Kind::kRangeTable) {
      ranges->push_back(stmt.from->range_text);
    } else {
      tables->push_back(ToLower(stmt.from->name));
    }
  }
  for (const sql::JoinClause& j : stmt.joins) {
    if (j.table.kind == sql::TableRef::Kind::kRangeTable) {
      ranges->push_back(j.table.range_text);
    } else {
      tables->push_back(ToLower(j.table.name));
    }
    CollectExprRefs(j.on.get(), cells);
  }
  for (const sql::SelectItem& item : stmt.items) {
    CollectExprRefs(item.expr.get(), cells);
  }
  CollectExprRefs(stmt.where.get(), cells);
  for (const sql::ExprPtr& g : stmt.group_by) CollectExprRefs(g.get(), cells);
  CollectExprRefs(stmt.having.get(), cells);
  for (const sql::OrderItem& o : stmt.order_by) CollectExprRefs(o.expr.get(), cells);
}

}  // namespace

// ---------------------------------------------------------------------------
// Maintained aggregate results (DESIGN.md §6c)
// ---------------------------------------------------------------------------

/// A single-table aggregate DBSQL result kept current under row changes:
/// the groups of the execution that seeded it, ordered as the output rows,
/// plus what folding one row image into them needs. Every value the result
/// shows goes through the engine's own AggState and FinalizeAggregateGroups.
struct InterfaceManager::MaintainedAggregate {
  /// Takes over the seeding execution's statement and groups when the
  /// query is `SELECT [g,] agg… FROM t [WHERE …] [GROUP BY g ORDER BY g
  /// [DESC]]` within the scope rules; null otherwise.
  static std::unique_ptr<MaintainedAggregate> Seed(SelectCapture capture,
                                                   const ResultSet& result,
                                                   const Table& table);

  /// Folds one change of the table in; false when it cannot be folded
  /// exactly (the result must then be recomputed).
  bool Apply(const TableChange& change);

  /// Re-finalizes the groups into `result->rows`.
  Status Finalize(ResultSet* result);

  /// Adds (`retract` false) or takes back one row image.
  bool Fold(const Row& image, bool retract);
  /// The output order of two group keys: SortOp's comparison.
  int CompareKeys(const Value& a, const Value& b) const {
    int c = Value::Compare(a, b);
    return descending ? -c : c;
  }

  std::unique_ptr<sql::SelectStmt> stmt;  // the AST everything points into
  std::vector<const sql::Expr*> outputs;
  std::vector<sql::Expr*> calls;  // by aggregate_index
  std::vector<int> arg_columns;   // by aggregate_index; -1 for COUNT(*)
  const sql::Expr* where = nullptr;
  int group_column = -1;  // -1: one global group
  bool descending = false;
  size_t width = 0;                // table columns
  std::vector<bool> reads;         // columns any image is read for
  std::vector<AggGroup> groups;    // in output order
  bool stale = false;              // groups moved since the last Finalize
};

std::unique_ptr<InterfaceManager::MaintainedAggregate>
InterfaceManager::MaintainedAggregate::Seed(SelectCapture capture,
                                            const ResultSet& result,
                                            const Table& table) {
  sql::SelectStmt& s = *capture.stmt;
  if (!s.from.has_value() || s.from->kind != sql::TableRef::Kind::kNamed ||
      !s.joins.empty() || s.having != nullptr || s.distinct ||
      s.limit.has_value() || s.offset.has_value() || s.group_by.size() > 1) {
    return nullptr;
  }
  const Schema& schema = table.schema();
  auto m = std::make_unique<MaintainedAggregate>();
  m->width = schema.num_columns();
  auto column_of = [&](const sql::Expr& e) {
    return e.kind == sql::ExprKind::kColumnRef && e.bound_column >= 0 &&
                   static_cast<size_t>(e.bound_column) < m->width
               ? e.bound_column
               : -1;
  };
  // Types whose compare-equal values are identical: a group key or a
  // MIN/MAX extreme of such a type reads the same whichever row supplied it.
  auto exact = [&](int c) {
    DataType t = schema.column(static_cast<size_t>(c)).type;
    return t == DataType::kInt || t == DataType::kText || t == DataType::kBool;
  };
  if (s.group_by.size() == 1) {
    m->group_column = column_of(*s.group_by[0]);
    if (m->group_column < 0 || !exact(m->group_column)) return nullptr;
  }

  // Select list: the group column and plain aggregate calls over columns.
  for (sql::SelectItem& item : s.items) {
    if (item.star) return nullptr;
    sql::Expr& e = *item.expr;
    m->outputs.push_back(&e);
    if (e.kind == sql::ExprKind::kColumnRef) {
      if (m->group_column < 0 || column_of(e) != m->group_column) {
        return nullptr;
      }
      continue;
    }
    if (e.kind != sql::ExprKind::kFunction || e.aggregate_index < 0) {
      return nullptr;
    }
    int arg = -1;
    if (!e.star) {
      if (e.args.size() != 1) return nullptr;
      arg = column_of(*e.args[0]);
      if (arg < 0) return nullptr;
      DataType t = schema.column(static_cast<size_t>(arg)).type;
      if ((e.op == "SUM" || e.op == "AVG") && t != DataType::kInt) {
        return nullptr;  // REAL sums depend on the folding order
      }
      if ((e.op == "MIN" || e.op == "MAX") && !exact(arg)) return nullptr;
    }
    size_t index = static_cast<size_t>(e.aggregate_index);
    if (m->calls.size() <= index) {
      m->calls.resize(index + 1, nullptr);
      m->arg_columns.resize(index + 1, -1);
    }
    m->calls[index] = &e;
    m->arg_columns[index] = arg;
  }

  // ORDER BY: none for a global aggregate; exactly the group column
  // otherwise, so the output rows are the groups in key order. Resolved as
  // the planner does: a position, or the first output column of that name.
  if (m->group_column < 0) {
    if (!s.order_by.empty()) return nullptr;
  } else {
    if (s.order_by.size() != 1) return nullptr;
    const sql::Expr& key = *s.order_by[0].expr;
    size_t out = m->outputs.size();
    if (key.kind == sql::ExprKind::kLiteral &&
        key.literal.type() == DataType::kInt) {
      int64_t pos = key.literal.int_value();
      if (pos >= 1 && static_cast<size_t>(pos) <= m->outputs.size()) {
        out = static_cast<size_t>(pos - 1);
      }
    } else if (key.kind == sql::ExprKind::kColumnRef && key.qualifier.empty()) {
      for (size_t i = 0; i < result.columns.size() && out == m->outputs.size();
           ++i) {
        if (EqualsIgnoreCase(result.columns[i], key.column_name)) out = i;
      }
    }
    if (out >= m->outputs.size() ||
        column_of(*m->outputs[out]) != m->group_column) {
      return nullptr;
    }
    m->descending = s.order_by[0].descending;
  }

  // WHERE: only conjuncts that cannot raise, so evaluating it on one row
  // image decides exactly what the scan's filter decided.
  m->where = s.where.get();
  if (m->where != nullptr && !CannotRaise(*m->where, TableScope(table))) {
    return nullptr;
  }
  m->reads.assign(m->width, false);
  MarkColumns(m->where, &m->reads);
  if (m->group_column >= 0) m->reads[static_cast<size_t>(m->group_column)] = true;
  for (int c : m->arg_columns) {
    if (c >= 0) m->reads[static_cast<size_t>(c)] = true;
  }

  m->groups = std::move(capture.groups);
  if (m->group_column < 0 && m->groups.size() != 1) return nullptr;
  for (const AggGroup& g : m->groups) {
    if (g.states.size() != m->calls.size()) return nullptr;
  }
  std::sort(m->groups.begin(), m->groups.end(),
            [&](const AggGroup& a, const AggGroup& b) {
              return m->group_column >= 0 &&
                     m->CompareKeys(a.key[0], b.key[0]) < 0;
            });
  m->stmt = std::move(capture.stmt);
  return m;
}

bool InterfaceManager::MaintainedAggregate::Apply(const TableChange& change) {
  switch (change.kind) {
    case TableChange::Kind::kInsert:
      return Fold(*change.row, /*retract=*/false);
    case TableChange::Kind::kDelete:
      return Fold(*change.row, /*retract=*/true);
    case TableChange::Kind::kUpdate: {
      if (!reads[change.column]) return true;  // nothing this query reads
      Row after(width);
      for (size_t c = 0; c < width; ++c) {
        if (!reads[c] || c == change.column) continue;
        auto v = change.table->GetByRid(change.rid, c);
        if (!v.ok()) return false;
        after[c] = std::move(v).value();
      }
      after[change.column] = *change.new_value;
      Row before = after;
      before[change.column] = *change.old_value;
      return Fold(before, /*retract=*/true) && Fold(after, /*retract=*/false);
    }
    default:
      return false;  // schema changes and deltaless bulk changes
  }
}

bool InterfaceManager::MaintainedAggregate::Fold(const Row& image,
                                                 bool retract) {
  if (where != nullptr) {
    auto pass = EvalPredicate(*where, &image, nullptr);
    if (!pass.ok()) return false;
    if (!pass.value()) return true;
  }
  auto group = groups.begin();
  if (group_column >= 0) {
    const Value& key = image[static_cast<size_t>(group_column)];
    group = std::lower_bound(groups.begin(), groups.end(), key,
                             [&](const AggGroup& g, const Value& k) {
                               return CompareKeys(g.key[0], k) < 0;
                             });
    if (group == groups.end() || CompareKeys(group->key[0], key) != 0) {
      if (retract) return false;  // a row this result never counted
      AggGroup fresh = MakeAggGroup(calls);
      fresh.key = {key};
      fresh.first_row = image;
      group = groups.insert(group, std::move(fresh));
    }
  }
  for (size_t a = 0; a < calls.size(); ++a) {
    AggState& state = group->states[a];
    if (arg_columns[a] < 0) {
      retract ? state.RetractStar() : state.UpdateStar();
      continue;
    }
    const Value& v = image[static_cast<size_t>(arg_columns[a])];
    if (retract ? !state.Retract(v) : !state.UpdateValue(v).ok()) return false;
  }
  group->rows += retract ? -1 : 1;
  if (group->rows == 0 && group_column >= 0) groups.erase(group);
  stale = true;
  return true;
}

Status InterfaceManager::MaintainedAggregate::Finalize(ResultSet* result) {
  std::vector<Row> rows;
  DS_RETURN_IF_ERROR(FinalizeAggregateGroups(outputs, nullptr, groups, &rows));
  result->rows = std::move(rows);
  stale = false;
  return Status::OK();
}

InterfaceManager::InterfaceManager(Workbook* workbook, Database* db,
                                   formula::FormulaEngine* engine,
                                   Scheduler* scheduler, size_t default_window)
    : workbook_(workbook),
      db_(db),
      engine_(engine),
      scheduler_(scheduler),
      default_window_(default_window) {
  db_listener_token_ = db_->AddChangeListener(
      [this](const std::string& table, const TableChange& change) {
        OnTableChanged(table, change);
      });
  engine_->set_external_handler(this);
}

InterfaceManager::~InterfaceManager() {
  db_->RemoveChangeListener(db_listener_token_);
  engine_->set_external_handler(nullptr);
}

// ---------------------------------------------------------------------------
// Export / import (Figure 2b)
// ---------------------------------------------------------------------------

Result<Table*> InterfaceManager::CreateTableFromRange(
    Sheet* sheet, const RangeRef& range, const std::string& table_name,
    HeaderMode mode, const std::string& key_column) {
  DS_ASSIGN_OR_RETURN(InferredTable inferred,
                      InferTableFromRange(*sheet, range, mode));
  Schema schema = inferred.schema;
  if (!key_column.empty()) {
    auto idx = schema.FindColumn(key_column);
    if (!idx) {
      return Status::NotFound("key column '" + key_column +
                              "' is not in the inferred schema (" +
                              schema.ToString() + ")");
    }
    std::vector<ColumnDef> cols = schema.columns();
    cols[*idx].primary_key = true;
    schema = Schema(std::move(cols));
  }
  DS_ASSIGN_OR_RETURN(Table * table, db_->CreateTable(table_name, schema));
  for (Row& row : inferred.rows) {
    Status s = table->AppendRow(std::move(row));
    if (!s.ok()) {
      (void)db_->catalog().DropTable(table_name);
      return s;
    }
  }
  return table;
}

Result<TableBinding*> InterfaceManager::BindTable(Sheet* sheet,
                                                  int64_t anchor_row,
                                                  int64_t anchor_col,
                                                  const std::string& table_name,
                                                  size_t window) {
  DS_ASSIGN_OR_RETURN(Table * table, db_->catalog().GetTable(table_name));
  auto binding = std::make_unique<TableBinding>(
      next_binding_id_++, sheet, anchor_row, anchor_col, table, db_,
      window == 0 ? default_window_ : window);
  TableBinding* raw = binding.get();
  raw->set_cell_written_hook([this, sheet](int64_t r, int64_t c) {
    engine_->MarkDirty(sheet, r, c);
  });
  bindings_.push_back(std::move(binding));
  DS_RETURN_IF_ERROR(raw->WriteHeader());
  DS_RETURN_IF_ERROR(raw->SetWindow(0, window));
  return raw;
}

Status InterfaceManager::Unbind(int binding_id) {
  for (auto it = bindings_.begin(); it != bindings_.end(); ++it) {
    if ((*it)->id() == binding_id) {
      DS_RETURN_IF_ERROR((*it)->ClearMaterialized());
      bindings_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no binding with id " + std::to_string(binding_id));
}

TableBinding* InterfaceManager::FindBindingAt(const Sheet* sheet, int64_t row,
                                              int64_t col) const {
  for (const auto& b : bindings_) {
    if (b->ContainsCell(sheet, row, col)) return b.get();
  }
  return nullptr;
}

Result<bool> InterfaceManager::RouteFrontEndEdit(Sheet* sheet, int64_t row,
                                                 int64_t col, const Value& v) {
  TableBinding* binding = FindBindingAt(sheet, row, col);
  if (binding == nullptr) return false;
  DS_RETURN_IF_ERROR(binding->ApplyFrontEndEdit(row, col, v));
  return true;
}

// ---------------------------------------------------------------------------
// Back-end half of two-way sync
// ---------------------------------------------------------------------------

bool InterfaceManager::RegionVisible(const Sheet* sheet, int64_t r0, int64_t c0,
                                     int64_t r1, int64_t c1) const {
  if (!visibility_probe_) return true;  // no window manager: treat as visible
  return visibility_probe_(sheet, r0, c0, r1, c1);
}

void InterfaceManager::OnTableChanged(const std::string& table_name,
                                      const TableChange& change) {
  backend_refreshes_ += 1;
  std::string key = ToLower(table_name);
  // 1. Queue the change on bindings of this table; one refresh task per
  //    binding applies everything queued. It runs at visible priority when
  //    the pane shows the materialized rows (at least the first row, which
  //    an insert into an empty window fills).
  for (const auto& b : bindings_) {
    if (!EqualsIgnoreCase(b->table()->name(), table_name)) continue;
    TableBinding* raw = b.get();
    raw->QueueChange(change);
    int64_t r0 = raw->data_row() + static_cast<int64_t>(raw->window_start());
    int64_t r1 =
        r0 + static_cast<int64_t>(std::max<size_t>(raw->window_count(), 1)) - 1;
    int64_t c1 = raw->anchor_col() +
                 static_cast<int64_t>(raw->table()->schema().num_columns()) - 1;
    bool visible = RegionVisible(raw->sheet(), r0, raw->anchor_col(), r1, c1);
    scheduler_->EnqueueUnique(
        visible ? Priority::kVisible : Priority::kBackground,
        "binding-refresh-" + std::to_string(raw->id()),
        [raw]() { (void)raw->ApplyQueuedChanges(); });
  }
  // 2. Fold the change into maintained results, dirty the DBSQL anchors
  //    that referenced this table, and queue a recalc.
  auto it = anchors_by_table_.find(key);
  if (it != anchors_by_table_.end()) {
    Maintain(it->second, change);
    for (const formula::CellKey& anchor : it->second) {
      engine_->MarkDirty(anchor.sheet, anchor.row, anchor.col);
    }
    if (!it->second.empty()) {
      formula::FormulaEngine* engine = engine_;
      scheduler_->EnqueueUnique(Priority::kNear, "recalc-dirty",
                                [engine]() { (void)engine->RecalcDirty(); });
    }
  }
}

void InterfaceManager::Maintain(const std::vector<formula::CellKey>& anchors,
                                const TableChange& change) {
  std::vector<DbsqlCache*> done;
  for (const formula::CellKey& anchor : anchors) {
    auto shown = anchors_.find(anchor);
    if (shown == anchors_.end()) continue;
    auto entry = dbsql_cache_.find(shown->second.cache_key);
    if (entry == dbsql_cache_.end()) continue;
    DbsqlCache* e = &entry->second;
    if (e->maintained == nullptr ||
        std::find(done.begin(), done.end(), e) != done.end()) {
      continue;
    }
    done.push_back(e);
    // Fold only the very next change of the table the entry was stamped
    // with, and only outside multi-statement transactions (whose changes a
    // ROLLBACK could still take back).
    uint64_t& version = e->table_versions[0].second;
    if (version == change.prior_version && change.table->write_txn() == 0 &&
        e->maintained->Apply(change)) {
      version = change.version;
      dbsql_maintained_ += 1;
    } else {
      e->maintained.reset();
      dbsql_fallbacks_ += 1;
    }
  }
}

// ---------------------------------------------------------------------------
// DBSQL / DBTABLE
// ---------------------------------------------------------------------------

std::unique_ptr<ExternalResolver> InterfaceManager::MakeResolver(
    Sheet* anchor_sheet) const {
  return std::make_unique<SheetResolver>(workbook_, anchor_sheet);
}

Value InterfaceManager::EvalArg(Sheet* sheet, int64_t row, int64_t col,
                                const formula::FExpr& arg) {
  (void)row;
  (void)col;
  if (arg.kind == formula::FKind::kLiteral) return arg.literal;
  auto v = engine_->EvaluateImmediate(sheet, "=" + arg.ToText(), row, col);
  if (!v.ok()) return Value::Error("#VALUE!");
  return std::move(v).value();
}

Status InterfaceManager::AnalyzeDependencies(
    Sheet* sheet, int64_t row, int64_t col, const formula::FExpr& root,
    std::vector<formula::CellDep>* cells,
    std::vector<formula::RangeDep>* ranges) {
  (void)row;
  (void)col;
  if (root.op == "DBTABLE") return Status::OK();  // table-only precedents
  if (root.args.empty() || root.args[0]->kind != formula::FKind::kLiteral ||
      root.args[0]->literal.type() != DataType::kText) {
    return Status::OK();  // dynamic SQL text: dependencies unknown
  }
  auto parsed = sql::Parse(root.args[0]->literal.text_value());
  if (!parsed.ok()) return Status::OK();  // surfaced at evaluation time
  auto* select = std::get_if<sql::SelectStmt>(&parsed.value());
  if (select == nullptr) return Status::OK();
  std::vector<std::string> cell_refs, range_refs, tables;
  CollectSelectRefs(*select, &cell_refs, &range_refs, &tables);
  for (const std::string& ref : cell_refs) {
    auto parsed_ref = ParseCellRef(ref);
    if (!parsed_ref.ok()) continue;
    Sheet* target = sheet;
    if (!parsed_ref.value().sheet.empty()) {
      auto s = workbook_->GetSheet(parsed_ref.value().sheet);
      if (!s.ok()) continue;
      target = s.value();
    }
    cells->push_back(formula::CellDep{target, parsed_ref.value().row,
                                      parsed_ref.value().col});
  }
  for (const std::string& ref : range_refs) {
    auto parsed_ref = ParseRangeRef(ref);
    if (!parsed_ref.ok()) continue;
    Sheet* target = sheet;
    if (!parsed_ref.value().sheet.empty()) {
      auto s = workbook_->GetSheet(parsed_ref.value().sheet);
      if (!s.ok()) continue;
      target = s.value();
    }
    ranges->push_back(formula::RangeDep{
        target, parsed_ref.value().start.row, parsed_ref.value().start.col,
        parsed_ref.value().end.row, parsed_ref.value().end.col});
  }
  return Status::OK();
}

Value InterfaceManager::WriteSpill(Sheet* sheet, int64_t row, int64_t col,
                                   const ResultSet& result) {
  formula::CellKey anchor{sheet, row, col};
  SpillExtent previous = anchors_[anchor].spill;
  int64_t out_rows = static_cast<int64_t>(result.rows.size());
  int64_t out_cols = static_cast<int64_t>(result.columns.size());
  // Write the block; the anchor cell itself is delivered via return value.
  for (int64_t r = 0; r < out_rows; ++r) {
    for (int64_t c = 0; c < out_cols; ++c) {
      if (r == 0 && c == 0) continue;
      const Value& v = result.rows[static_cast<size_t>(r)][static_cast<size_t>(c)];
      (void)sheet->SetValue(row + r, col + c, v);
      engine_->MarkDirty(sheet, row + r, col + c);
    }
  }
  // Clear cells from the previous spill not covered anymore.
  for (int64_t r = 0; r < previous.rows; ++r) {
    for (int64_t c = 0; c < previous.cols; ++c) {
      if (r < out_rows && c < out_cols) continue;
      if (r == 0 && c == 0) continue;
      (void)sheet->ClearCell(row + r, col + c);
      engine_->MarkDirty(sheet, row + r, col + c);
    }
  }
  anchors_[anchor].spill = SpillExtent{out_rows, out_cols};
  if (result.rows.empty() || result.rows[0].empty()) {
    return Value::Text("(0 rows)");
  }
  return result.rows[0][0];
}

void InterfaceManager::ShowEntry(const formula::CellKey& anchor,
                                 std::string cache_key,
                                 std::vector<std::string> tables) {
  DbsqlAnchor& a = anchors_[anchor];
  if (a.tables != tables) {
    for (const std::string& t : a.tables) {
      auto& list = anchors_by_table_[t];
      list.erase(std::remove(list.begin(), list.end(), anchor), list.end());
      if (list.empty()) anchors_by_table_.erase(t);
    }
    for (const std::string& t : tables) {
      auto& list = anchors_by_table_[t];
      if (std::find(list.begin(), list.end(), anchor) == list.end()) {
        list.push_back(anchor);
      }
    }
    a.tables = std::move(tables);
  }
  if (a.cache_key != cache_key) {
    std::string previous = std::exchange(a.cache_key, std::move(cache_key));
    DropIfUnshown(previous);
  }
}

void InterfaceManager::DropIfUnshown(const std::string& cache_key) {
  if (cache_key.empty()) return;
  for (const auto& [anchor, a] : anchors_) {
    if (a.cache_key == cache_key) return;
  }
  dbsql_cache_.erase(cache_key);
}

void InterfaceManager::ReleaseHybrid(Sheet* sheet, int64_t row, int64_t col) {
  formula::CellKey anchor{sheet, row, col};
  if (anchors_.count(anchor) == 0) return;  // not a DBSQL anchor
  (void)WriteSpill(sheet, row, col, ResultSet{});  // clears the spill
  ShowEntry(anchor, "", {});
  anchors_.erase(anchor);
}

bool InterfaceManager::ServeFresh(DbsqlCache* entry) {
  for (const auto& [name, version] : entry->table_versions) {
    auto table = db_->catalog().GetTable(name);
    if (!table.ok() || table.value()->version() != version) return false;
  }
  if (entry->maintained != nullptr && entry->maintained->stale &&
      !entry->maintained->Finalize(&entry->result).ok()) {
    // Let the re-execution report the error (a SUM overflow).
    entry->maintained.reset();
    dbsql_fallbacks_ += 1;
    return false;
  }
  return true;
}

Value InterfaceManager::EvaluateDbsql(Sheet* sheet, int64_t row, int64_t col,
                                      const formula::FExpr& root) {
  formula::CellKey anchor{sheet, row, col};
  // A failed evaluation shows no rows: the previous spill goes.
  auto fail = [&](std::vector<std::string> tables,
                  Value error = Value::Error("#VALUE!")) {
    ShowEntry(anchor, "", std::move(tables));
    (void)WriteSpill(sheet, row, col, ResultSet{});
    return error;
  };
  if (root.args.empty()) return fail({});
  Value sql_text = EvalArg(sheet, row, col, *root.args[0]);
  if (sql_text.is_error()) return fail({}, sql_text);
  if (sql_text.type() != DataType::kText) return fail({});
  const std::string& sql = sql_text.text_value();

  // Referenced tables + referenced-cell snapshot form the cache key.
  std::vector<std::string> cell_refs, range_refs, tables;
  {
    auto parsed = sql::Parse(sql);
    if (!parsed.ok()) return fail({});
    auto* select = std::get_if<sql::SelectStmt>(&parsed.value());
    if (select == nullptr) {
      return fail({});  // DBSQL is read-only (SELECT)
    }
    CollectSelectRefs(*select, &cell_refs, &range_refs, &tables);
  }
  SheetResolver resolver(workbook_, sheet);
  std::string cache_key = sql;
  for (const std::string& ref : cell_refs) {
    auto v = resolver.ResolveRangeValue(ref);
    cache_key += "|" + (v.ok() ? v.value().ToSqlLiteral() : "?");
  }
  for (const std::string& ref : range_refs) {
    // Range contents are hashed coarsely via the sheet's cell count; exact
    // invalidation comes from the formula-engine range dependencies.
    cache_key += "|" + ref;
  }

  // This anchor now shows `cache_key` and is dirtied by its tables' changes.
  ShowEntry(anchor, cache_key, tables);

  auto cached = dbsql_cache_.find(cache_key);
  if (cached != dbsql_cache_.end() && range_refs.empty() &&
      ServeFresh(&cached->second)) {
    // Shared computation: identical query, identical (or maintained) inputs.
    dbsql_cache_hits_ += 1;
    return WriteSpill(sheet, row, col, cached->second.result);
  }

  // Stamp the versions the execution starts from: a change racing it leaves
  // the entry stale instead of counted twice.
  auto versions = [&] {
    std::vector<std::pair<std::string, uint64_t>> out;
    for (const std::string& t : tables) {
      auto table = db_->catalog().GetTable(t);
      if (table.ok()) out.emplace_back(t, table.value()->version());
    }
    return out;
  };
  DbsqlCache entry;
  entry.table_versions = versions();
  SelectCapture capture;
  auto result = db_->Execute(sql, &resolver, &capture);
  dbsql_executions_ += 1;
  if (!result.ok()) return fail(std::move(tables));
  entry.result = std::move(result).value();
  if (range_refs.empty() && entry.table_versions.size() == 1 &&
      tables.size() == 1 && entry.table_versions == versions()) {
    entry.maintained = MaintainedAggregate::Seed(
        std::move(capture), entry.result,
        *db_->catalog().GetTable(tables[0]).value());
  }
  DbsqlCache& stored = dbsql_cache_[cache_key] = std::move(entry);
  return WriteSpill(sheet, row, col, stored.result);
}

Value InterfaceManager::EvaluateDbtable(Sheet* sheet, int64_t row, int64_t col,
                                        const formula::FExpr& root) {
  if (root.args.empty()) return Value::Error("#VALUE!");
  Value name_v = EvalArg(sheet, row, col, *root.args[0]);
  if (name_v.type() != DataType::kText) return Value::Error("#VALUE!");
  const std::string& table_name = name_v.text_value();
  size_t window = 0;
  if (root.args.size() >= 2) {
    Value w = EvalArg(sheet, row, col, *root.args[1]);
    auto wi = w.AsInt();
    if (wi.ok() && wi.value() > 0) window = static_cast<size_t>(wi.value());
  }

  // Reuse an existing binding anchored here (re-evaluation path).
  for (const auto& b : bindings_) {
    if (b->sheet() == sheet && b->anchor_row() == row &&
        b->anchor_col() == col) {
      if (EqualsIgnoreCase(b->table()->name(), table_name)) {
        (void)b->RefreshWindow();
        (void)b->WriteHeader();
        return Value::Text(b->table()->schema().num_columns() > 0
                               ? b->table()->schema().column(0).name
                               : table_name);
      }
      (void)Unbind(b->id());
      break;
    }
  }
  auto binding = BindTable(sheet, row, col, table_name, window);
  if (!binding.ok()) return Value::Error("#NAME?");
  const Schema& schema = binding.value()->table()->schema();
  return Value::Text(schema.num_columns() > 0 ? schema.column(0).name
                                              : table_name);
}

Value InterfaceManager::EvaluateHybrid(Sheet* sheet, int64_t row, int64_t col,
                                       const formula::FExpr& root) {
  if (root.op == "DBSQL") return EvaluateDbsql(sheet, row, col, root);
  if (root.op == "DBTABLE") return EvaluateDbtable(sheet, row, col, root);
  return Value::Error("#NAME?");
}

}  // namespace dataspread
