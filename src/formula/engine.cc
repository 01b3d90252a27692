#include "formula/engine.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/wrapping_arith.h"
#include "formula/formula_parser.h"
#include "formula/functions.h"

namespace dataspread::formula {

FormulaEngine::FormulaEngine(Workbook* workbook) : workbook_(workbook) {
  for (const auto& sheet : workbook_->sheets()) {
    AttachSheet(sheet.get());
  }
}

FormulaEngine::~FormulaEngine() {
  for (auto& [sheet, token] : sheet_listeners_) {
    sheet->RemoveListener(token);
  }
}

void FormulaEngine::AttachSheet(Sheet* sheet) {
  int token = sheet->AddListener(
      [this, sheet](const SheetEvent& event) { OnSheetEvent(sheet, event); });
  sheet_listeners_.emplace_back(sheet, token);
}

// ---------------------------------------------------------------------------
// Compilation and dependency bookkeeping
// ---------------------------------------------------------------------------

void FormulaEngine::OnSheetEvent(Sheet* sheet, const SheetEvent& event) {
  if (adjusting_) return;
  if (event.kind == SheetEvent::Kind::kCellChanged) {
    CellKey key{sheet, event.row, event.col};
    const Cell* cell =
        event.has_formula ? sheet->GetCell(event.row, event.col) : nullptr;
    if (cell != nullptr && cell->has_formula()) {
      CompileCell(sheet, event.row, event.col, cell->formula);
    } else {
      RemoveFormula(key);
    }
    // The cell's (new) value invalidates everything computed from it.
    MarkDirty(key);
    return;
  }
  OnStructuralChange(sheet, event);
}

void FormulaEngine::CompileCell(Sheet* sheet, int64_t row, int64_t col,
                                const std::string& text) {
  CellKey key{sheet, row, col};
  RemoveFormula(key);
  Compiled compiled;
  auto parsed = ParseFormula(text);
  if (!parsed.ok()) {
    // Malformed formulas surface as #NAME? and have no dependencies.
    adjusting_ = true;
    (void)sheet->SetComputedValue(row, col, Value::Error("#NAME?"));
    adjusting_ = false;
    return;
  }
  compiled.ast = std::move(parsed).value();
  compiled.hybrid = IsHybridFormula(*compiled.ast);
  if (compiled.hybrid && external_handler_ != nullptr) {
    Status s = external_handler_->AnalyzeDependencies(
        sheet, row, col, *compiled.ast, &compiled.cell_deps,
        &compiled.range_deps);
    if (!s.ok()) {
      adjusting_ = true;
      (void)sheet->SetComputedValue(row, col, Value::Error("#NAME?"));
      adjusting_ = false;
      return;
    }
  } else {
    ExtractDeps(sheet, *compiled.ast, &compiled);
  }
  RegisterDeps(key, compiled);
  formulas_[key] = std::move(compiled);
}

void FormulaEngine::RemoveFormula(const CellKey& key) {
  auto it = formulas_.find(key);
  if (it == formulas_.end()) return;
  UnregisterDeps(key, it->second);
  bool hybrid = it->second.hybrid;
  formulas_.erase(it);
  if (hybrid && external_handler_ != nullptr) {
    external_handler_->ReleaseHybrid(key.sheet, key.row, key.col);
  }
}

void FormulaEngine::ExtractDeps(Sheet* context, const FExpr& e, Compiled* out) {
  switch (e.kind) {
    case FKind::kCellRef: {
      Sheet* target = context;
      if (!e.cell.sheet.empty()) {
        auto s = workbook_->GetSheet(e.cell.sheet);
        if (!s.ok()) return;  // evaluation will yield #REF!
        target = s.value();
      }
      out->cell_deps.push_back(CellDep{target, e.cell.row, e.cell.col});
      return;
    }
    case FKind::kRange: {
      Sheet* target = context;
      if (!e.range.sheet.empty()) {
        auto s = workbook_->GetSheet(e.range.sheet);
        if (!s.ok()) return;
        target = s.value();
      }
      out->range_deps.push_back(RangeDep{target, e.range.start.row,
                                         e.range.start.col, e.range.end.row,
                                         e.range.end.col});
      return;
    }
    default:
      for (const FExprPtr& a : e.args) {
        if (a) ExtractDeps(context, *a, out);
      }
  }
}

void FormulaEngine::RegisterDeps(const CellKey& key, const Compiled& compiled) {
  for (const CellDep& d : compiled.cell_deps) {
    exact_rev_[CellKey{d.sheet, d.row, d.col}].push_back(key);
  }
  for (const RangeDep& r : compiled.range_deps) {
    range_rev_[r.sheet].Add(r, key);
  }
}

void FormulaEngine::UnregisterDeps(const CellKey& key,
                                   const Compiled& compiled) {
  for (const CellDep& d : compiled.cell_deps) {
    auto it = exact_rev_.find(CellKey{d.sheet, d.row, d.col});
    if (it == exact_rev_.end()) continue;
    auto& vec = it->second;
    vec.erase(std::remove(vec.begin(), vec.end(), key), vec.end());
    if (vec.empty()) exact_rev_.erase(it);
  }
  for (const RangeDep& r : compiled.range_deps) {
    auto it = range_rev_.find(r.sheet);
    if (it == range_rev_.end()) continue;
    it->second.Remove(r, key);
  }
}

bool FormulaEngine::HasDependents(const CellKey& key) const {
  if (exact_rev_.count(key) > 0) return true;
  auto rit = range_rev_.find(key.sheet);
  return rit != range_rev_.end() && rit->second.Covers(key);
}

std::vector<CellKey> FormulaEngine::DependentsOf(const CellKey& key) const {
  std::vector<CellKey> out;
  auto it = exact_rev_.find(key);
  if (it != exact_rev_.end()) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  auto rit = range_rev_.find(key.sheet);
  if (rit != range_rev_.end()) {
    rit->second.CollectDependents(key, &out);
  }
  return out;
}

void FormulaEngine::RangeDepIndex::Add(const RangeDep& range,
                                       const CellKey& dependent) {
  int64_t tr0 = range.r0 >> kTileBits, tr1 = range.r1 >> kTileBits;
  int64_t tc0 = range.c0 >> kTileBits, tc1 = range.c1 >> kTileBits;
  int64_t tiles = (tr1 - tr0 + 1) * (tc1 - tc0 + 1);
  if (tiles > kMaxBucketTiles) {
    large.push_back(Entry{range, dependent});
    return;
  }
  for (int64_t tr = tr0; tr <= tr1; ++tr) {
    for (int64_t tc = tc0; tc <= tc1; ++tc) {
      buckets[(static_cast<uint64_t>(tr) << 32) | static_cast<uint32_t>(tc)]
          .push_back(Entry{range, dependent});
    }
  }
}

void FormulaEngine::RangeDepIndex::Remove(const RangeDep& range,
                                          const CellKey& dependent) {
  auto drop = [&](std::vector<Entry>& vec) {
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [&](const Entry& e) {
                               return e.dependent == dependent;
                             }),
              vec.end());
  };
  int64_t tr0 = range.r0 >> kTileBits, tr1 = range.r1 >> kTileBits;
  int64_t tc0 = range.c0 >> kTileBits, tc1 = range.c1 >> kTileBits;
  int64_t tiles = (tr1 - tr0 + 1) * (tc1 - tc0 + 1);
  if (tiles > kMaxBucketTiles) {
    drop(large);
    return;
  }
  for (int64_t tr = tr0; tr <= tr1; ++tr) {
    for (int64_t tc = tc0; tc <= tc1; ++tc) {
      auto it = buckets.find((static_cast<uint64_t>(tr) << 32) |
                             static_cast<uint32_t>(tc));
      if (it != buckets.end()) drop(it->second);
    }
  }
}

bool FormulaEngine::RangeDepIndex::Covers(const CellKey& cell) const {
  auto covers = [&](const Entry& e) {
    return e.range.Contains(cell.sheet, cell.row, cell.col);
  };
  auto it = buckets.find(TileKey(cell.row, cell.col));
  if (it != buckets.end() &&
      std::any_of(it->second.begin(), it->second.end(), covers)) {
    return true;
  }
  return std::any_of(large.begin(), large.end(), covers);
}

void FormulaEngine::RangeDepIndex::CollectDependents(
    const CellKey& cell, std::vector<CellKey>* out) const {
  auto it = buckets.find(TileKey(cell.row, cell.col));
  if (it != buckets.end()) {
    for (const Entry& e : it->second) {
      if (e.range.Contains(cell.sheet, cell.row, cell.col)) {
        out->push_back(e.dependent);
      }
    }
  }
  for (const Entry& e : large) {
    if (e.range.Contains(cell.sheet, cell.row, cell.col)) {
      out->push_back(e.dependent);
    }
  }
}

// ---------------------------------------------------------------------------
// Recalculation
// ---------------------------------------------------------------------------

std::unordered_set<CellKey, CellKeyHash> FormulaEngine::DirtyClosure() const {
  std::unordered_set<CellKey, CellKeyHash> closure;
  std::deque<CellKey> frontier(dirty_.begin(), dirty_.end());
  for (const CellKey& k : frontier) closure.insert(k);
  while (!frontier.empty()) {
    CellKey k = frontier.front();
    frontier.pop_front();
    for (const CellKey& d : DependentsOf(k)) {
      if (closure.insert(d).second) frontier.push_back(d);
    }
  }
  return closure;
}

Status FormulaEngine::RecalcSet(
    const std::unordered_set<CellKey, CellKeyHash>& target) {
  // In-degree = number of *target formula* precedents feeding each target
  // formula, computed through forward dependents (cheap per edge).
  std::unordered_map<CellKey, int, CellKeyHash> in_degree;
  for (const CellKey& k : target) {
    if (formulas_.count(k) > 0 && in_degree.find(k) == in_degree.end()) {
      in_degree[k] = 0;
    }
    for (const CellKey& d : DependentsOf(k)) {
      if (target.count(d) > 0 && formulas_.count(d) > 0 &&
          formulas_.count(k) > 0) {
        in_degree[d] += 1;
      }
    }
  }
  std::deque<CellKey> ready;
  for (const auto& [k, deg] : in_degree) {
    if (deg == 0) ready.push_back(k);
  }
  size_t evaluated = 0;
  adjusting_ = true;  // computed writes must not re-enter the event handler
  while (!ready.empty()) {
    CellKey k = ready.front();
    ready.pop_front();
    auto fit = formulas_.find(k);
    if (fit != formulas_.end()) {
      Value v = EvaluateCell(k, fit->second);
      (void)k.sheet->SetComputedValue(k.row, k.col, std::move(v));
      ++cells_evaluated_;
    }
    ++evaluated;
    dirty_.erase(k);
    for (const CellKey& d : DependentsOf(k)) {
      auto dit = in_degree.find(d);
      if (dit == in_degree.end()) continue;
      if (--dit->second == 0) ready.push_back(d);
    }
  }
  // Whatever keeps a positive in-degree sits on a cycle.
  for (const auto& [k, deg] : in_degree) {
    if (deg > 0) {
      (void)k.sheet->SetComputedValue(k.row, k.col, Value::Error("#CYCLE!"));
      dirty_.erase(k);
    }
  }
  adjusting_ = false;
  // Non-formula dirty cells inside the target are now accounted for.
  for (const CellKey& k : target) {
    if (formulas_.count(k) == 0) dirty_.erase(k);
  }
  return Status::OK();
}

Status FormulaEngine::RecalcDirty() {
  if (dirty_.empty()) return Status::OK();
  return RecalcSet(DirtyClosure());
}

Status FormulaEngine::RecalcWindow(Sheet* sheet, int64_t r0, int64_t c0,
                                   int64_t r1, int64_t c1) {
  if (dirty_.empty()) return Status::OK();
  auto closure = DirtyClosure();
  // Targets: closure formulas inside the window.
  std::unordered_set<CellKey, CellKeyHash> needed;
  std::deque<CellKey> frontier;
  std::vector<CellKey> off_window;  // closure formulas outside the window
  for (const CellKey& k : closure) {
    if (k.sheet == sheet && k.row >= r0 && k.row <= r1 && k.col >= c0 &&
        k.col <= c1) {
      if (needed.insert(k).second) frontier.push_back(k);
    } else if (formulas_.count(k) > 0) {
      off_window.push_back(k);
    }
  }
  // Pull in dirty precedents (transitively) so window results are exact.
  while (!frontier.empty()) {
    CellKey k = frontier.front();
    frontier.pop_front();
    auto fit = formulas_.find(k);
    if (fit == formulas_.end()) continue;
    for (const CellDep& d : fit->second.cell_deps) {
      CellKey p{d.sheet, d.row, d.col};
      if (closure.count(p) > 0 && needed.insert(p).second) {
        frontier.push_back(p);
      }
    }
    for (const RangeDep& r : fit->second.range_deps) {
      // Probe whichever side is smaller: the range's cells against the
      // closure set, or the closure against the range.
      int64_t area = (r.r1 - r.r0 + 1) * (r.c1 - r.c0 + 1);
      if (area > 0 && static_cast<size_t>(area) <= closure.size()) {
        for (int64_t row = r.r0; row <= r.r1; ++row) {
          for (int64_t col = r.c0; col <= r.c1; ++col) {
            CellKey p{r.sheet, row, col};
            if (closure.count(p) > 0 && needed.insert(p).second) {
              frontier.push_back(p);
            }
          }
        }
      } else {
        for (const CellKey& p : closure) {
          if (r.Contains(p.sheet, p.row, p.col) && needed.insert(p).second) {
            frontier.push_back(p);
          }
        }
      }
    }
  }
  DS_RETURN_IF_ERROR(RecalcSet(needed));
  // RecalcSet cleared the dirty marks of the value cells it consumed (e.g. an
  // edited parameter cell), which were the only roots leading to the
  // closure's off-window formulas. Mark those formulas dirty themselves so
  // the background RecalcDirty still recomputes them (unless they were
  // pulled in as precedents and are now clean).
  for (const CellKey& k : off_window) {
    if (needed.count(k) == 0) dirty_.insert(k);
  }
  return Status::OK();
}

Status FormulaEngine::RecalcAll() {
  // Recompile from the stored formula text (sheet is the source of truth).
  std::vector<CellKey> keys;
  keys.reserve(formulas_.size());
  for (const auto& [k, c] : formulas_) keys.push_back(k);
  for (const CellKey& k : keys) {
    const Cell* cell = k.sheet->GetCell(k.row, k.col);
    if (cell != nullptr && cell->has_formula()) {
      CompileCell(k.sheet, k.row, k.col, cell->formula);
    } else {
      RemoveFormula(k);
    }
    dirty_.insert(k);
  }
  return RecalcDirty();
}

void FormulaEngine::MarkDirty(Sheet* sheet, int64_t row, int64_t col) {
  MarkDirty(CellKey{sheet, row, col});
}

void FormulaEngine::MarkDirty(const CellKey& key) {
  // A value cell nothing reads would only seed DirtyClosure with itself and
  // be dropped again by RecalcSet, so it stays out of the set.
  if (formulas_.count(key) > 0 || HasDependents(key)) dirty_.insert(key);
}

Value FormulaEngine::EvaluateCell(const CellKey& key, const Compiled& compiled) {
  if (compiled.hybrid) {
    if (external_handler_ == nullptr) return Value::Error("#NAME?");
    return external_handler_->EvaluateHybrid(key.sheet, key.row, key.col,
                                             *compiled.ast);
  }
  return EvalScalarNode(*compiled.ast, key.sheet);
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

FormulaEngine::EvalResult FormulaEngine::EvalNode(const FExpr& e,
                                                  Sheet* context) {
  EvalResult out;
  if (e.kind == FKind::kRange) {
    Sheet* target = context;
    if (!e.range.sheet.empty()) {
      auto s = workbook_->GetSheet(e.range.sheet);
      if (!s.ok()) {
        out.scalar = Value::Error("#REF!");
        return out;
      }
      target = s.value();
    }
    out.is_range = true;
    out.rows = e.range.num_rows();
    out.cols = e.range.num_cols();
    out.grid.assign(static_cast<size_t>(out.rows * out.cols), Value::Null());
    target->VisitRange(e.range.start.row, e.range.start.col, e.range.end.row,
                       e.range.end.col,
                       [&](int64_t r, int64_t c, const Cell& cell) {
                         size_t idx = static_cast<size_t>(
                             (r - e.range.start.row) * out.cols +
                             (c - e.range.start.col));
                         out.grid[idx] = cell.value;
                       });
    return out;
  }
  out.scalar = EvalScalarNode(e, context);
  return out;
}

Value FormulaEngine::EvalScalarNode(const FExpr& e, Sheet* context) {
  switch (e.kind) {
    case FKind::kLiteral:
      return e.literal;
    case FKind::kRefError:
      return Value::Error("#REF!");
    case FKind::kCellRef: {
      Sheet* target = context;
      if (!e.cell.sheet.empty()) {
        auto s = workbook_->GetSheet(e.cell.sheet);
        if (!s.ok()) return Value::Error("#REF!");
        target = s.value();
      }
      if (e.cell.row < 0 || e.cell.col < 0) return Value::Error("#REF!");
      return target->GetValue(e.cell.row, e.cell.col);
    }
    case FKind::kRange:
      // A bare range in scalar position (e.g. =A1:B2 + 1) is not supported.
      return Value::Error("#VALUE!");
    case FKind::kUnary: {
      Value a = EvalScalarNode(*e.args[0], context);
      if (a.is_error()) return a;
      Value n = CoerceToNumber(a);
      if (n.is_error()) return n;
      if (n.type() == DataType::kInt) {
        return Value::Int(WrappingArith(IntArithOp::kSub, 0, n.int_value()));
      }
      return Value::Real(-n.AsReal().ValueOr(0.0));
    }
    case FKind::kBinary: {
      Value a = EvalScalarNode(*e.args[0], context);
      if (a.is_error()) return a;
      Value b = EvalScalarNode(*e.args[1], context);
      if (b.is_error()) return b;
      const std::string& op = e.op;
      if (op == "&") {
        return Value::Text(a.ToDisplayString() + b.ToDisplayString());
      }
      if (op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
          op == ">=") {
        int c = Value::Compare(a, b);
        if (op == "=") return Value::Bool(c == 0);
        if (op == "<>") return Value::Bool(c != 0);
        if (op == "<") return Value::Bool(c < 0);
        if (op == "<=") return Value::Bool(c <= 0);
        if (op == ">") return Value::Bool(c > 0);
        return Value::Bool(c >= 0);
      }
      Value na = CoerceToNumber(a);
      if (na.is_error()) return na;
      Value nb = CoerceToNumber(b);
      if (nb.is_error()) return nb;
      double x = na.AsReal().ValueOr(0.0);
      double y = nb.AsReal().ValueOr(0.0);
      bool both_int =
          na.type() == DataType::kInt && nb.type() == DataType::kInt;
      if (op == "+") {
        return both_int ? Value::Int(WrappingArith(
                              IntArithOp::kAdd, na.int_value(), nb.int_value()))
                        : Value::Real(x + y);
      }
      if (op == "-") {
        return both_int ? Value::Int(WrappingArith(
                              IntArithOp::kSub, na.int_value(), nb.int_value()))
                        : Value::Real(x - y);
      }
      if (op == "*") {
        return both_int ? Value::Int(WrappingArith(
                              IntArithOp::kMul, na.int_value(), nb.int_value()))
                        : Value::Real(x * y);
      }
      if (op == "/") {
        if (y == 0.0) return Value::Error("#DIV/0!");
        return Value::Real(x / y);
      }
      if (op == "^") return Value::Real(std::pow(x, y));
      return Value::Error("#VALUE!");
    }
    case FKind::kFunction: {
      if (e.op == "DBSQL" || e.op == "DBTABLE") {
        // Hybrid constructs are only valid as the whole formula; nested use
        // cannot spill and is rejected.
        return Value::Error("#VALUE!");
      }
      if (!IsBuiltinFunction(e.op)) return Value::Error("#NAME?");
      std::vector<FArg> args;
      args.reserve(e.args.size());
      for (const FExprPtr& a : e.args) {
        EvalResult r = EvalNode(*a, context);
        FArg arg;
        if (r.is_range) {
          arg.is_range = true;
          arg.rows = r.rows;
          arg.cols = r.cols;
          arg.grid = std::move(r.grid);
        } else {
          arg.scalar = std::move(r.scalar);
        }
        args.push_back(std::move(arg));
      }
      return CallBuiltin(e.op, args);
    }
  }
  return Value::Error("#VALUE!");
}

Result<Value> FormulaEngine::EvaluateImmediate(Sheet* sheet,
                                               std::string_view formula_text,
                                               int64_t row, int64_t col) {
  (void)row;
  (void)col;
  DS_ASSIGN_OR_RETURN(FExprPtr ast, ParseFormula(formula_text));
  return EvalScalarNode(*ast, sheet);
}

// ---------------------------------------------------------------------------
// Structural adjustment (row/column insertion and deletion)
// ---------------------------------------------------------------------------

bool FormulaEngine::AdjustRef(CellRef* ref, Sheet* ref_sheet, Sheet* changed,
                              const SheetEvent& event) const {
  if (ref_sheet != changed) return true;
  switch (event.kind) {
    case SheetEvent::Kind::kRowsInserted:
      if (ref->row >= event.index) ref->row += event.count;
      return true;
    case SheetEvent::Kind::kRowsDeleted:
      if (ref->row >= event.index + event.count) {
        ref->row -= event.count;
        return true;
      }
      if (ref->row >= event.index) return false;  // referenced row destroyed
      return true;
    case SheetEvent::Kind::kColsInserted:
      if (ref->col >= event.index) ref->col += event.count;
      return true;
    case SheetEvent::Kind::kColsDeleted:
      if (ref->col >= event.index + event.count) {
        ref->col -= event.count;
        return true;
      }
      if (ref->col >= event.index) return false;
      return true;
    default:
      return true;
  }
}

bool FormulaEngine::AdjustRangeRef(RangeRef* range, Sheet* ref_sheet,
                                   Sheet* changed,
                                   const SheetEvent& event) const {
  if (ref_sheet != changed) return true;
  bool is_rows = event.kind == SheetEvent::Kind::kRowsInserted ||
                 event.kind == SheetEvent::Kind::kRowsDeleted;
  int64_t* lo = is_rows ? &range->start.row : &range->start.col;
  int64_t* hi = is_rows ? &range->end.row : &range->end.col;
  if (event.kind == SheetEvent::Kind::kRowsInserted ||
      event.kind == SheetEvent::Kind::kColsInserted) {
    if (*lo >= event.index) *lo += event.count;
    if (*hi >= event.index) *hi += event.count;
    return true;
  }
  // Deletion: clamp the range to the surviving region.
  int64_t del_lo = event.index;
  int64_t del_hi = event.index + event.count;  // exclusive
  if (*lo >= del_hi) {
    *lo -= event.count;
  } else if (*lo >= del_lo) {
    *lo = del_lo;
  }
  if (*hi >= del_hi) {
    *hi -= event.count;
  } else if (*hi >= del_lo) {
    *hi = del_lo - 1;
  }
  return *hi >= *lo;  // false = range entirely deleted
}

bool FormulaEngine::AdjustAst(FExpr* e, Sheet* context, Sheet* changed,
                              const SheetEvent& event) {
  bool broke = false;
  switch (e->kind) {
    case FKind::kCellRef: {
      Sheet* target = context;
      if (!e->cell.sheet.empty()) {
        auto s = workbook_->GetSheet(e->cell.sheet);
        target = s.ok() ? s.value() : nullptr;
      }
      if (target != nullptr && !AdjustRef(&e->cell, target, changed, event)) {
        e->kind = FKind::kRefError;
        broke = true;
      }
      return broke;
    }
    case FKind::kRange: {
      Sheet* target = context;
      if (!e->range.sheet.empty()) {
        auto s = workbook_->GetSheet(e->range.sheet);
        target = s.ok() ? s.value() : nullptr;
      }
      if (target != nullptr &&
          !AdjustRangeRef(&e->range, target, changed, event)) {
        e->kind = FKind::kRefError;
        broke = true;
      }
      return broke;
    }
    default:
      for (FExprPtr& a : e->args) {
        if (a && AdjustAst(a.get(), context, changed, event)) broke = true;
      }
      return broke;
  }
}

void FormulaEngine::OnStructuralChange(Sheet* sheet, const SheetEvent& event) {
  bool is_rows = event.kind == SheetEvent::Kind::kRowsInserted ||
                 event.kind == SheetEvent::Kind::kRowsDeleted;
  bool is_insert = event.kind == SheetEvent::Kind::kRowsInserted ||
                   event.kind == SheetEvent::Kind::kColsInserted;

  // 1. Re-key formulas and dirty cells on the edited sheet.
  auto shift_key = [&](CellKey k) -> std::optional<CellKey> {
    if (k.sheet != sheet) return k;
    int64_t* coord = is_rows ? &k.row : &k.col;
    if (is_insert) {
      if (*coord >= event.index) *coord += event.count;
      return k;
    }
    if (*coord >= event.index + event.count) {
      *coord -= event.count;
      return k;
    }
    if (*coord >= event.index) return std::nullopt;  // cell destroyed
    return k;
  };

  std::unordered_map<CellKey, Compiled, CellKeyHash> new_formulas;
  for (auto& [key, compiled] : formulas_) {
    auto nk = shift_key(key);
    if (nk.has_value()) new_formulas.emplace(*nk, std::move(compiled));
  }
  formulas_ = std::move(new_formulas);

  std::unordered_set<CellKey, CellKeyHash> new_dirty;
  for (const CellKey& key : dirty_) {
    auto nk = shift_key(key);
    if (nk.has_value()) new_dirty.insert(*nk);
  }
  dirty_ = std::move(new_dirty);

  // 2. Adjust references in every formula (any sheet may reference this one),
  //    rewrite stored text, and rebuild dependency records.
  exact_rev_.clear();
  range_rev_.clear();
  adjusting_ = true;
  for (auto& [key, compiled] : formulas_) {
    bool broke = AdjustAst(compiled.ast.get(), key.sheet, sheet, event);
    compiled.cell_deps.clear();
    compiled.range_deps.clear();
    if (compiled.hybrid && external_handler_ != nullptr) {
      (void)external_handler_->AnalyzeDependencies(key.sheet, key.row, key.col,
                                                   *compiled.ast,
                                                   &compiled.cell_deps,
                                                   &compiled.range_deps);
    } else {
      ExtractDeps(key.sheet, *compiled.ast, &compiled);
    }
    RegisterDeps(key, compiled);
    (void)key.sheet->ReplaceFormulaText(key.row, key.col,
                                        "=" + compiled.ast->ToText());
    if (broke) dirty_.insert(key);
  }
  adjusting_ = false;

  // 3. Deletions destroy referenced content: any formula whose precedent set
  //    intersected the removed band was either #REF!'d (handled above) or had
  //    a range clamped — ranges clamped still change value, so mark formulas
  //    whose range deps touched the band dirty.
  if (!is_insert) {
    for (auto& [key, compiled] : formulas_) {
      for (const RangeDep& r : compiled.range_deps) {
        if (r.sheet != sheet) continue;
        int64_t lo = is_rows ? r.r0 : r.c0;
        int64_t hi = is_rows ? r.r1 : r.c1;
        // After clamping, a range that abuts the deleted band may have lost
        // members; conservatively dirty formulas near the band.
        if (hi >= event.index - 1 && lo <= event.index + event.count) {
          dirty_.insert(key);
          break;
        }
      }
    }
  }
}

}  // namespace dataspread::formula
