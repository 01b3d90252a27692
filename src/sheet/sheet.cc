#include "sheet/sheet.h"

#include <algorithm>

namespace dataspread {

namespace {
constexpr int64_t kMaxAxis = int64_t{1} << 31;
}  // namespace

Sheet::Sheet(std::string name, int64_t initial_rows, int64_t initial_cols)
    : name_(std::move(name)) {
  std::vector<uint64_t> rows(static_cast<size_t>(initial_rows));
  for (auto& r : rows) r = next_row_id_++;
  row_axis_.Build(rows);
  std::vector<uint64_t> cols(static_cast<size_t>(initial_cols));
  for (auto& c : cols) c = next_col_id_++;
  col_axis_.Build(cols);
}

Status Sheet::EnsureSize(int64_t row, int64_t col) {
  if (row < 0 || col < 0) {
    return Status::OutOfRange("negative cell coordinate");
  }
  if (row >= kMaxAxis || col >= kMaxAxis) {
    return Status::OutOfRange("cell coordinate beyond sheet limits");
  }
  while (num_rows() <= row) row_axis_.PushBack(next_row_id_++);
  while (num_cols() <= col) col_axis_.PushBack(next_col_id_++);
  return Status::OK();
}

Result<std::pair<uint64_t, uint64_t>> Sheet::IdsAt(int64_t row,
                                                   int64_t col) const {
  DS_ASSIGN_OR_RETURN(uint64_t rid, row_axis_.Get(static_cast<size_t>(row)));
  DS_ASSIGN_OR_RETURN(uint64_t cid, col_axis_.Get(static_cast<size_t>(col)));
  return std::pair<uint64_t, uint64_t>{rid, cid};
}

Cell* Sheet::FindCellById(uint64_t rid, uint64_t cid) {
  uint32_t slot = tile_directory_.Find(static_cast<int64_t>(rid >> GridIndex::kTileBits),
                                       static_cast<int64_t>(cid >> GridIndex::kTileBits));
  if (slot == GridIndex::kNoSlot) return nullptr;
  uint16_t offset = static_cast<uint16_t>(((rid & 31) << 5) | (cid & 31));
  auto it = tiles_[slot].cells.find(offset);
  return it == tiles_[slot].cells.end() ? nullptr : &it->second;
}

const Cell* Sheet::FindCellById(uint64_t rid, uint64_t cid) const {
  return const_cast<Sheet*>(this)->FindCellById(rid, cid);
}

const Cell* Sheet::GetCell(int64_t row, int64_t col) const {
  if (row < 0 || col < 0 || row >= num_rows() || col >= num_cols()) {
    return nullptr;
  }
  auto ids = IdsAt(row, col);
  if (!ids.ok()) return nullptr;
  return FindCellById(ids.value().first, ids.value().second);
}

Value Sheet::GetValue(int64_t row, int64_t col) const {
  const Cell* cell = GetCell(row, col);
  return cell == nullptr ? Value::Null() : cell->value;
}

void Sheet::StoreCell(uint64_t rid, uint64_t cid, Cell cell) {
  int64_t tr = static_cast<int64_t>(rid >> GridIndex::kTileBits);
  int64_t tc = static_cast<int64_t>(cid >> GridIndex::kTileBits);
  uint32_t slot = tile_directory_.Find(tr, tc);
  if (slot == GridIndex::kNoSlot) {
    slot = static_cast<uint32_t>(tiles_.size());
    tiles_.emplace_back();
    (void)tile_directory_.Insert(tr, tc, slot);
  }
  uint16_t offset = static_cast<uint16_t>(((rid & 31) << 5) | (cid & 31));
  auto it = tiles_[slot].cells.find(offset);
  if (it != tiles_[slot].cells.end()) {
    it->second = std::move(cell);
    return;
  }
  tiles_[slot].cells.emplace(offset, std::move(cell));
  cell_count_ += 1;
  row_occupancy_[rid] += 1;
  col_occupancy_[cid] += 1;
}

void Sheet::EraseCell(uint64_t rid, uint64_t cid) {
  int64_t tr = static_cast<int64_t>(rid >> GridIndex::kTileBits);
  int64_t tc = static_cast<int64_t>(cid >> GridIndex::kTileBits);
  uint32_t slot = tile_directory_.Find(tr, tc);
  if (slot == GridIndex::kNoSlot) return;
  uint16_t offset = static_cast<uint16_t>(((rid & 31) << 5) | (cid & 31));
  if (tiles_[slot].cells.erase(offset) == 0) return;
  cell_count_ -= 1;
  if (--row_occupancy_[rid] == 0) row_occupancy_.erase(rid);
  if (--col_occupancy_[cid] == 0) col_occupancy_.erase(cid);
  if (tiles_[slot].cells.empty()) {
    // The tile slot stays allocated (vector-stable); only the directory entry
    // is dropped so rectangle visits skip it.
    tile_directory_.Erase(tr, tc);
  }
}

Status Sheet::SetValue(int64_t row, int64_t col, Value v) {
  DS_RETURN_IF_ERROR(EnsureSize(row, col));
  DS_ASSIGN_OR_RETURN(auto ids, IdsAt(row, col));
  if (v.is_null()) {
    EraseCell(ids.first, ids.second);
  } else {
    Cell cell;
    cell.value = std::move(v);
    StoreCell(ids.first, ids.second, std::move(cell));
  }
  Notify(SheetEvent{SheetEvent::Kind::kCellChanged, row, col, 0, 0});
  return Status::OK();
}

Status Sheet::SetFormula(int64_t row, int64_t col, std::string formula) {
  if (formula.empty() || formula[0] != '=') {
    return Status::InvalidArgument("formula must start with '='");
  }
  DS_RETURN_IF_ERROR(EnsureSize(row, col));
  DS_ASSIGN_OR_RETURN(auto ids, IdsAt(row, col));
  Cell cell;
  Cell* existing = FindCellById(ids.first, ids.second);
  if (existing != nullptr) cell.value = existing->value;
  cell.formula = std::move(formula);
  StoreCell(ids.first, ids.second, std::move(cell));
  Notify(SheetEvent{SheetEvent::Kind::kCellChanged, row, col, 0, 0,
                    /*has_formula=*/true});
  return Status::OK();
}

Status Sheet::SetComputedValue(int64_t row, int64_t col, Value v) {
  DS_RETURN_IF_ERROR(EnsureSize(row, col));
  DS_ASSIGN_OR_RETURN(auto ids, IdsAt(row, col));
  Cell* existing = FindCellById(ids.first, ids.second);
  if (existing == nullptr) {
    Cell cell;
    cell.value = std::move(v);
    StoreCell(ids.first, ids.second, std::move(cell));
  } else {
    existing->value = std::move(v);
  }
  // Computed writes do not notify: the engine manages downstream dirtying
  // itself, and echoing would loop the recalculation.
  return Status::OK();
}

Status Sheet::ReplaceFormulaText(int64_t row, int64_t col,
                                 std::string formula) {
  DS_ASSIGN_OR_RETURN(auto ids, IdsAt(row, col));
  Cell* existing = FindCellById(ids.first, ids.second);
  if (existing == nullptr) {
    return Status::NotFound("no cell at " + std::to_string(row) + "," +
                            std::to_string(col));
  }
  existing->formula = std::move(formula);
  return Status::OK();
}

Status Sheet::ClearCell(int64_t row, int64_t col) {
  if (row < 0 || col < 0 || row >= num_rows() || col >= num_cols()) {
    return Status::OK();  // clearing outside the extent is a no-op
  }
  DS_ASSIGN_OR_RETURN(auto ids, IdsAt(row, col));
  EraseCell(ids.first, ids.second);
  Notify(SheetEvent{SheetEvent::Kind::kCellChanged, row, col, 0, 0});
  return Status::OK();
}

Status Sheet::InsertRows(int64_t before, int64_t count) {
  if (before < 0 || before > num_rows() || count < 0) {
    return Status::OutOfRange("InsertRows(" + std::to_string(before) + ", " +
                              std::to_string(count) + ")");
  }
  for (int64_t i = 0; i < count; ++i) {
    DS_RETURN_IF_ERROR(row_axis_.InsertAt(static_cast<size_t>(before),
                                          next_row_id_++));
  }
  Notify(SheetEvent{SheetEvent::Kind::kRowsInserted, 0, 0, before, count});
  return Status::OK();
}

void Sheet::DropCellsForIds(const std::vector<uint64_t>& ids,
                            bool axis_is_row) {
  for (uint64_t id : ids) {
    auto& occupancy = axis_is_row ? row_occupancy_ : col_occupancy_;
    if (occupancy.find(id) == occupancy.end()) continue;
    // Collect the occupied partners, then erase (avoid mutating during scan).
    std::vector<std::pair<uint64_t, uint64_t>> doomed;
    tile_directory_.VisitAll([&](int64_t tr, int64_t tc, uint32_t slot) {
      int64_t tile_lo = axis_is_row ? tr : tc;
      if (tile_lo != static_cast<int64_t>(id >> GridIndex::kTileBits)) return;
      for (const auto& [offset, cell] : tiles_[slot].cells) {
        (void)cell;
        uint64_t rid =
            (static_cast<uint64_t>(tr) << GridIndex::kTileBits) | (offset >> 5);
        uint64_t cid =
            (static_cast<uint64_t>(tc) << GridIndex::kTileBits) | (offset & 31);
        if ((axis_is_row ? rid : cid) == id) doomed.emplace_back(rid, cid);
      }
    });
    for (const auto& [rid, cid] : doomed) EraseCell(rid, cid);
  }
}

Status Sheet::DeleteRows(int64_t first, int64_t count) {
  if (first < 0 || count < 0 || first + count > num_rows()) {
    return Status::OutOfRange("DeleteRows(" + std::to_string(first) + ", " +
                              std::to_string(count) + ")");
  }
  std::vector<uint64_t> removed;
  removed.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    DS_ASSIGN_OR_RETURN(uint64_t rid,
                        row_axis_.EraseAt(static_cast<size_t>(first)));
    removed.push_back(rid);
  }
  DropCellsForIds(removed, /*axis_is_row=*/true);
  Notify(SheetEvent{SheetEvent::Kind::kRowsDeleted, 0, 0, first, count});
  return Status::OK();
}

Status Sheet::InsertCols(int64_t before, int64_t count) {
  if (before < 0 || before > num_cols() || count < 0) {
    return Status::OutOfRange("InsertCols(" + std::to_string(before) + ", " +
                              std::to_string(count) + ")");
  }
  for (int64_t i = 0; i < count; ++i) {
    DS_RETURN_IF_ERROR(col_axis_.InsertAt(static_cast<size_t>(before),
                                          next_col_id_++));
  }
  Notify(SheetEvent{SheetEvent::Kind::kColsInserted, 0, 0, before, count});
  return Status::OK();
}

Status Sheet::DeleteCols(int64_t first, int64_t count) {
  if (first < 0 || count < 0 || first + count > num_cols()) {
    return Status::OutOfRange("DeleteCols(" + std::to_string(first) + ", " +
                              std::to_string(count) + ")");
  }
  std::vector<uint64_t> removed;
  removed.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    DS_ASSIGN_OR_RETURN(uint64_t cid,
                        col_axis_.EraseAt(static_cast<size_t>(first)));
    removed.push_back(cid);
  }
  DropCellsForIds(removed, /*axis_is_row=*/false);
  Notify(SheetEvent{SheetEvent::Kind::kColsDeleted, 0, 0, first, count});
  return Status::OK();
}

void Sheet::VisitRange(
    int64_t r0, int64_t c0, int64_t r1, int64_t c1,
    const std::function<void(int64_t, int64_t, const Cell&)>& fn) const {
  r0 = std::max<int64_t>(r0, 0);
  c0 = std::max<int64_t>(c0, 0);
  r1 = std::min<int64_t>(r1, num_rows() - 1);
  c1 = std::min<int64_t>(c1, num_cols() - 1);
  if (r1 < r0 || c1 < c0) return;
  // Resolve axis ids once per row/column of the rectangle.
  std::vector<uint64_t> rids =
      row_axis_.GetRange(static_cast<size_t>(r0), static_cast<size_t>(r1 - r0 + 1));
  std::vector<uint64_t> cids =
      col_axis_.GetRange(static_cast<size_t>(c0), static_cast<size_t>(c1 - c0 + 1));
  for (size_t ri = 0; ri < rids.size(); ++ri) {
    if (row_occupancy_.find(rids[ri]) == row_occupancy_.end()) continue;
    for (size_t ci = 0; ci < cids.size(); ++ci) {
      const Cell* cell = FindCellById(rids[ri], cids[ci]);
      if (cell != nullptr) {
        fn(r0 + static_cast<int64_t>(ri), c0 + static_cast<int64_t>(ci), *cell);
      }
    }
  }
}

std::pair<int64_t, int64_t> Sheet::UsedExtent() const {
  int64_t max_row = -1;
  int64_t max_col = -1;
  row_axis_.Visit(0, row_axis_.size(), [&](size_t pos, uint64_t rid) {
    if (row_occupancy_.find(rid) != row_occupancy_.end()) {
      max_row = std::max<int64_t>(max_row, static_cast<int64_t>(pos));
    }
  });
  col_axis_.Visit(0, col_axis_.size(), [&](size_t pos, uint64_t cid) {
    if (col_occupancy_.find(cid) != col_occupancy_.end()) {
      max_col = std::max<int64_t>(max_col, static_cast<int64_t>(pos));
    }
  });
  return {max_row + 1, max_col + 1};
}

int Sheet::AddListener(Listener listener) {
  int token = next_listener_token_++;
  listeners_.emplace_back(token, std::move(listener));
  return token;
}

void Sheet::RemoveListener(int token) {
  for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
    if (it->first == token) {
      listeners_.erase(it);
      return;
    }
  }
}

void Sheet::Notify(const SheetEvent& event) {
  auto snapshot = listeners_;
  for (const auto& [token, fn] : snapshot) {
    (void)token;
    fn(event);
  }
}

}  // namespace dataspread
