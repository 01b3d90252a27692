#include "storage/hybrid_store.h"

#include <algorithm>
#include <utility>

#include "storage/page_cursor.h"

namespace dataspread {

namespace {

/// GatherRows over one row-major file of `width`-slot tuples (an attribute
/// group): appends tuple offset `offsets[j]` of every listed slot to
/// `*out[j]`, for j in [0, k).
void GatherRowMajor(storage::Pager& pager, storage::FileId file, size_t width,
                    const size_t* slots, size_t n, const size_t* offsets,
                    ColumnVector* const* out, size_t k) {
  if (k == 0 || n == 0) return;
  // The listed offsets span [lo, hi] of each tuple: one ReadSpan per run of
  // consecutive slots on a page, accounting the [lo, hi] sub-tuple of each
  // slot (what a per-slot read would count), then a value copy per listed
  // column and slot.
  size_t lo = offsets[0], hi = offsets[0];
  for (size_t j = 0; j < k; ++j) {
    lo = std::min(lo, offsets[j]);
    hi = std::max(hi, offsets[j]);
    out[j]->Reserve(out[j]->size() + n);
  }
  const uint64_t span = hi - lo + 1;
  constexpr uint64_t kSlotsPerPage = storage::Pager::kSlotsPerPage;
  storage::PageCursor cursor(pager, file);
  for (size_t i = 0; i < n;) {
    uint64_t first = static_cast<uint64_t>(slots[i]) * width + lo;
    uint64_t page = first / kSlotsPerPage;
    if (page == (first + span - 1) / kSlotsPerPage) {
      // A run of consecutive slots whose sub-tuples share the page: one
      // span read for the run, accounted as the sub-tuples it copies.
      size_t end = i + 1;
      while (end < n && slots[end] == slots[end - 1] + 1 &&
             (static_cast<uint64_t>(slots[end]) * width + hi) / kSlotsPerPage ==
                 page) {
        ++end;
      }
      const uint64_t tuples = end - i;
      const Value* run =
          cursor.ReadSpan(first, (tuples - 1) * width + span, tuples * span);
      for (size_t j = 0; j < k; ++j) {
        out[j]->AppendStrided(run + (offsets[j] - lo), width, tuples);
      }
      i = end;
    } else {
      // The sub-tuple straddles a page boundary: per-slot reads.
      for (size_t j = 0; j < k; ++j) {
        out[j]->Append(cursor.Read(first + (offsets[j] - lo)));
      }
      ++i;
    }
  }
}

}  // namespace

HybridStore::HybridStore(StorageModel model, size_t num_columns,
                         storage::Pager* pager,
                         const storage::PagerConfig& config)
    : TableStorage(pager, config), model_(model) {
  col_map_.reserve(num_columns);
  if (model_ == StorageModel::kColumn) {
    for (size_t c = 0; c < num_columns; ++c) {
      groups_.push_back(Group{1, pager_->CreateFile()});
      col_map_.push_back(ColumnLoc{c, 0});
    }
  } else if (num_columns > 0 || model_ == StorageModel::kRow) {
    // The row layout owns its heap even at width 0.
    groups_.push_back(Group{num_columns, pager_->CreateFile()});
    for (size_t c = 0; c < num_columns; ++c) {
      col_map_.push_back(ColumnLoc{0, c});
    }
  }
}

HybridStore::HybridStore(StorageModel model, storage::Pager* pager,
                         size_t num_rows)
    : TableStorage(pager, {}), model_(model), num_rows_(num_rows) {
  set_retain_files(true);
}

HybridStore::~HybridStore() {
  if (retain_files()) return;
  for (const Group& g : groups_) pager_->DropFile(g.file);
}

Result<std::vector<StorageManifest::Group>> HybridStore::ManifestGroups(
    const StorageManifest& manifest) {
  std::vector<StorageManifest::Group> groups;
  switch (manifest.model) {
    case StorageModel::kRow: {
      if (manifest.files.size() != 1) {
        return Status::Internal("row-store manifest must name one heap");
      }
      StorageManifest::Group g;
      g.file = manifest.files[0];
      g.width = manifest.num_columns;
      for (uint32_t c = 0; c < manifest.num_columns; ++c) {
        g.columns.push_back(c);
      }
      groups.push_back(std::move(g));
      return groups;
    }
    case StorageModel::kColumn:
      if (manifest.files.size() != manifest.num_columns) {
        return Status::Internal("column-store manifest arity mismatch");
      }
      for (uint32_t c = 0; c < manifest.num_columns; ++c) {
        groups.push_back(StorageManifest::Group{manifest.files[c], 1, {c}});
      }
      return groups;
    case StorageModel::kHybrid:
      for (const StorageManifest::Group& g : manifest.groups) {
        if (g.width == 0 || g.columns.size() != g.width) {
          return Status::Internal("hybrid manifest group is malformed");
        }
      }
      return manifest.groups;
    case StorageModel::kRcv:
      break;
  }
  return Status::Internal("storage manifest has no attribute groups");
}

Result<std::unique_ptr<HybridStore>> HybridStore::Attach(
    const StorageManifest& manifest, uint64_t num_rows,
    storage::Pager* pager) {
  DS_ASSIGN_OR_RETURN(std::vector<StorageManifest::Group> groups,
                      ManifestGroups(manifest));
  const char* heap = manifest.model == StorageModel::kRow ? "row heap"
                     : manifest.model == StorageModel::kColumn
                         ? "column heap"
                         : "attribute group";
  auto store = std::unique_ptr<HybridStore>(
      new HybridStore(manifest.model, pager, static_cast<size_t>(num_rows)));
  store->col_map_.resize(manifest.num_columns, ColumnLoc{~size_t{0}, 0});
  size_t mapped = 0;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const StorageManifest::Group& mg = groups[gi];
    if (!pager->HasFile(mg.file)) {
      return Status::Internal("storage manifest names a dead pager file");
    }
    // WAL brackets discard a torn statement whole, so a committed log leaves
    // every group at exactly the catalog's row count; anything else is
    // corruption, reported and never repaired.
    uint64_t want = num_rows * mg.width;
    if (pager->FileSize(mg.file) != want) {
      return Status::Corruption(std::string("recovered ") + heap + " holds " +
                                std::to_string(pager->FileSize(mg.file)) +
                                " slots, the catalog's row count " +
                                std::to_string(want));
    }
    store->groups_.push_back(Group{mg.width, mg.file});
    for (size_t o = 0; o < mg.columns.size(); ++o) {
      uint32_t col = mg.columns[o];
      if (col >= manifest.num_columns ||
          store->col_map_[col].group != ~size_t{0}) {
        return Status::Internal("hybrid manifest column map is not a "
                                "bijection");
      }
      store->col_map_[col] = ColumnLoc{gi, o};
      mapped += 1;
    }
  }
  if (mapped != manifest.num_columns) {
    return Status::Internal("hybrid manifest leaves columns unmapped");
  }
  return store;
}

StorageManifest HybridStore::Manifest() const {
  StorageManifest m;
  m.model = model_;
  m.num_columns = static_cast<uint32_t>(col_map_.size());
  if (model_ != StorageModel::kHybrid) {
    // The row and column layouts' durable form names files only: the row
    // heap, or column c's file at files[c] (column c is group c).
    for (const Group& g : groups_) m.files.push_back(g.file);
    return m;
  }
  m.groups.resize(groups_.size());
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    m.groups[gi].file = groups_[gi].file;
    m.groups[gi].width = static_cast<uint32_t>(groups_[gi].width);
    m.groups[gi].columns.resize(groups_[gi].width, 0);
  }
  for (size_t c = 0; c < col_map_.size(); ++c) {
    m.groups[col_map_[c].group].columns[col_map_[c].offset] =
        static_cast<uint32_t>(c);
  }
  return m;
}

Result<Value> HybridStore::Get(size_t row, size_t col) const {
  DS_RETURN_IF_ERROR(CheckCell(row, col));
  const ColumnLoc& loc = col_map_[col];
  const Group& g = groups_[loc.group];
  return pager_->Read(g.file, Entry(g, row, loc.offset));
}

Status HybridStore::Set(size_t row, size_t col, Value v) {
  DS_RETURN_IF_ERROR(CheckCell(row, col));
  DS_RETURN_IF_ERROR(CheckStorable(v));
  const ColumnLoc& loc = col_map_[col];
  const Group& g = groups_[loc.group];
  pager_->Write(g.file, Entry(g, row, loc.offset), std::move(v));
  return Status::OK();
}

Result<Row> HybridStore::GetRow(size_t row) const {
  if (row >= num_rows_) return Status::OutOfRange("row " + std::to_string(row));
  if (groups_.size() == 1) {
    // Single group (always so in the row layout): the tuple is contiguous
    // and col_map_ is the identity, so one bulk read suffices.
    Row out;
    pager_->ReadRange(groups_[0].file, row * groups_[0].width,
                      groups_[0].width, &out);
    return out;
  }
  Row out;
  out.reserve(col_map_.size());
  for (const ColumnLoc& loc : col_map_) {
    const Group& g = groups_[loc.group];
    out.push_back(pager_->Read(g.file, Entry(g, row, loc.offset)));
  }
  return out;
}

Status HybridStore::GatherRows(const size_t* slots, size_t n,
                               const std::vector<size_t>& columns,
                               ColumnVector* const* out) const {
  DS_RETURN_IF_ERROR(CheckGather(slots, n, columns));
  // One row-major sweep per attribute group holding a listed column: the
  // group's listed offsets are copied out of one span read per tuple, and
  // groups holding no listed column are skipped entirely.
  std::vector<size_t> offsets;
  std::vector<ColumnVector*> dst;
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    offsets.clear();
    dst.clear();
    for (size_t j = 0; j < columns.size(); ++j) {
      const ColumnLoc& loc = col_map_[columns[j]];
      if (loc.group != gi) continue;
      offsets.push_back(loc.offset);
      dst.push_back(out[j]);
    }
    GatherRowMajor(*pager_, groups_[gi].file, groups_[gi].width, slots, n,
                   offsets.data(), dst.data(), offsets.size());
  }
  return Status::OK();
}

Result<size_t> HybridStore::AppendRow(const Row& row) {
  if (row.size() != col_map_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != " +
        std::to_string(col_map_.size()));
  }
  for (const Value& v : row) DS_RETURN_IF_ERROR(CheckStorable(v));
  size_t slot = num_rows_;
  if (groups_.size() == 1) {
    // Identity layout: the whole tuple is one contiguous batched write.
    pager_->WriteRange(groups_[0].file, slot * groups_[0].width, row.data(),
                       row.size());
    num_rows_ += 1;
    return slot;
  }
  // Every (group, offset) pair is mapped by exactly one column, so scattering
  // the tuple through col_map_ grows each group by one full row.
  for (size_t c = 0; c < row.size(); ++c) {
    const ColumnLoc& loc = col_map_[c];
    const Group& g = groups_[loc.group];
    pager_->Write(g.file, Entry(g, slot, loc.offset), row[c]);
  }
  num_rows_ += 1;
  return slot;
}

Result<size_t> HybridStore::DeleteRow(size_t row) {
  if (row >= num_rows_) return Status::OutOfRange("row " + std::to_string(row));
  size_t last = num_rows_ - 1;
  // The last tuple is copied, not taken: Truncate clears its slots in the
  // same statement, so nulling them first would only log a redundant record.
  for (const Group& g : groups_) {
    if (row != last) {
      for (size_t o = 0; o < g.width; ++o) {
        pager_->Write(g.file, Entry(g, row, o),
                      pager_->Read(g.file, Entry(g, last, o)));
      }
    }
    pager_->Truncate(g.file, last * g.width);
  }
  num_rows_ -= 1;
  return last;
}

Status HybridStore::AddColumn(const Value& default_value) {
  DS_RETURN_IF_ERROR(CheckStorable(default_value));
  if (model_ == StorageModel::kRow) {
    WidenRowGroup(default_value);
    col_map_.push_back(ColumnLoc{0, groups_[0].width - 1});
    return Status::OK();
  }
  // Fresh single-attribute group: the schema change writes only this group's
  // pages — ceil(num_rows / 256) of them; every pre-existing page is left
  // untouched.
  Group g{1, pager_->CreateFile()};
  storage::PageCursor(*pager_, g.file).Fill(0, num_rows_, default_value);
  groups_.push_back(g);
  col_map_.push_back(ColumnLoc{groups_.size() - 1, 0});
  return Status::OK();
}

void HybridStore::WidenRowGroup(const Value& default_value) {
  Group& g = groups_[0];
  size_t old_cols = g.width;
  size_t new_cols = old_cols + 1;
  if (pager_->durable()) {
    // Copy-on-write restride (durable DDL): the new layout is built in a
    // fresh file with non-destructive reads, the old heap stays intact
    // until the catalog's DDL record commits, and a crash-reopen binds one
    // complete layout or the other — never a half-restrided heap.
    storage::FileId fresh = pager_->CreateFile();
    {
      storage::PageCursor src(*pager_, g.file);
      storage::PageCursor dst(*pager_, fresh);
      for (size_t r = 0; r < num_rows_; ++r) {
        for (size_t c = 0; c < old_cols; ++c) {
          dst.Write(r * new_cols + c, src.Read(r * old_cols + c));
        }
        dst.Write(r * new_cols + old_cols, default_value);
      }
    }
    retired_files_.push_back(g.file);
    g.file = fresh;
    g.width = new_cols;
    return;
  }
  // The tuple stride grows, so every tuple is rewritten in the new layout.
  // Restriding runs highest-slot-first: each destination slot r*(n+1)+c is >=
  // its source slot r*n+c, and sources still pending are strictly below every
  // slot written so far, so the move is safe in place. Two cursors (source
  // reads, destination writes) keep the rewrite at one pin per page visited
  // per side; both may sit on the same page, which simply pins it twice.
  {
    storage::PageCursor src(*pager_, g.file);
    storage::PageCursor dst(*pager_, g.file);
    for (size_t r = num_rows_; r-- > 0;) {
      dst.Write(r * new_cols + old_cols, default_value);
      for (size_t c = old_cols; c-- > 0;) {
        dst.Write(r * new_cols + c, src.Take(r * old_cols + c));
      }
    }
  }
  g.width = new_cols;
}

void HybridStore::NarrowGroup(size_t group_index, size_t offset) {
  Group& g = groups_[group_index];
  const size_t new_width = g.width - 1;
  // Durable DDL is copy-on-write: the narrowed group is built in a fresh
  // file with non-destructive reads, and the old one stays intact until the
  // catalog's DDL record commits. A scratch pager compacts in place, forward:
  // destinations never pass their sources. Either way the cursors keep the
  // rewrite at one pin per page per side, and are released (scope exit)
  // before Truncate frees the tail.
  const bool cow = pager_->durable();
  const storage::FileId target = cow ? pager_->CreateFile() : g.file;
  {
    storage::PageCursor src(*pager_, g.file);
    storage::PageCursor dst(*pager_, target);
    uint64_t dst_slot = 0;
    for (size_t r = 0; r < num_rows_; ++r) {
      for (size_t o = 0; o < g.width; ++o) {
        if (o == offset) continue;
        uint64_t e = Entry(g, r, o);
        dst.Write(dst_slot++, cow ? Value(src.Read(e)) : src.Take(e));
      }
    }
  }
  if (cow) {
    retired_files_.push_back(g.file);
    g.file = target;
  } else {
    pager_->Truncate(g.file, num_rows_ * new_width);
  }
  g.width = new_width;
}

Status HybridStore::DropColumn(size_t col) {
  if (col >= col_map_.size()) {
    return Status::OutOfRange("column " + std::to_string(col));
  }
  ColumnLoc loc = col_map_[col];
  if (groups_[loc.group].width == 1 && model_ != StorageModel::kRow) {
    // The whole group disappears: pure metadata operation, zero page writes.
    // Durable DDL retires the file (it must outlive the DDL record).
    if (pager_->durable()) {
      retired_files_.push_back(groups_[loc.group].file);
    } else {
      pager_->DropFile(groups_[loc.group].file);
    }
    groups_.erase(groups_.begin() + static_cast<ptrdiff_t>(loc.group));
    for (ColumnLoc& l : col_map_) {
      if (l.group > loc.group) l.group -= 1;
    }
  } else {
    // Rewrite only this group's pages; all other groups untouched. The row
    // layout's heap narrows to width 0 with its last column instead of
    // disappearing.
    NarrowGroup(loc.group, loc.offset);
    for (ColumnLoc& l : col_map_) {
      if (l.group == loc.group && l.offset > loc.offset) l.offset -= 1;
    }
  }
  col_map_.erase(col_map_.begin() + static_cast<ptrdiff_t>(col));
  return Status::OK();
}

Status HybridStore::Reorganize() {
  if (model_ != StorageModel::kHybrid || groups_.size() <= 1) {
    return Status::OK();
  }
  bool cow = pager_->durable();
  Group merged;
  merged.width = col_map_.size();
  merged.file = pager_->CreateFile();
  {
    // A write cursor streams the merged file; one read cursor per source
    // group moves the values out in row order. Durable DDL reads instead
    // of taking — the source groups must stay intact until the catalog's
    // kReorganize record commits the new group→file structure.
    storage::PageCursor dst(*pager_, merged.file);
    std::vector<storage::PageCursor> srcs;
    srcs.reserve(groups_.size());
    for (const Group& g : groups_) srcs.emplace_back(*pager_, g.file);
    for (size_t r = 0; r < num_rows_; ++r) {
      uint64_t dst_slot = r * merged.width;
      for (const ColumnLoc& loc : col_map_) {
        const Group& g = groups_[loc.group];
        storage::PageCursor& src = srcs[loc.group];
        uint64_t e = Entry(g, r, loc.offset);
        dst.Write(dst_slot++, cow ? Value(src.Read(e)) : src.Take(e));
      }
    }
  }
  for (const Group& g : groups_) {
    if (cow) {
      retired_files_.push_back(g.file);
    } else {
      pager_->DropFile(g.file);
    }
  }
  groups_.clear();
  groups_.push_back(merged);
  for (size_t c = 0; c < col_map_.size(); ++c) {
    col_map_[c] = ColumnLoc{0, c};
  }
  return Status::OK();
}

}  // namespace dataspread
