#include "storage/hybrid_store.h"

#include <utility>

#include "storage/page_cursor.h"

namespace dataspread {

namespace {
Status CheckStorable(const Value& v) {
  if (v.is_error()) {
    return Status::TypeError("error value " + v.error_code() +
                             " cannot enter relational storage");
  }
  return Status::OK();
}
}  // namespace

HybridStore::HybridStore(size_t num_columns, storage::Pager* pager,
                   const storage::PagerConfig& config)
    : TableStorage(pager, config) {
  if (num_columns > 0) {
    Group g;
    g.width = num_columns;
    g.file = pager_->CreateFile();
    groups_.push_back(g);
    col_map_.reserve(num_columns);
    for (size_t i = 0; i < num_columns; ++i) {
      col_map_.push_back(ColumnLoc{0, i});
    }
  }
}

HybridStore::HybridStore(storage::Pager* pager, size_t num_rows)
    : TableStorage(pager, {}), num_rows_(num_rows) {
  set_retain_files(true);
}

HybridStore::~HybridStore() {
  if (retain_files()) return;
  for (const Group& g : groups_) pager_->DropFile(g.file);
}

Result<std::unique_ptr<HybridStore>> HybridStore::Attach(
    const StorageManifest& manifest, uint64_t num_rows,
    storage::Pager* pager) {
  auto store = std::unique_ptr<HybridStore>(
      new HybridStore(pager, static_cast<size_t>(num_rows)));
  store->col_map_.resize(manifest.num_columns, ColumnLoc{~size_t{0}, 0});
  size_t mapped = 0;
  for (size_t gi = 0; gi < manifest.groups.size(); ++gi) {
    const StorageManifest::Group& mg = manifest.groups[gi];
    if (!pager->HasFile(mg.file) || mg.columns.size() != mg.width ||
        mg.width == 0) {
      return Status::Internal("hybrid manifest group is malformed or names a "
                              "dead file");
    }
    // As in RowStore::Attach: a committed log never leaves a group longer
    // or shorter than the catalog's row count.
    uint64_t want = num_rows * mg.width;
    if (pager->FileSize(mg.file) != want) {
      return Status::Corruption("recovered attribute group holds " +
                                std::to_string(pager->FileSize(mg.file)) +
                                " slots, the catalog's row count " +
                                std::to_string(want));
    }
    Group g;
    g.width = mg.width;
    g.file = mg.file;
    store->groups_.push_back(g);
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
  m.model = StorageModel::kHybrid;
  m.num_columns = static_cast<uint32_t>(col_map_.size());
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
    // Single group (no schema changes since creation/Reorganize): the tuple
    // is contiguous and col_map_ is the identity, so one bulk read suffices.
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
  // Fresh single-attribute group: the schema change writes only this group's
  // pages — ceil(num_rows / 256) of them; every pre-existing page is left
  // untouched.
  Group g;
  g.width = 1;
  g.file = pager_->CreateFile();
  storage::PageCursor(*pager_, g.file).Fill(0, num_rows_, default_value);
  groups_.push_back(g);
  col_map_.push_back(ColumnLoc{groups_.size() - 1, 0});
  return Status::OK();
}

void HybridStore::CompactGroupWithoutOffset(size_t group_index, size_t offset) {
  Group& g = groups_[group_index];
  size_t new_width = g.width - 1;
  // Forward in-place compaction: destinations never pass their sources.
  // Cursors keep the rewrite at one pin per page per side; both are released
  // (scope exit) before Truncate frees the tail.
  {
    storage::PageCursor src(*pager_, g.file);
    storage::PageCursor dst(*pager_, g.file);
    uint64_t dst_slot = 0;
    for (size_t r = 0; r < num_rows_; ++r) {
      for (size_t o = 0; o < g.width; ++o) {
        if (o == offset) continue;
        dst.Write(dst_slot++, src.Take(Entry(g, r, o)));
      }
    }
  }
  pager_->Truncate(g.file, num_rows_ * new_width);
  g.width = new_width;
}

Status HybridStore::DropColumn(size_t col) {
  if (col >= col_map_.size()) {
    return Status::OutOfRange("column " + std::to_string(col));
  }
  ColumnLoc loc = col_map_[col];
  Group& g = groups_[loc.group];
  if (g.width == 1) {
    // The whole group disappears: pure metadata operation, zero page writes.
    // Durable DDL retires the file (it must outlive the DDL record).
    if (pager_->durable()) {
      retired_files_.push_back(g.file);
    } else {
      pager_->DropFile(g.file);
    }
    groups_.erase(groups_.begin() + static_cast<ptrdiff_t>(loc.group));
    for (ColumnLoc& l : col_map_) {
      if (l.group > loc.group) l.group -= 1;
    }
  } else if (pager_->durable()) {
    // Copy-on-write group compaction: build the narrowed group in a fresh
    // file with non-destructive reads; the old group stays intact until
    // the catalog's DDL record commits. Still touches only this group.
    size_t new_width = g.width - 1;
    storage::FileId fresh = pager_->CreateFile();
    {
      storage::PageCursor src(*pager_, g.file);
      storage::PageCursor dst(*pager_, fresh);
      uint64_t dst_slot = 0;
      for (size_t r = 0; r < num_rows_; ++r) {
        for (size_t o = 0; o < g.width; ++o) {
          if (o == loc.offset) continue;
          dst.Write(dst_slot++, src.Read(Entry(g, r, o)));
        }
      }
    }
    retired_files_.push_back(g.file);
    g.file = fresh;
    g.width = new_width;
    for (ColumnLoc& l : col_map_) {
      if (l.group == loc.group && l.offset > loc.offset) l.offset -= 1;
    }
  } else {
    // Rewrite only this group's pages; all other groups untouched.
    CompactGroupWithoutOffset(loc.group, loc.offset);
    for (ColumnLoc& l : col_map_) {
      if (l.group == loc.group && l.offset > loc.offset) l.offset -= 1;
    }
  }
  col_map_.erase(col_map_.begin() + static_cast<ptrdiff_t>(col));
  return Status::OK();
}

Status HybridStore::Reorganize() {
  if (groups_.size() <= 1) return Status::OK();
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
