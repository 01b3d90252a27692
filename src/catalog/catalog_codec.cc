#include "catalog/catalog_codec.h"

#include <utility>

#include "common/str_util.h"
#include "storage/value_codec.h"

namespace dataspread {

namespace {

using storage::AppendU32;
using storage::AppendU64;
using storage::ReadU32;
using storage::ReadU64;

constexpr uint32_t kBlobVersion = 2;

void AppendString(std::string* out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

bool ReadString(const std::string& buf, size_t* pos, std::string* out) {
  uint32_t len = 0;
  if (!ReadU32(buf, pos, &len) || *pos + len > buf.size()) return false;
  out->assign(buf, *pos, len);
  *pos += len;
  return true;
}

Status Malformed(const char* what) {
  // The buffer already passed the WAL's CRC: a parse failure here is not
  // bit rot but version skew or a codec bug — callers surface it loudly.
  return Status::Corruption(std::string("malformed catalog state: ") + what);
}

}  // namespace

void EncodeTableDescriptor(const TableDescriptor& desc, std::string* out) {
  AppendString(out, desc.name);
  AppendU32(out, static_cast<uint32_t>(desc.schema.num_columns()));
  for (const ColumnDef& col : desc.schema.columns()) {
    AppendString(out, col.name);
    out->push_back(static_cast<char>(col.type));
    out->push_back(col.primary_key ? 1 : 0);
  }
  out->push_back(static_cast<char>(desc.manifest.model));
  AppendU32(out, static_cast<uint32_t>(desc.manifest.files.size()));
  for (uint64_t f : desc.manifest.files) AppendU64(out, f);
  AppendU32(out, static_cast<uint32_t>(desc.manifest.groups.size()));
  for (const StorageManifest::Group& g : desc.manifest.groups) {
    AppendU64(out, g.file);
    AppendU32(out, g.width);
    for (uint32_t col : g.columns) AppendU32(out, col);
  }
  AppendU64(out, desc.rid_file);
  AppendU64(out, desc.next_rid);
}

Result<TableDescriptor> DecodeTableDescriptor(const std::string& buf,
                                              size_t* pos) {
  TableDescriptor desc;
  if (!ReadString(buf, pos, &desc.name)) return Malformed("name");
  uint32_t n_cols = 0;
  if (!ReadU32(buf, pos, &n_cols)) return Malformed("column count");
  std::vector<ColumnDef> cols;
  cols.reserve(n_cols);
  for (uint32_t i = 0; i < n_cols; ++i) {
    ColumnDef col;
    if (!ReadString(buf, pos, &col.name) || *pos + 2 > buf.size()) {
      return Malformed("column def");
    }
    col.type = static_cast<DataType>(static_cast<unsigned char>(buf[*pos]));
    col.primary_key = buf[*pos + 1] != 0;
    *pos += 2;
    if (col.type > DataType::kError) return Malformed("column type");
    cols.push_back(std::move(col));
  }
  desc.schema = Schema(std::move(cols));
  if (*pos >= buf.size()) return Malformed("model");
  desc.manifest.model =
      static_cast<StorageModel>(static_cast<unsigned char>(buf[*pos]));
  *pos += 1;
  if (desc.manifest.model > StorageModel::kHybrid) return Malformed("model");
  desc.manifest.num_columns = n_cols;
  uint32_t n_files = 0;
  if (!ReadU32(buf, pos, &n_files)) return Malformed("file count");
  desc.manifest.files.resize(n_files);
  for (uint32_t i = 0; i < n_files; ++i) {
    if (!ReadU64(buf, pos, &desc.manifest.files[i])) {
      return Malformed("file id");
    }
  }
  uint32_t n_groups = 0;
  if (!ReadU32(buf, pos, &n_groups)) return Malformed("group count");
  desc.manifest.groups.resize(n_groups);
  for (uint32_t gi = 0; gi < n_groups; ++gi) {
    StorageManifest::Group& g = desc.manifest.groups[gi];
    if (!ReadU64(buf, pos, &g.file) || !ReadU32(buf, pos, &g.width)) {
      return Malformed("group header");
    }
    g.columns.resize(g.width);
    for (uint32_t o = 0; o < g.width; ++o) {
      if (!ReadU32(buf, pos, &g.columns[o])) return Malformed("group column");
    }
  }
  if (!ReadU64(buf, pos, &desc.rid_file) ||
      !ReadU64(buf, pos, &desc.next_rid)) {
    return Malformed("rid file / next rid");
  }
  return desc;
}

void EncodeOrderOp(const OrderOp& op, std::string* out) {
  AppendU64(out, op.table);
  AppendU64(out, op.pos);
  if (op.insert) AppendU64(out, op.rid);
}

void BeginCatalogBlob(size_t n_tables, std::string* out) {
  AppendU32(out, kBlobVersion);
  AppendU32(out, static_cast<uint32_t>(n_tables));
}

void EncodeSnapshotTable(const TableDescriptor& desc,
                         const PositionalIndex& order, std::string* out) {
  EncodeTableDescriptor(desc, out);
  std::vector<std::pair<uint64_t, uint64_t>> runs;  // {first rid, length}
  order.VisitSpans(0, order.size(),
                   [&runs](size_t, const uint64_t* rids, size_t n) {
                     for (size_t i = 0; i < n; ++i) {
                       if (!runs.empty() &&
                           rids[i] == runs.back().first + runs.back().second) {
                         runs.back().second += 1;
                       } else {
                         runs.emplace_back(rids[i], 1);
                       }
                     }
                   });
  AppendU64(out, runs.size());
  for (const auto& [first, length] : runs) {
    AppendU64(out, first);
    AppendU64(out, length);
  }
}

namespace {

/// Decodes one run-encoded order at `*pos`. Row ids are distinct and below
/// the table's row-id floor, which bounds every run and the total.
Status DecodeOrder(const std::string& buf, size_t* pos, uint64_t next_rid,
                   std::vector<uint64_t>* order) {
  uint64_t runs = 0;
  if (!ReadU64(buf, pos, &runs)) return Malformed("order run count");
  for (uint64_t i = 0; i < runs; ++i) {
    uint64_t first = 0, length = 0;
    if (!ReadU64(buf, pos, &first) || !ReadU64(buf, pos, &length) ||
        first >= next_rid || length > next_rid - first ||
        length > next_rid - order->size()) {
      return Malformed("order run");
    }
    for (uint64_t k = 0; k < length; ++k) order->push_back(first + k);
  }
  return Status::OK();
}

Result<OrderOp> DecodeOrderOp(const storage::Pager::CatalogRecord& rec) {
  OrderOp op;
  op.insert = rec.type == storage::WalRecordType::kOrderInsert;
  size_t pos = 0;
  if (!ReadU64(rec.payload, &pos, &op.table) ||
      !ReadU64(rec.payload, &pos, &op.pos) ||
      (op.insert && !ReadU64(rec.payload, &pos, &op.rid)) ||
      pos != rec.payload.size()) {
    return Malformed("order record");
  }
  return op;
}

}  // namespace

Result<std::vector<RecoveredTable>> ReplayCatalogState(
    const std::string& blob,
    const std::vector<storage::Pager::CatalogRecord>& records) {
  std::vector<RecoveredTable> tables;
  if (!blob.empty()) {
    size_t pos = 0;
    uint32_t version = 0, n_tables = 0;
    if (!ReadU32(blob, &pos, &version)) return Malformed("blob header");
    if (version != kBlobVersion) {
      return Status::Corruption(
          "catalog snapshot format " + std::to_string(version) +
          " is not readable by this build (expected " +
          std::to_string(kBlobVersion) + ")");
    }
    if (!ReadU32(blob, &pos, &n_tables)) return Malformed("blob header");
    for (uint32_t i = 0; i < n_tables; ++i) {
      RecoveredTable t;
      DS_ASSIGN_OR_RETURN(t.desc, DecodeTableDescriptor(blob, &pos));
      DS_RETURN_IF_ERROR(DecodeOrder(blob, &pos, t.desc.next_rid, &t.order));
      tables.push_back(std::move(t));
    }
    if (pos != blob.size()) return Malformed("blob trailer");
  }
  auto find = [&tables](const std::string& name) {
    std::string key = ToLower(name);
    for (size_t i = 0; i < tables.size(); ++i) {
      if (ToLower(tables[i].desc.name) == key) return i;
    }
    return tables.size();
  };
  for (const storage::Pager::CatalogRecord& rec : records) {
    if (storage::IsOrderRecordType(rec.type)) {
      DS_ASSIGN_OR_RETURN(OrderOp op, DecodeOrderOp(rec));
      // A table outside the catalog (never created through it) has no
      // entry; its order is nobody's to recover.
      for (RecoveredTable& t : tables) {
        if (t.desc.rid_file == op.table) {
          t.order_ops.push_back(op);
          break;
        }
      }
      continue;
    }
    if (rec.type == storage::WalRecordType::kDropTable) {
      size_t pos = 0;
      std::string name;
      if (!ReadString(rec.payload, &pos, &name) || pos != rec.payload.size()) {
        return Malformed("drop-table payload");
      }
      size_t i = find(name);
      // Dropping an unknown table is legal under replay: the create and the
      // drop may both postdate the snapshot.
      if (i < tables.size()) {
        tables.erase(tables.begin() + static_cast<ptrdiff_t>(i));
      }
      continue;
    }
    size_t pos = 0;
    DS_ASSIGN_OR_RETURN(TableDescriptor desc,
                        DecodeTableDescriptor(rec.payload, &pos));
    if (pos != rec.payload.size()) return Malformed("ddl trailer");
    size_t i = find(desc.name);
    if (i < tables.size()) {
      // Alter kinds: replace the descriptor wholesale; the order is the
      // table's own and carries over.
      tables[i].desc = std::move(desc);
    } else {
      // kCreateTable (or replayed alter of a post-snapshot create).
      tables.push_back(RecoveredTable{std::move(desc), {}, {}});
    }
  }
  return tables;
}

}  // namespace dataspread
