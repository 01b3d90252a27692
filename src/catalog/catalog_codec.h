#ifndef DATASPREAD_CATALOG_CATALOG_CODEC_H_
#define DATASPREAD_CATALOG_CATALOG_CODEC_H_

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "index/positional_index.h"
#include "storage/pager.h"
#include "storage/table_storage.h"

namespace dataspread {

/// Everything a reopened database needs to rebuild one table without any
/// application help: identity, schema, physical layout, and the id of the
/// catalog's own rid side file inside the pager. Serialized with the same
/// value_codec little-endian helpers as the spill/WAL formats, and carried
/// inside CRC-guarded WAL records (the checkpoint snapshot's catalog blob
/// and the kCreateTable.. DDL records), so every byte is covered by the
/// log's integrity machinery.
///
/// Deliberately absent: row counts, display order, and row-id maps — those
/// change with every DML. The rid map (and the manifest's RCV back-pointer
/// files) persist *as pager files*, where the page-level WAL already makes
/// them durable; the display order persists as logged kOrderInsert /
/// kOrderErase records plus a full copy in every checkpoint blob. A
/// descriptor is therefore valid at every statement boundary, which is
/// exactly when checkpoints and DDL records capture it
/// (storage::CheckpointDeferral holds auto-checkpoints off mid-statement).
struct TableDescriptor {
  std::string name;
  Schema schema;
  StorageManifest manifest;
  /// Pager file: slot s holds the row id stored at storage slot s (INT).
  /// Also the table's durable identity in order records: file ids are
  /// never reused, so a DROP + re-CREATE under one name gets a new one.
  uint64_t rid_file = 0;
  /// Row-id floor at serialization time; Attach takes max(this, max rid in
  /// the rid file + 1) so ids never regress across a reopen.
  uint64_t next_rid = 0;
};

/// One logged display-order operation: row `rid` entered table `table`'s
/// order at `pos` (insert), or the row at `pos` left it (erase).
struct OrderOp {
  bool insert = true;
  uint64_t table = 0;  ///< the table's rid_file
  uint64_t pos = 0;
  uint64_t rid = 0;    ///< inserts only
};

/// A table as recovery hands it to Table::Attach: the descriptor, the
/// display order of the last checkpoint snapshot (empty for a table created
/// after it), and the order operations logged since, in replay order.
struct RecoveredTable {
  TableDescriptor desc;
  std::vector<uint64_t> order;
  std::vector<OrderOp> order_ops;
};

// ---- Wire format ----------------------------------------------------------
//
//   descriptor := name:str n_cols:u32 (col_name:str type:u8 pk:u8)*
//                 model:u8 manifest rid_file:u64 next_rid:u64
//   manifest   := n_files:u32 file:u64* n_groups:u32
//                 (file:u64 width:u32 col:u32*)*
//   blob       := version:u32(=2) n_tables:u32 (descriptor order)*
//   order      := n_runs:u64 (first_rid:u64 length:u64)*
//   str        := len:u32 bytes
//
// An order is stored as runs of consecutive row ids, so an append-only
// table's order costs one run whatever its size. DDL record payloads are a
// single descriptor (kCreateTable, kAddColumn, kDropColumn, kRenameColumn,
// kReorganize) or a bare table-name str (kDropTable); order record payloads
// are table:u64 pos:u64 rid:u64 (kOrderInsert) or table:u64 pos:u64
// (kOrderErase). Version 1 blobs and descriptors also named an order side
// file; they are rejected with a Status. DESIGN.md §6 "Catalog recovery"
// documents the semantics.

/// Appends one serialized descriptor to `out` (the DDL record payload).
void EncodeTableDescriptor(const TableDescriptor& desc, std::string* out);

/// Decodes one descriptor at `*pos`, advancing it; fails on malformed input
/// (which, under the WAL's CRCs, means version skew or a codec bug).
Result<TableDescriptor> DecodeTableDescriptor(const std::string& buf,
                                              size_t* pos);

/// Appends the payload of `op`'s order record (kOrderInsert when
/// `op.insert`, else kOrderErase) to `out`.
void EncodeOrderOp(const OrderOp& op, std::string* out);

/// Starts a checkpoint-snapshot blob (handed to storage::Pager's provider
/// hook) of `n_tables` tables; append each with EncodeSnapshotTable.
void BeginCatalogBlob(size_t n_tables, std::string* out);
void EncodeSnapshotTable(const TableDescriptor& desc,
                         const PositionalIndex& order, std::string* out);

/// Rebuilds the tables a recovered database must attach: decodes the
/// snapshot `blob`, then applies the records logged after it in replay
/// order — create appends, drop removes, the alter kinds replace the
/// descriptor by name (every alter payload is a complete descriptor, so
/// replay never re-executes logical DDL), and an order record joins its
/// table's `order_ops`. Creation order is preserved.
Result<std::vector<RecoveredTable>> ReplayCatalogState(
    const std::string& blob,
    const std::vector<storage::Pager::CatalogRecord>& records);

}  // namespace dataspread

#endif  // DATASPREAD_CATALOG_CATALOG_CODEC_H_
