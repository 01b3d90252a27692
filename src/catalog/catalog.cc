#include "catalog/catalog.h"

#include <algorithm>
#include <optional>

#include "common/str_util.h"
#include "storage/value_codec.h"

namespace dataspread {

Result<Table*> Catalog::CreateTable(std::string name, Schema schema,
                                    StorageModel model) {
  std::string key = ToLower(name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  DS_ASSIGN_OR_RETURN(
      std::unique_ptr<Table> table,
      Table::Create(std::move(name), std::move(schema), model, pager_,
                    private_pager_config_));
  Table* raw = table.get();
  tables_.emplace(key, std::move(table));
  creation_order_.push_back(key);
  if (pager_ != nullptr && pager_->durable()) {
    // The creation's commit point: descriptor after the storage's
    // kCreateFile records, so replay knows the files before it binds them.
    std::string payload;
    EncodeTableDescriptor(raw->Describe(), &payload);
    pager_->LogCatalogRecord(storage::WalRecordType::kCreateTable, payload);
  }
  return raw;
}

Status Catalog::DropTable(std::string_view name) {
  std::string key = ToLower(name);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + std::string(name) + "' does not exist");
  }
  // Hold auto-checkpoints off until the table is out of the map: a
  // checkpoint firing inside LogCatalogRecord would snapshot a blob that
  // still lists the table while truncating the kDropTable record away —
  // resurrecting an acknowledged drop (and, once the files go, leaving a
  // blob that points at dead files).
  std::optional<storage::CheckpointDeferral> no_checkpoint;
  if (pager_ != nullptr && pager_->durable()) {
    no_checkpoint.emplace(*pager_);
    // Drop record first: durable before any file disappears, so a reopen
    // either knows the table is gone or still finds its files intact.
    std::string payload;
    storage::AppendU32(&payload,
                       static_cast<uint32_t>(it->second->name().size()));
    payload.append(it->second->name());
    pager_->LogCatalogRecord(storage::WalRecordType::kDropTable, payload);
  }
  // Release retention (a no-op for scratch tables): an explicit drop must
  // deallocate the pager files the durable mode would otherwise keep.
  it->second->set_retain_files(false);
  tables_.erase(it);
  creation_order_.erase(
      std::remove(creation_order_.begin(), creation_order_.end(), key),
      creation_order_.end());
  return Status::OK();
}

Result<Table*> Catalog::AdoptTable(std::unique_ptr<Table> table) {
  std::string key = ToLower(table->name());
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table '" + table->name() +
                                 "' already exists");
  }
  Table* raw = table.get();
  tables_.emplace(key, std::move(table));
  creation_order_.push_back(key);
  return raw;
}

void Catalog::EncodeSnapshot(std::string* out) const {
  BeginCatalogBlob(creation_order_.size(), out);
  for (const std::string& key : creation_order_) {
    const Table& table = *tables_.at(key);
    EncodeSnapshotTable(table.Describe(), table.order(), out);
  }
}

Result<Table*> Catalog::GetTable(std::string_view name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("table '" + std::string(name) + "' does not exist");
  }
  return it->second.get();
}

bool Catalog::HasTable(std::string_view name) const {
  return tables_.count(ToLower(name)) > 0;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> out;
  out.reserve(creation_order_.size());
  for (const std::string& key : creation_order_) {
    auto it = tables_.find(key);
    if (it != tables_.end()) out.push_back(it->second->name());
  }
  return out;
}

}  // namespace dataspread
