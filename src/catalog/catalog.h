#ifndef DATASPREAD_CATALOG_CATALOG_H_
#define DATASPREAD_CATALOG_CATALOG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/table.h"
#include "common/result.h"

namespace dataspread {

/// Named-table directory of the embedded database. Table names are
/// case-insensitive (stored with their original spelling).
///
/// When constructed with a storage::Pager, every table it creates draws its
/// pages from that shared pool (the Database wires its pager through here);
/// without one, each table owns a private pager.
class Catalog {
 public:
  Catalog() = default;
  explicit Catalog(storage::Pager* pager) : pager_(pager) {}

  /// Buffer-pool policy applied to the private pager of every table this
  /// catalog creates *without* a shared pool. No effect when a shared pager
  /// was supplied (the pool's owner configured it).
  void set_private_pager_config(storage::PagerConfig config) {
    private_pager_config_ = std::move(config);
  }
  const storage::PagerConfig& private_pager_config() const {
    return private_pager_config_;
  }

  /// Creates a table; fails with AlreadyExists on a name collision. On a
  /// durable shared pager the creation is logged as a kCreateTable DDL
  /// record (a commit point), so the table exists after any crash.
  Result<Table*> CreateTable(std::string name, Schema schema,
                             StorageModel model = StorageModel::kHybrid);

  /// Removes a table and deallocates its pager files. On a durable pager
  /// the kDropTable record is logged (and made durable) *before* the files
  /// are dropped: a crash in between leaves orphan files for the reopen's
  /// sweep, never a catalog pointing at dead files.
  Status DropTable(std::string_view name);

  /// Registers an already-attached table (the reopen path): no DDL record,
  /// no fresh files — the table was recovered, not created. Fails with
  /// AlreadyExists on a name collision.
  Result<Table*> AdoptTable(std::unique_ptr<Table> table);

  /// Serializes every table in creation order — descriptor and display
  /// order — as the checkpoint snapshot's catalog blob (catalog_codec.h).
  void EncodeSnapshot(std::string* out) const;

  /// Case-insensitive lookup.
  Result<Table*> GetTable(std::string_view name) const;
  bool HasTable(std::string_view name) const;

  /// All table names in creation order.
  std::vector<std::string> TableNames() const;

  size_t size() const { return tables_.size(); }

  /// The shared storage pool, or null when tables own private pagers.
  storage::Pager* pager() const { return pager_; }

 private:
  storage::Pager* pager_ = nullptr;
  storage::PagerConfig private_pager_config_;
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;  // lower(name)
  std::vector<std::string> creation_order_;                         // lower(name)
};

}  // namespace dataspread

#endif  // DATASPREAD_CATALOG_CATALOG_H_
