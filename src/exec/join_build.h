#ifndef DATASPREAD_EXEC_JOIN_BUILD_H_
#define DATASPREAD_EXEC_JOIN_BUILD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "types/column_vector.h"
#include "types/value.h"

namespace dataspread {

class Table;
namespace storage {
class Pager;
}

/// The batch hash join's build table, immutable once built: the right
/// input's tuples with no NULL key, in right-input order, as one typed
/// column per right column (DESIGN.md §6b "Batch layout"; TEXT in each
/// column's own arena), and each distinct key's chain of build indices —
/// first and last index, linked through `next` — so a chain lists its
/// tuples in right-input order. A single key column of kind kInt is keyed
/// by int64_t; any other single key by Value; several by a Row. Only the
/// columns read above the join are stored; the others (key copies nobody
/// reads included) are absent.
struct JoinBuild {
  static constexpr uint32_t kNoMatch = UINT32_MAX;
  struct Chain {
    uint32_t first, last;
  };

  std::vector<ColumnVector> columns;
  std::vector<uint32_t> next;
  std::unordered_map<int64_t, Chain> int_chains;
  std::unordered_map<Value, Chain, ValueHash> value_chains;
  std::unordered_map<Row, Chain, RowHash, RowEq> row_chains;
  /// Estimated heap footprint, set by MeasureBytes().
  size_t bytes = 0;

  /// Estimates `bytes`: column and chain storage, TEXT payloads, and hash
  /// table nodes and buckets.
  void MeasureBytes();
};

/// What a build depends on besides its table's contents: the right key
/// columns and the stored (live) columns, ascending.
struct JoinBuildShape {
  std::vector<int> keys;
  std::vector<size_t> columns;
  bool operator==(const JoinBuildShape& o) const {
    return keys == o.keys && columns == o.columns;
  }
};

/// Keeps the build tables of hash joins whose right input is a plain scan
/// of a catalog table across executions and sessions (DESIGN.md §6a
/// "Build reuse"). An entry is keyed by (table, shape) and stamped with the
/// table version it was built at; versions are process-unique and advance
/// on every change, so an entry whose stamp equals the table's version
/// holds exactly what a fresh build would. A stale entry is dropped at its
/// next lookup; a DROP releases the table's entries (Forget).
///
/// Callers hold the statement's shared read latch on the table, so no
/// writer runs between the version read and the scan. A build is stored
/// only if the version has not moved while it was made. Retained bytes stay
/// within the pager's frame budget (byte_limit()): least recently used
/// entries go first, and a build larger than the whole bound is used once
/// and not kept. Thread-safe; builds are shared read-only between
/// concurrent probes.
class JoinBuildCache {
 public:
  /// `pager` sizes the byte bound; null leaves it unbounded.
  explicit JoinBuildCache(const storage::Pager* pager = nullptr)
      : pager_(pager) {}

  using BuildFn = std::function<Result<std::shared_ptr<JoinBuild>>()>;

  /// The build of `table` for `shape`: the retained one when its version
  /// stamp is current (a reuse), else `build()` (a build), stored when the
  /// version held still and the bound allows. A null `table` marks an input
  /// that is not a catalog table scan: always built, never stored.
  Result<std::shared_ptr<const JoinBuild>> GetOrBuild(
      const Table* table, const JoinBuildShape& shape, const BuildFn& build);

  /// Releases every entry of `table`.
  void Forget(const Table* table);

  /// The retained builds of `table` (for inspection and tests).
  std::vector<std::shared_ptr<const JoinBuild>> Retained(
      const Table* table) const;

  size_t retained_bytes() const;

  /// Builds made and retained builds reused, over the cache's lifetime.
  uint64_t builds() const { return builds_.load(std::memory_order_relaxed); }
  uint64_t reuses() const { return reuses_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    const Table* table;
    JoinBuildShape shape;
    uint64_t version;
    std::shared_ptr<const JoinBuild> build;
    uint64_t last_use;
  };

  /// The bound on retained bytes: the pager's frame budget — its
  /// max_resident_pages cap when the pool is bounded, else the frames it
  /// holds now — at the value bytes of a full frame.
  size_t byte_limit() const;
  /// Removes entries_[i] (order is not kept). Caller holds mu_.
  void EraseAt(size_t i);

  const storage::Pager* pager_;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;  // a handful: one per (table, shape)
  size_t bytes_ = 0;
  uint64_t tick_ = 0;
  std::atomic<uint64_t> builds_{0};
  std::atomic<uint64_t> reuses_{0};
};

}  // namespace dataspread

#endif  // DATASPREAD_EXEC_JOIN_BUILD_H_
