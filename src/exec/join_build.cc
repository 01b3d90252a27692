#include "exec/join_build.h"

#include "catalog/table.h"
#include "storage/pager.h"

namespace dataspread {

namespace {

size_t TextBytes(const Value& v) {
  return v.type() == DataType::kText ? v.text_value().size() : 0;
}

}  // namespace

void JoinBuild::MeasureBytes() {
  constexpr size_t kNode = 2 * sizeof(void*);  // next link + cached hash
  bytes = sizeof(JoinBuild) + next.capacity() * sizeof(uint32_t);
  for (const ColumnVector& column : columns) {
    bytes += sizeof(column) + column.MemoryBytes();
  }
  bytes += int_chains.bucket_count() * sizeof(void*);
  bytes += int_chains.size() * (kNode + sizeof(int64_t) + sizeof(Chain));
  bytes += value_chains.bucket_count() * sizeof(void*);
  for (const auto& [key, chain] : value_chains) {
    bytes += kNode + sizeof(key) + sizeof(chain) + TextBytes(key);
  }
  bytes += row_chains.bucket_count() * sizeof(void*);
  for (const auto& [key, chain] : row_chains) {
    bytes += kNode + sizeof(key) + sizeof(chain) + key.capacity() * sizeof(Value);
    for (const Value& v : key) bytes += TextBytes(v);
  }
}

Result<std::shared_ptr<const JoinBuild>> JoinBuildCache::GetOrBuild(
    const Table* table, const JoinBuildShape& shape, const BuildFn& build) {
  const uint64_t version = table != nullptr ? table->version() : 0;
  if (table != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < entries_.size(); ++i) {
      Entry& e = entries_[i];
      if (e.table != table || !(e.shape == shape)) continue;
      if (e.version == version) {
        e.last_use = ++tick_;
        reuses_.fetch_add(1, std::memory_order_relaxed);
        return e.build;
      }
      EraseAt(i);  // versions only advance: this entry can never serve again
      break;
    }
  }
  DS_ASSIGN_OR_RETURN(std::shared_ptr<JoinBuild> made, build());
  builds_.fetch_add(1, std::memory_order_relaxed);
  if (table != nullptr) made->MeasureBytes();
  std::shared_ptr<const JoinBuild> shared = std::move(made);
  if (table == nullptr || table->version() != version) return shared;
  const size_t limit = byte_limit();
  if (shared->bytes > limit) return shared;  // used once, not kept
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < entries_.size(); ++i) {
    // A concurrent session may have stored the same build meanwhile.
    if (entries_[i].table == table && entries_[i].shape == shape) {
      EraseAt(i);
      break;
    }
  }
  while (bytes_ + shared->bytes > limit) {
    size_t oldest = 0;
    for (size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].last_use < entries_[oldest].last_use) oldest = i;
    }
    EraseAt(oldest);
  }
  bytes_ += shared->bytes;
  entries_.push_back(Entry{table, shape, version, shared, ++tick_});
  return shared;
}

void JoinBuildCache::EraseAt(size_t i) {
  bytes_ -= entries_[i].build->bytes;
  entries_[i] = std::move(entries_.back());
  entries_.pop_back();
}

void JoinBuildCache::Forget(const Table* table) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = entries_.size(); i-- > 0;) {
    if (entries_[i].table == table) EraseAt(i);
  }
}

std::vector<std::shared_ptr<const JoinBuild>> JoinBuildCache::Retained(
    const Table* table) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<const JoinBuild>> out;
  for (const Entry& e : entries_) {
    if (e.table == table) out.push_back(e.build);
  }
  return out;
}

size_t JoinBuildCache::byte_limit() const {
  if (pager_ == nullptr) return SIZE_MAX;
  size_t frames = pager_->max_resident_pages();
  if (frames == 0) frames = pager_->resident_pages();
  return frames * storage::Pager::kSlotsPerPage * sizeof(Value);
}

size_t JoinBuildCache::retained_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace dataspread
