#include "exec/morsel.h"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

namespace dataspread {

std::vector<Morsel> BuildMorsels(const Table& table, size_t start,
                                 size_t count, size_t morsel_size) {
  std::vector<Morsel> out;
  if (morsel_size == 0) morsel_size = 1;
  size_t cur_start = 0;
  size_t cur = 0;
  auto emit = [&]() {
    out.push_back(Morsel{out.size(), cur_start, cur});
    cur = 0;
  };
  table.VisitSlotRuns(start, count, [&](size_t pos, size_t, size_t len) {
    while (len > 0) {
      if (cur == 0) cur_start = pos;
      size_t take = std::min(len, morsel_size - cur);
      cur += take;
      pos += take;
      len -= take;
      if (cur == morsel_size) {
        if (len > 0 && len < morsel_size) {
          // Absorb the sub-morsel run tail so the next morsel starts at a
          // run boundary (morsels stay below 2·morsel_size).
          cur += len;
          pos += len;
          len = 0;
        }
        emit();
      }
    }
  });
  if (cur > 0) emit();
  return out;
}

namespace {

/// Fans `work(worker, morsel)` out over min(num_threads, |morsels|) threads
/// (the calling thread is worker 0). On the first failure the dispenser is
/// closed and the status recorded in `morsel_status[m.index]`; after the
/// join, the smallest-index failure is returned — the same error a serial
/// left-to-right scan would have surfaced first. `morsel_status` must be
/// pre-sized to the morsel count; each slot is written by at most one
/// worker, and the thread join orders all writes before the final sweep.
Status DriveMorsels(
    MorselDispenser* dispenser, size_t num_threads,
    std::vector<Status>* morsel_status,
    const std::function<Status(size_t worker, const Morsel& m)>& work) {
  size_t workers = std::max<size_t>(1, std::min(num_threads, dispenser->size()));
  std::atomic<bool> failed{false};
  auto loop = [&](size_t w) {
    Morsel m;
    while (!failed.load(std::memory_order_relaxed) && dispenser->Next(&m)) {
      Status s = work(w, m);
      if (!s.ok()) {
        (*morsel_status)[m.index] = std::move(s);
        failed.store(true, std::memory_order_relaxed);
        dispenser->Close();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) pool.emplace_back(loop, w);
  loop(0);
  for (std::thread& t : pool) t.join();
  for (const Status& s : *morsel_status) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

std::vector<size_t> AllColumns(const Table& table) {
  std::vector<size_t> all(table.schema().num_columns());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  return all;
}

/// One worker's private scan(→filter) pipeline, re-aimed per morsel.
struct WorkerPipeline {
  OperatorPtr chain;
  TableScanOp* scan = nullptr;  // owned by `chain`
  RowBatch batch;
  std::vector<uint32_t> scratch;

  void Init(const Table* table, const sql::Expr* where, size_t batch_size,
            const std::vector<size_t>& columns) {
    if (chain != nullptr) return;
    auto s = std::make_unique<TableScanOp>(table, 0, 0);
    s->SetColumns(columns);
    scan = s.get();
    chain = std::move(s);
    if (where != nullptr) {
      chain = std::make_unique<FilterOp>(std::move(chain), where);
    }
    batch.set_capacity(batch_size);
  }

  Status OpenAt(const Morsel& m) {
    scan->SetWindow(m.start, m.count);
    return chain->Open();
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// ParallelScanOp
// ---------------------------------------------------------------------------

ParallelScanOp::ParallelScanOp(const Table* table, size_t start, size_t count,
                               const sql::Expr* where, const ExecOptions& exec,
                               size_t limit_hint)
    : table_(table),
      start_(start),
      count_(count),
      where_(where),
      exec_(exec),
      limit_hint_(limit_hint),
      num_columns_(table->schema().num_columns()),
      columns_(AllColumns(*table)) {}

Status ParallelScanOp::Open() {
  built_ = false;
  rows_.clear();
  index_ = 0;
  return Status::OK();
}

Status ParallelScanOp::Build() {
  MorselDispenser dispenser(
      BuildMorsels(*table_, start_, count_, EffectiveMorselSize(exec_)));
  if (limit_hint_ == 0) dispenser.Close();
  const size_t n = dispenser.size();
  const size_t batch_size = EffectiveBatchSize(exec_);
  std::vector<std::vector<Row>> per_morsel(n);
  std::vector<Status> morsel_status(n);
  std::vector<WorkerPipeline> pipelines(std::max<size_t>(1, exec_.num_threads));
  std::atomic<size_t> rows_found{0};

  DS_RETURN_IF_ERROR(DriveMorsels(
      &dispenser, exec_.num_threads, &morsel_status,
      [&](size_t w, const Morsel& m) -> Status {
        WorkerPipeline& p = pipelines[w];
        p.Init(table_, where_, batch_size, columns_);
        DS_RETURN_IF_ERROR(p.OpenAt(m));
        std::vector<Row>& out = per_morsel[m.index];
        while (true) {
          DS_ASSIGN_OR_RETURN(bool more, p.chain->Next(&p.batch));
          if (!more) break;
          const std::vector<uint32_t>& active =
              p.batch.ActivePositions(&p.scratch);
          out.reserve(out.size() + active.size());
          for (uint32_t pos : active) out.push_back(p.batch.MoveRow(pos));
        }
        // LIMIT early stop: dispensed morsels form a contiguous prefix, so
        // once the completed work holds `limit_hint_` rows the prefix that
        // will be concatenated is guaranteed to cover the limit.
        if (limit_hint_ != kNoLimitHint &&
            rows_found.fetch_add(out.size(), std::memory_order_relaxed) +
                    out.size() >=
                limit_hint_) {
          dispenser.Close();
        }
        return Status::OK();
      }));

  size_t total = 0;
  for (const std::vector<Row>& rows : per_morsel) total += rows.size();
  rows_.reserve(total);
  for (std::vector<Row>& rows : per_morsel) {
    for (Row& r : rows) rows_.push_back(std::move(r));
  }
  return Status::OK();
}

Result<bool> ParallelScanOp::Next(RowBatch* out) {
  if (!built_) {
    DS_RETURN_IF_ERROR(Build());
    built_ = true;
  }
  out->Reset(num_columns_);
  while (index_ < rows_.size() && !out->full()) {
    out->AppendRowMove(std::move(rows_[index_++]));
  }
  return out->size() > 0;
}

// ---------------------------------------------------------------------------
// ParallelAggregateOp
// ---------------------------------------------------------------------------

ParallelAggregateOp::ParallelAggregateOp(
    const Table* table, size_t start, size_t count, const sql::Expr* where,
    std::vector<const sql::Expr*> group_exprs,
    std::vector<sql::Expr*> agg_calls,
    std::vector<const sql::Expr*> output_exprs, const sql::Expr* having,
    const ExecOptions& exec)
    : table_(table),
      start_(start),
      count_(count),
      where_(where),
      group_exprs_(std::move(group_exprs)),
      agg_calls_(std::move(agg_calls)),
      output_exprs_(std::move(output_exprs)),
      having_(having),
      exec_(exec),
      columns_(AllColumns(*table)) {}

Status ParallelAggregateOp::Open() {
  built_ = false;
  results_.clear();
  index_ = 0;
  return Status::OK();
}

Status ParallelAggregateOp::Build() {
  MorselDispenser dispenser(
      BuildMorsels(*table_, start_, count_, EffectiveMorselSize(exec_)));
  const size_t batch_size = EffectiveBatchSize(exec_);
  const size_t slots = std::max<size_t>(1, exec_.num_threads);
  std::vector<Status> morsel_status(dispenser.size());
  std::vector<WorkerPipeline> pipelines(slots);
  std::vector<AggregateFold> folds;
  folds.reserve(slots);
  for (size_t w = 0; w < slots; ++w) folds.emplace_back(group_exprs_, agg_calls_);

  DS_RETURN_IF_ERROR(DriveMorsels(
      &dispenser, exec_.num_threads, &morsel_status,
      [&](size_t w, const Morsel& m) -> Status {
        WorkerPipeline& p = pipelines[w];
        p.Init(table_, where_, batch_size, columns_);
        DS_RETURN_IF_ERROR(p.OpenAt(m));
        // First-seen order key: (morsel index, live row within the morsel).
        // A worker's morsel indices are increasing (the dispenser hands them
        // out in order), so a group's key in one worker's fold is its
        // earliest sighting by that worker, and the cross-worker minimum is
        // the global serial first-seen position.
        uint64_t seq = static_cast<uint64_t>(m.index) << 32;
        while (true) {
          DS_ASSIGN_OR_RETURN(bool more, p.chain->Next(&p.batch));
          if (!more) break;
          DS_RETURN_IF_ERROR(folds[w].Fold(p.batch, &seq));
        }
        return Status::OK();
      }));

  // Single-threaded merge: fold every worker's partial groups into one
  // list, keeping the smallest order key's first_row and letting the
  // earlier partial win MIN/MAX ties (AggState::Merge's contract).
  std::vector<AggGroup> merged;
  std::unordered_map<Row, size_t, RowHash, RowEq> ids;
  for (AggregateFold& fold : folds) {
    for (AggGroup& incoming : fold.groups()) {
      auto [it, inserted] = ids.emplace(incoming.key, merged.size());
      if (inserted) {
        merged.push_back(std::move(incoming));
        continue;
      }
      AggGroup& have = merged[it->second];
      if (incoming.order_key < have.order_key) std::swap(have, incoming);
      have.rows += incoming.rows;
      for (size_t a = 0; a < agg_calls_.size(); ++a) {
        have.states[a].Merge(incoming.states[a]);
      }
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const AggGroup& a, const AggGroup& b) {
              return a.order_key < b.order_key;
            });
  // Global aggregate over empty input still yields one group.
  if (merged.empty() && group_exprs_.empty()) {
    merged.push_back(MakeAggGroup(agg_calls_));
  }
  DS_RETURN_IF_ERROR(
      FinalizeAggregateGroups(output_exprs_, having_, merged, &results_));
  if (group_sink_ != nullptr) *group_sink_ = std::move(merged);
  return Status::OK();
}

Result<bool> ParallelAggregateOp::Next(RowBatch* out) {
  if (!built_) {
    DS_RETURN_IF_ERROR(Build());
    built_ = true;
  }
  out->Reset(output_exprs_.size());
  while (index_ < results_.size() && !out->full()) {
    out->AppendRowMove(std::move(results_[index_++]));
  }
  return out->size() > 0;
}

}  // namespace dataspread
