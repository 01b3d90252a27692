#ifndef DATASPREAD_CORE_SCHEDULER_H_
#define DATASPREAD_CORE_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

namespace dataspread {

/// Task priority bands of the Compute Engine (paper §3): work needed for the
/// visible pane preempts everything else; background work (off-screen
/// recalculation, prefetch) runs last. FIFO within a band.
enum class Priority {
  kVisible = 0,
  kNear = 1,
  kBackground = 2,
};

/// The Compute Engine's task queue. "It performs computations asynchronously,
/// free from a user's context ... It further improves the interface's
/// interactivity by prioritizing the computation for visible cells."
///
/// Two execution modes:
///  - deterministic: the owner drains the queue with RunOne()/RunUntilIdle()
///    (used by tests and the synchronous facade);
///  - background: StartWorker() spawns a thread that drains continuously;
///    WaitIdle() joins a quiescent point.
class Scheduler {
 public:
  using Task = std::function<void()>;

  Scheduler() = default;
  ~Scheduler() { StopWorker(); }

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueues a task.
  void Enqueue(Priority priority, Task task);

  /// Enqueues a task unless another task with the same `key` is already
  /// pending (coalesces bursts, e.g. many row updates → one binding refresh).
  /// Returns false if coalesced.
  bool EnqueueUnique(Priority priority, const std::string& key, Task task);

  /// Runs the highest-priority pending task on the calling thread and counts
  /// it in executed() under its band. Returns false when the queue was empty.
  bool RunOne();

  /// Drains the queue on the calling thread (tasks may enqueue more tasks);
  /// returns the number executed. `max_tasks` guards against livelock.
  size_t RunUntilIdle(size_t max_tasks = 1u << 20);

  size_t pending() const;
  uint64_t executed(Priority priority) const {
    return executed_[static_cast<size_t>(priority)];
  }
  uint64_t total_executed() const {
    return executed_[0] + executed_[1] + executed_[2];
  }

  /// Starts/stops the background worker thread.
  void StartWorker();
  void StopWorker();
  bool worker_running() const { return worker_.joinable(); }
  /// Blocks until the queue is empty and no task is mid-flight.
  void WaitIdle();

 private:
  struct Entry {
    std::string key;  // empty = not coalescible
    Task task;
  };

  /// Pops the highest-priority pending entry into `out`, reports its band,
  /// and marks it in flight. False when every band is empty. Needs mutex_.
  bool PopLocked(Entry* out, size_t* band);
  /// Runs a popped entry on the calling thread, then counts it against its
  /// band in executed() and clears its in-flight mark.
  void RunPopped(Entry& entry, size_t band);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Entry> queues_[3];
  std::unordered_set<std::string> pending_keys_;
  uint64_t executed_[3] = {0, 0, 0};
  int in_flight_ = 0;
  bool stopping_ = false;
  std::thread worker_;
};

}  // namespace dataspread

#endif  // DATASPREAD_CORE_SCHEDULER_H_
