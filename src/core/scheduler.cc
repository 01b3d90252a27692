#include "core/scheduler.h"

namespace dataspread {

void Scheduler::Enqueue(Priority priority, Task task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queues_[static_cast<size_t>(priority)].push_back(Entry{"", std::move(task)});
  }
  cv_.notify_all();
}

bool Scheduler::EnqueueUnique(Priority priority, const std::string& key,
                              Task task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!pending_keys_.insert(key).second) return false;
    queues_[static_cast<size_t>(priority)].push_back(Entry{key, std::move(task)});
  }
  cv_.notify_all();
  return true;
}

bool Scheduler::PopLocked(Entry* out, size_t* band) {
  for (size_t b = 0; b < 3; ++b) {
    std::deque<Entry>& queue = queues_[b];
    if (!queue.empty()) {
      *out = std::move(queue.front());
      queue.pop_front();
      if (!out->key.empty()) pending_keys_.erase(out->key);
      *band = b;
      in_flight_ += 1;
      return true;
    }
  }
  return false;
}

void Scheduler::RunPopped(Entry& entry, size_t band) {
  entry.task();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    executed_[band] += 1;
    in_flight_ -= 1;
  }
  cv_.notify_all();
}

bool Scheduler::RunOne() {
  Entry entry;
  size_t band = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!PopLocked(&entry, &band)) return false;
  }
  RunPopped(entry, band);
  return true;
}

size_t Scheduler::RunUntilIdle(size_t max_tasks) {
  size_t n = 0;
  while (n < max_tasks && RunOne()) ++n;
  return n;
}

size_t Scheduler::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queues_[0].size() + queues_[1].size() + queues_[2].size();
}

void Scheduler::StartWorker() {
  if (worker_.joinable()) return;
  stopping_ = false;
  worker_ = std::thread([this]() {
    while (true) {
      Entry entry;
      size_t band = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        // Wakes holding a popped task, or to stop (pending tasks stay queued).
        cv_.wait(lock, [&] { return stopping_ || PopLocked(&entry, &band); });
        if (stopping_) return;
      }
      RunPopped(entry, band);
    }
  });
}

void Scheduler::StopWorker() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void Scheduler::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this]() {
    return queues_[0].empty() && queues_[1].empty() && queues_[2].empty() &&
           in_flight_ == 0;
  });
}

}  // namespace dataspread
