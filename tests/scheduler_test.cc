#include <gtest/gtest.h>

#include <atomic>

#include "core/scheduler.h"

namespace dataspread {
namespace {

TEST(SchedulerTest, RunsInPriorityOrder) {
  Scheduler s;
  std::vector<int> order;
  s.Enqueue(Priority::kBackground, [&] { order.push_back(3); });
  s.Enqueue(Priority::kVisible, [&] { order.push_back(1); });
  s.Enqueue(Priority::kNear, [&] { order.push_back(2); });
  s.Enqueue(Priority::kVisible, [&] { order.push_back(1); });
  EXPECT_EQ(s.RunUntilIdle(), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 1, 2, 3}));
}

TEST(SchedulerTest, FifoWithinBand) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.Enqueue(Priority::kVisible, [&order, i] { order.push_back(i); });
  }
  s.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, EnqueueUniqueCoalesces) {
  Scheduler s;
  int runs = 0;
  EXPECT_TRUE(s.EnqueueUnique(Priority::kVisible, "refresh", [&] { ++runs; }));
  EXPECT_FALSE(s.EnqueueUnique(Priority::kVisible, "refresh", [&] { ++runs; }));
  EXPECT_TRUE(s.EnqueueUnique(Priority::kVisible, "other", [&] { ++runs; }));
  s.RunUntilIdle();
  EXPECT_EQ(runs, 2);
  // After draining, the key is available again.
  EXPECT_TRUE(s.EnqueueUnique(Priority::kVisible, "refresh", [&] { ++runs; }));
  s.RunUntilIdle();
  EXPECT_EQ(runs, 3);
}

TEST(SchedulerTest, TasksCanEnqueueTasks) {
  Scheduler s;
  std::vector<int> order;
  s.Enqueue(Priority::kBackground, [&] {
    order.push_back(1);
    s.Enqueue(Priority::kVisible, [&] { order.push_back(2); });
  });
  s.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerTest, RunOneAndPending) {
  Scheduler s;
  int runs = 0;
  EXPECT_FALSE(s.RunOne());
  s.Enqueue(Priority::kVisible, [&] { ++runs; });
  s.Enqueue(Priority::kVisible, [&] { ++runs; });
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_TRUE(s.RunOne());
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(runs, 1);
}

TEST(SchedulerTest, ExecutedCounters) {
  Scheduler s;
  s.Enqueue(Priority::kVisible, [] {});
  s.Enqueue(Priority::kBackground, [] {});
  s.RunUntilIdle();
  EXPECT_EQ(s.executed(Priority::kVisible), 1u);
  EXPECT_EQ(s.executed(Priority::kBackground), 1u);
  EXPECT_EQ(s.total_executed(), 2u);
}

// RunOne, RunUntilIdle, and the worker share one pop-and-count path: every
// task counts once, under the band it was queued in.
TEST(SchedulerTest, EveryDrainPathCountsByBand) {
  Scheduler s;
  s.Enqueue(Priority::kBackground, [] {});
  s.Enqueue(Priority::kNear, [] {});
  EXPECT_TRUE(s.RunOne());
  EXPECT_EQ(s.executed(Priority::kNear), 1u);
  EXPECT_EQ(s.executed(Priority::kBackground), 0u);
  EXPECT_TRUE(s.RunOne());
  EXPECT_EQ(s.executed(Priority::kBackground), 1u);
  EXPECT_FALSE(s.RunOne());
  EXPECT_EQ(s.total_executed(), 2u);

  s.Enqueue(Priority::kVisible, [] {});
  EXPECT_EQ(s.RunUntilIdle(1), 1u);
  EXPECT_EQ(s.executed(Priority::kVisible), 1u);

  s.StartWorker();
  for (int i = 0; i < 5; ++i) s.Enqueue(Priority::kVisible, [] {});
  s.Enqueue(Priority::kNear, [] {});
  s.WaitIdle();
  s.StopWorker();
  EXPECT_EQ(s.executed(Priority::kVisible), 6u);
  EXPECT_EQ(s.executed(Priority::kNear), 2u);
  EXPECT_EQ(s.executed(Priority::kBackground), 1u);
  EXPECT_EQ(s.total_executed(), 9u);
}

TEST(SchedulerTest, BackgroundWorkerDrains) {
  Scheduler s;
  s.StartWorker();
  std::atomic<int> runs{0};
  for (int i = 0; i < 100; ++i) {
    s.Enqueue(Priority::kNear, [&] { runs.fetch_add(1); });
  }
  s.WaitIdle();
  EXPECT_EQ(runs.load(), 100);
  s.StopWorker();
  EXPECT_FALSE(s.worker_running());
}

TEST(SchedulerTest, WorkerVisibleFirstUnderLoad) {
  Scheduler s;
  // Enqueue before starting the worker so ordering is observable.
  std::vector<int> order;
  std::mutex m;
  for (int i = 0; i < 10; ++i) {
    s.Enqueue(Priority::kBackground, [&] {
      std::lock_guard<std::mutex> lock(m);
      order.push_back(2);
    });
  }
  s.Enqueue(Priority::kVisible, [&] {
    std::lock_guard<std::mutex> lock(m);
    order.push_back(1);
  });
  s.StartWorker();
  s.WaitIdle();
  s.StopWorker();
  ASSERT_EQ(order.size(), 11u);
  EXPECT_EQ(order[0], 1);  // visible ran first
}

}  // namespace
}  // namespace dataspread
