// ThreadPool stress tests: concurrent submission from many producer
// threads, destruction with work still queued, ParallelFor correctness
// under contention, and a parallel ExecuteFilter run. All of these are
// meaningful under -DMASKSEARCH_SANITIZE=thread, which must report no races.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "masksearch/common/latch.h"
#include "masksearch/common/thread_pool.h"
#include "masksearch/exec/filter_executor.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::MakeStore;
using testing_util::TempDir;

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
  pool.Wait();  // repeated waits must also be safe
}

TEST(ThreadPoolTest, ConcurrentSubmitFromManyProducers) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 500;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &sum, p] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        pool.Submit([&sum, p, i] {
          sum.fetch_add(static_cast<int64_t>(p) * kTasksPerProducer + i,
                        std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : producers) t.join();
  pool.Wait();
  constexpr int64_t n = static_cast<int64_t>(kProducers) * kTasksPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ThreadPoolTest, WaitFromMultipleThreads) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) waiters.emplace_back([&pool] { pool.Wait(); });
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, DestructionWithQueuedWorkCompletesEverything) {
  // Drain-on-destroy contract: workers only exit once stop_ is set AND the
  // queue is empty, so every task submitted before destruction must run.
  // Run several times to shake out orderings.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> counter{0};
    {
      ThreadPool pool(3);
      for (int i = 0; i < 256; ++i) {
        pool.Submit([&counter] {
          counter.fetch_add(1, std::memory_order_relaxed);
        });
      }
      // No Wait(): destructor runs with work still queued.
    }
    EXPECT_EQ(counter.load(), 256) << "round " << round;
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  ParallelFor(&pool, kN, [&hits](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForInlineWithNullPool) {
  std::vector<int> hits(1000, 0);
  ParallelFor(nullptr, hits.size(), [&hits](size_t i) { hits[i]++; });
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i], 1);
}

TEST(ThreadPoolTest, ParallelForZeroItems) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(&pool, 0, [&called](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, DefaultPoolIsSingletonAndUsable) {
  ThreadPool* a = ThreadPool::Default();
  ThreadPool* b = ThreadPool::Default();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  std::atomic<int> counter{0};
  ParallelFor(a, 64, [&counter](size_t) {
    counter.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(counter.load(), 64);
}

// The §3.2.1 scenario TSan must bless: the filter stage fanning per-mask
// bound computation out over the pool, with results identical to the
// single-threaded run.
TEST(ThreadPoolTest, ParallelExecuteFilterMatchesSequential) {
  TempDir dir("thread_pool_filter");
  auto store = MakeStore(dir.path(), /*num_images=*/16, /*num_models=*/2,
                         /*w=*/48, /*h=*/48, /*seed=*/23);
  ChiConfig cfg;
  cfg.cell_width = 8;
  cfg.cell_height = 8;
  cfg.num_bins = 8;
  IndexManager index(store->num_masks(), cfg);
  ASSERT_TRUE(index.BuildAll(*store).ok());

  FilterQuery q;
  CpTerm term;
  term.roi_source = RoiSource::kObjectBox;
  term.range = ValueRange(0.6, 1.0);
  q.terms.push_back(term);
  q.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kGt, 200.0);

  EngineOptions sequential;
  auto want = ExecuteFilter(*store, &index, q, sequential);
  ASSERT_TRUE(want.ok()) << want.status();

  ThreadPool pool(4);
  EngineOptions parallel_opts;
  parallel_opts.pool = &pool;
  for (int round = 0; round < 5; ++round) {
    auto got = ExecuteFilter(*store, &index, q, parallel_opts);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->mask_ids, want->mask_ids) << "round " << round;
  }
}

TEST(ThreadPoolTest, TryRunOneTaskDrainsQueueOnCallerThread) {
  ThreadPool pool(1);
  // Park the lone worker so queued tasks can only run via the caller.
  Latch parked(1);
  Latch release(1);
  pool.Submit([&] {
    parked.CountDown();
    release.Wait();
  });
  parked.Wait();

  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&] { ran.fetch_add(1); });
  }
  while (pool.TryRunOneTask()) {
  }
  EXPECT_EQ(ran.load(), 4);
  EXPECT_FALSE(pool.TryRunOneTask());  // empty queue: false, no block
  release.CountDown();
  pool.Wait();
}

// Regression for the nested-submission deadlock the serving layer
// surfaced: a task running ON the pool submits a sub-task to the SAME pool
// and waits for it. With a blocking Latch::Wait and every worker occupied
// by such waiters, the sub-tasks could never run. WaitHelping drains them
// on the waiting thread instead.
TEST(ThreadPoolTest, WaitHelpingFromPoolTaskCannotDeadlock) {
  ThreadPool pool(1);  // worst case: the waiter occupies the only worker
  Latch outer_done(1);
  pool.Submit([&] {
    auto inner = std::make_shared<Latch>(1);
    pool.Submit([inner] { inner->CountDown(); });
    WaitHelping(inner.get(), &pool);  // plain inner->Wait() would deadlock
    outer_done.CountDown();
  });
  outer_done.Wait();
  pool.Wait();
}

// The same hazard at executor scale: whole queries dispatched as tasks of
// a pool that is ALSO the engine's io_pool (service workers sharing one
// pool with the prefetch pipelines). Every pipeline wait must be a helping
// wait for this to terminate with 2 workers and 6 concurrent queries.
TEST(ThreadPoolTest, QueriesAsPoolTasksSharingEnginePoolsTerminate) {
  TempDir dir("thread_pool_nested_svc");
  auto store = MakeStore(dir.path(), /*num_images=*/12, /*num_models=*/2,
                         /*w=*/48, /*h=*/48, /*seed=*/29);
  ChiConfig cfg;
  cfg.cell_width = 8;
  cfg.cell_height = 8;
  cfg.num_bins = 8;
  IndexManager index(store->num_masks(), cfg);
  ASSERT_TRUE(index.BuildAll(*store).ok());

  FilterQuery q;
  CpTerm term;
  term.roi_source = RoiSource::kObjectBox;
  term.range = ValueRange(0.5, 1.0);
  q.terms.push_back(term);
  q.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kGt, 100.0);

  EngineOptions serial;
  auto want = ExecuteFilter(*store, &index, q, serial);
  ASSERT_TRUE(want.ok()) << want.status();

  ThreadPool pool(2);
  EngineOptions opts;
  opts.pool = &pool;
  opts.io_pool = &pool;  // aliased: loads and compute share the two workers
  opts.verify_batch = 4;

  const int kQueries = 6;
  std::vector<Result<FilterResult>> results(kQueries,
                                            Status::Internal("not run"));
  Latch done(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    pool.Submit([&, i] {
      results[i] = ExecuteFilter(*store, &index, q, opts);
      done.CountDown();
    });
  }
  WaitHelping(&done, &pool);
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status();
    EXPECT_EQ(results[i]->mask_ids, want->mask_ids) << "query " << i;
  }
}

}  // namespace
}  // namespace masksearch
