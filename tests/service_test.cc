// Query-service stress suite (docs/SERVING.md): many tenants submitting a
// random mix of filter / top-k / scalar-agg / mask-agg requests through the
// concurrent QueryService must produce results byte-identical to serial
// execution — under a tiny thrashing cache budget and overlapped I/O
// pipelines — plus admission control, deadline, cancellation, fairness,
// and shutdown semantics. The ASan/TSan lanes run this suite.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "masksearch/common/thread_pool.h"
#include "masksearch/service/query_service.h"
#include "masksearch/storage/disk_throttle.h"
#include "masksearch/workload/query_gen.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::MakeStore;
using testing_util::TempDir;

ChiConfig TestConfig() {
  ChiConfig cfg;
  cfg.cell_width = cfg.cell_height = 8;
  cfg.num_bins = 8;
  return cfg;
}

/// Random mixed-kind request stream, mirroring the Fig.-11 workload mix.
std::vector<QueryRequest> GenerateMix(Rng* rng, const MaskStore& store,
                                      size_t n) {
  QueryGenOptions gen;
  gen.threshold_fraction_max = 0.5;  // keep result sets non-empty
  std::vector<QueryRequest> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng->UniformInt(0, 4)) {
      case 0:
      case 1:
        out.push_back(
            QueryRequest::Filter(GenerateFilterQuery(rng, store, gen)));
        break;
      case 2:
        out.push_back(QueryRequest::TopK(GenerateTopKQuery(rng, store, gen)));
        break;
      case 3:
        out.push_back(
            QueryRequest::Aggregation(GenerateAggQuery(rng, store, gen)));
        break;
      default: {
        MaskAggQuery q;
        q.op = rng->NextBool() ? MaskAggOp::kIntersectThreshold
                               : MaskAggOp::kUnionThreshold;
        q.agg_threshold = 0.5;
        q.term.roi_source = RoiSource::kObjectBox;
        q.term.range = RandomValueRange(rng, gen);
        q.group_key = GroupKey::kImageId;
        q.k = 5;
        q.descending = rng->NextBool();
        out.push_back(QueryRequest::MaskAgg(std::move(q)));
        break;
      }
    }
  }
  return out;
}

/// Serial ground truth: the same specs through direct Session calls.
QueryResponse RunSerial(Session* session, const QueryRequest& q) {
  QueryResponse r;
  r.kind = q.kind;
  switch (q.kind) {
    case QueryRequest::Kind::kFilter:
      r.filter = session->Filter(q.filter).ValueOrDie();
      break;
    case QueryRequest::Kind::kTopK:
      r.topk = session->TopK(q.topk).ValueOrDie();
      break;
    case QueryRequest::Kind::kAggregation:
      r.agg = session->Aggregate(q.agg).ValueOrDie();
      break;
    case QueryRequest::Kind::kMaskAgg:
      r.agg = session->MaskAggregate(q.mask_agg).ValueOrDie();
      break;
  }
  return r;
}

/// Byte-identical result comparison (stats are scheduling-dependent and
/// deliberately not compared).
void ExpectSameResult(const QueryResponse& expected, const QueryResponse& got,
                      size_t query_index) {
  ASSERT_EQ(expected.kind, got.kind) << "query " << query_index;
  switch (expected.kind) {
    case QueryRequest::Kind::kFilter:
      EXPECT_EQ(expected.filter.mask_ids, got.filter.mask_ids)
          << "query " << query_index;
      break;
    case QueryRequest::Kind::kTopK: {
      ASSERT_EQ(expected.topk.items.size(), got.topk.items.size())
          << "query " << query_index;
      for (size_t i = 0; i < expected.topk.items.size(); ++i) {
        EXPECT_EQ(expected.topk.items[i].mask_id, got.topk.items[i].mask_id)
            << "query " << query_index << " item " << i;
        EXPECT_EQ(expected.topk.items[i].value, got.topk.items[i].value)
            << "query " << query_index << " item " << i;
      }
      break;
    }
    case QueryRequest::Kind::kAggregation:
    case QueryRequest::Kind::kMaskAgg: {
      ASSERT_EQ(expected.agg.groups.size(), got.agg.groups.size())
          << "query " << query_index;
      for (size_t i = 0; i < expected.agg.groups.size(); ++i) {
        EXPECT_EQ(expected.agg.groups[i].group, got.agg.groups[i].group)
            << "query " << query_index << " group " << i;
        EXPECT_EQ(expected.agg.groups[i].value, got.agg.groups[i].value)
            << "query " << query_index << " group " << i;
      }
      break;
    }
  }
}

struct Harness {
  std::unique_ptr<TempDir> dir;
  std::shared_ptr<DiskThrottle> throttle;
  std::unique_ptr<MaskStore> store;
  std::unique_ptr<Session> session;
  std::unique_ptr<ThreadPool> io_pool;

  /// `cache_budget` > 0 opens the store + session caches under one tiny
  /// shared pool; `latency_us` > 0 models a slow disk (admission/deadline
  /// tests need the worker to be demonstrably busy); `no_coalesce` caps
  /// coalesced reads at one blob so every mask pays the modeled latency —
  /// the deadline tests need execution to span many modeled requests.
  static Harness Make(const std::string& tag, uint64_t cache_budget,
                      double latency_us, bool use_index = true,
                      bool overlapped = false, bool no_coalesce = false) {
    Harness h;
    h.dir = std::make_unique<TempDir>(tag);
    // Build the dataset once per TempDir path.
    { MakeStore(h.dir->path(), 20, 2, 48, 48, /*seed=*/11); }
    MaskStore::Options sopts;
    if (latency_us > 0) {
      h.throttle = std::make_shared<DiskThrottle>(
          /*bytes_per_second=*/256.0 * 1024 * 1024, latency_us,
          /*queue_depth=*/4);
      sopts.throttle = h.throttle;
    }
    if (no_coalesce) sopts.batch_max_bytes = 1;
    std::shared_ptr<BufferPool> pool;
    if (cache_budget > 0) {
      BufferPool::Options popts;
      popts.budget_bytes = cache_budget;
      popts.shards = 4;
      pool = std::make_shared<BufferPool>(popts);
      sopts.cache = pool;
    }
    h.store = MaskStore::Open(h.dir->path(), sopts).ValueOrDie();
    SessionOptions opts;
    opts.chi = TestConfig();
    opts.use_index = use_index;
    opts.cache = pool;
    // Small verification batches: fine-grained deadline/cancel checkpoints
    // (results are batch-size independent).
    opts.verify_batch = 4;
    if (overlapped) {
      h.io_pool = std::make_unique<ThreadPool>(3);
      opts.io_pool = h.io_pool.get();
    }
    h.session = Session::Open(h.store.get(), opts).ValueOrDie();
    return h;
  }
};

// --- determinism under concurrency -----------------------------------------

TEST(ServiceTest, ConcurrentMixedWorkloadMatchesSerial) {
  // Serial ground truth: its own session and store (cold, uncached).
  Harness serial = Harness::Make("svc_serial", /*cache_budget=*/0,
                                 /*latency_us=*/0);
  Rng rng(303);
  const std::vector<QueryRequest> mix =
      GenerateMix(&rng, *serial.store, /*n=*/48);
  std::vector<QueryResponse> expected;
  expected.reserve(mix.size());
  for (const QueryRequest& q : mix) {
    expected.push_back(RunSerial(serial.session.get(), q));
  }

  // Service run: 8 executor slots over one shared session with a tiny
  // (thrashing) cache budget and the overlapped I/O pipelines enabled —
  // pins, CHI caches, and prefetch under real contention.
  Harness svc = Harness::Make("svc_conc", /*cache_budget=*/192 * 1024,
                              /*latency_us=*/0, /*use_index=*/true,
                              /*overlapped=*/true);
  QueryServiceOptions sopts;
  sopts.num_workers = 8;
  sopts.max_queue_depth = mix.size();
  auto service = QueryService::Start(svc.session.get(), sopts).ValueOrDie();

  std::vector<std::shared_ptr<PendingQuery>> pending;
  pending.reserve(mix.size());
  for (size_t i = 0; i < mix.size(); ++i) {
    ServiceRequest req;
    req.tenant = static_cast<TenantId>(i % 5);
    req.priority = static_cast<PriorityClass>(i % kNumPriorityClasses);
    req.query = mix[i];
    auto p = service->Submit(std::move(req));
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    pending.push_back(*p);
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    auto r = pending[i]->Wait();
    ASSERT_TRUE(r.ok()) << "query " << i << ": " << r.status().ToString();
    ExpectSameResult(expected[i], *r, i);
  }

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.total.submitted, mix.size());
  EXPECT_EQ(stats.total.admitted, mix.size());
  EXPECT_EQ(stats.total.completed, mix.size());
  EXPECT_EQ(stats.total.rejected, 0u);
  EXPECT_EQ(stats.total.latency.count, mix.size());
  service->Drain();
  EXPECT_EQ(service->Stats().queued_now, 0u);
}

// Same invariant in the MS-II regime: concurrent incremental indexing
// (first-build-wins CHI registration) must not perturb results either.
TEST(ServiceTest, ConcurrentIncrementalIndexingMatchesSerial) {
  Harness serial = Harness::Make("svcii_serial", 0, 0);
  Rng rng(404);
  const std::vector<QueryRequest> mix = GenerateMix(&rng, *serial.store, 24);
  std::vector<QueryResponse> expected;
  for (const QueryRequest& q : mix) {
    expected.push_back(RunSerial(serial.session.get(), q));
  }

  Harness svc;
  svc.dir = std::make_unique<TempDir>("svcii_conc");
  { MakeStore(svc.dir->path(), 20, 2, 48, 48, /*seed=*/11); }
  svc.store = MaskStore::Open(svc.dir->path()).ValueOrDie();
  SessionOptions opts;
  opts.chi = TestConfig();
  opts.incremental = true;  // MS-II
  svc.session = Session::Open(svc.store.get(), opts).ValueOrDie();

  QueryServiceOptions sopts;
  sopts.num_workers = 6;
  sopts.max_queue_depth = mix.size();
  auto service = QueryService::Start(svc.session.get(), sopts).ValueOrDie();
  std::vector<std::shared_ptr<PendingQuery>> pending;
  for (size_t i = 0; i < mix.size(); ++i) {
    ServiceRequest req;
    req.tenant = static_cast<TenantId>(i % 3);
    req.query = mix[i];
    pending.push_back(service->Submit(std::move(req)).ValueOrDie());
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    auto r = pending[i]->Wait();
    ASSERT_TRUE(r.ok()) << "query " << i << ": " << r.status().ToString();
    ExpectSameResult(expected[i], *r, i);
  }
}

// --- admission control ------------------------------------------------------

TEST(ServiceTest, AdmissionShedsWithTypedStatusWhenQueueFull) {
  // One slow worker (modeled 2 ms/request disk, no index: every query
  // loads every mask) and a depth-2 queue: a fast submission burst must be
  // mostly shed with kUnavailable.
  Harness h = Harness::Make("svc_admit", 0, /*latency_us=*/2000.0,
                            /*use_index=*/false);
  QueryServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.max_queue_depth = 2;
  auto service = QueryService::Start(h.session.get(), sopts).ValueOrDie();

  Rng rng(505);
  QueryGenOptions gen;
  std::vector<std::shared_ptr<PendingQuery>> admitted;
  size_t rejected = 0;
  for (int i = 0; i < 30; ++i) {
    ServiceRequest req;
    req.tenant = i % 4;
    req.query = QueryRequest::Filter(GenerateFilterQuery(&rng, *h.store, gen));
    auto p = service->Submit(std::move(req));
    if (p.ok()) {
      admitted.push_back(*p);
    } else {
      EXPECT_TRUE(p.status().IsUnavailable()) << p.status().ToString();
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  for (auto& p : admitted) EXPECT_TRUE(p->Wait().ok());

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.total.submitted, 30u);
  EXPECT_EQ(stats.total.rejected, rejected);
  EXPECT_EQ(stats.total.admitted + stats.total.rejected,
            stats.total.submitted);
  EXPECT_EQ(stats.total.completed, admitted.size());
}

TEST(ServiceTest, AdmissionShedsOnQueuedBytesButAdmitsIntoEmptyQueue) {
  Harness h = Harness::Make("svc_bytes", 0, /*latency_us=*/5000.0,
                            /*use_index=*/false);
  QueryServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.max_queue_depth = 64;
  sopts.max_queued_bytes = 1;  // any second queued request exceeds this
  auto service = QueryService::Start(h.session.get(), sopts).ValueOrDie();

  Rng rng(606);
  QueryGenOptions gen;
  auto make_req = [&] {
    ServiceRequest req;
    req.query = QueryRequest::Filter(GenerateFilterQuery(&rng, *h.store, gen));
    return req;
  };
  // First request dispatches; the next two race for the queue: whichever
  // finds it empty is admitted (empty-queue override), a request that
  // finds it occupied is shed on bytes.
  auto p0 = service->Submit(make_req());
  ASSERT_TRUE(p0.ok());
  auto p1 = service->Submit(make_req());
  auto p2 = service->Submit(make_req());
  EXPECT_TRUE(p1.ok() || p1.status().IsUnavailable());
  EXPECT_FALSE(p1.ok() && p2.ok())
      << "both follow-ups admitted: queued-bytes limit never applied";
  service->Drain();
}

// --- deadlines and cancellation --------------------------------------------

TEST(ServiceTest, QueuedDeadlineExpiryIsShedAtDispatch) {
  Harness h = Harness::Make("svc_dl_queue", 0, /*latency_us=*/3000.0,
                            /*use_index=*/false, /*overlapped=*/false,
                            /*no_coalesce=*/true);
  QueryServiceOptions sopts;
  sopts.num_workers = 1;
  auto service = QueryService::Start(h.session.get(), sopts).ValueOrDie();

  Rng rng(707);
  QueryGenOptions gen;
  ServiceRequest slow;
  slow.query = QueryRequest::Filter(GenerateFilterQuery(&rng, *h.store, gen));
  auto p0 = service->Submit(slow);  // occupies the only worker (≥ 100 ms)
  ASSERT_TRUE(p0.ok());

  ServiceRequest doomed;
  doomed.query = slow.query;
  doomed.deadline_seconds = 1e-4;  // expires while queued behind p0
  auto p1 = service->Submit(std::move(doomed));
  ASSERT_TRUE(p1.ok());
  auto r1 = (*p1)->Wait();
  ASSERT_FALSE(r1.ok());
  EXPECT_TRUE(r1.status().IsDeadlineExceeded()) << r1.status().ToString();
  EXPECT_TRUE(p0.ValueOrDie()->Wait().ok());
  EXPECT_GE(service->Stats().total.deadline_missed, 1u);
}

TEST(ServiceTest, MidExecutionDeadlineAbortsAtBatchBoundary) {
  // ~40 masks × 3 ms modeled latency ≈ 120 ms of execution against a 20 ms
  // deadline: the executor must abort at a batch boundary, typed.
  Harness h = Harness::Make("svc_dl_exec", 0, /*latency_us=*/3000.0,
                            /*use_index=*/false, /*overlapped=*/false,
                            /*no_coalesce=*/true);
  QueryServiceOptions sopts;
  sopts.num_workers = 1;
  auto service = QueryService::Start(h.session.get(), sopts).ValueOrDie();

  Rng rng(808);
  QueryGenOptions gen;
  ServiceRequest req;
  req.query = QueryRequest::Filter(GenerateFilterQuery(&rng, *h.store, gen));
  req.deadline_seconds = 0.02;
  auto r = service->Execute(std::move(req));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
  EXPECT_GE(service->Stats().total.deadline_missed, 1u);
}

TEST(ServiceTest, CancelQueuedAndRunningRequests) {
  Harness h = Harness::Make("svc_cancel", 0, /*latency_us=*/3000.0,
                            /*use_index=*/false);
  QueryServiceOptions sopts;
  sopts.num_workers = 1;
  auto service = QueryService::Start(h.session.get(), sopts).ValueOrDie();

  Rng rng(909);
  QueryGenOptions gen;
  auto make_req = [&] {
    ServiceRequest req;
    req.query = QueryRequest::Filter(GenerateFilterQuery(&rng, *h.store, gen));
    return req;
  };
  auto running = service->Submit(make_req()).ValueOrDie();
  auto queued = service->Submit(make_req()).ValueOrDie();
  queued->Cancel();   // still waiting behind `running`: shed at dispatch
  running->Cancel();  // mid-execution: aborts at the next batch boundary

  const auto r_running = running->Wait();
  const auto r_queued = queued->Wait();
  ASSERT_FALSE(r_queued.ok());
  EXPECT_TRUE(r_queued.status().IsCancelled()) << r_queued.status().ToString();
  // The running request may have been cancelled before, during, or (rarely)
  // after its execution finished; all are legal, but a failure must be the
  // typed cancellation.
  if (!r_running.ok()) {
    EXPECT_TRUE(r_running.status().IsCancelled())
        << r_running.status().ToString();
  }
  EXPECT_GE(service->Stats().total.cancelled, 1u);
}

TEST(ServiceTest, ShutdownCancelsQueuedRequests) {
  Harness h = Harness::Make("svc_shutdown", 0, /*latency_us=*/3000.0,
                            /*use_index=*/false);
  QueryServiceOptions sopts;
  sopts.num_workers = 1;
  auto service = QueryService::Start(h.session.get(), sopts).ValueOrDie();

  Rng rng(111);
  QueryGenOptions gen;
  std::vector<std::shared_ptr<PendingQuery>> pending;
  for (int i = 0; i < 6; ++i) {
    ServiceRequest req;
    req.query = QueryRequest::Filter(GenerateFilterQuery(&rng, *h.store, gen));
    pending.push_back(service->Submit(std::move(req)).ValueOrDie());
  }
  service->Shutdown();
  size_t cancelled = 0;
  for (auto& p : pending) {
    const auto r = p->Wait();  // every handle must resolve
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
      ++cancelled;
    }
  }
  EXPECT_GT(cancelled, 0u);
  // Post-shutdown submissions are shed, typed.
  ServiceRequest late;
  late.query = QueryRequest::Filter(GenerateFilterQuery(&rng, *h.store, gen));
  EXPECT_TRUE(service->Submit(std::move(late)).status().IsUnavailable());
}

// --- scheduler policy -------------------------------------------------------

TEST(ServiceTest, SchedulerRoundRobinsTenantsWithinClass) {
  const std::array<uint32_t, kNumPriorityClasses> weights{{1, 1, 1}};
  FairScheduler sched(weights);
  // Tenant 1 floods; tenants 2 and 3 each queue one request.
  auto push = [&](TenantId t, int seq) {
    ScheduledItem item;
    item.tenant = t;
    item.priority = PriorityClass::kNormal;
    item.payload = std::make_shared<int>(seq);
    sched.Push(std::move(item));
  };
  for (int i = 0; i < 5; ++i) push(1, i);
  push(2, 100);
  push(3, 200);

  std::vector<TenantId> order;
  ScheduledItem item;
  while (sched.Pop(&item)) order.push_back(item.tenant);
  ASSERT_EQ(order.size(), 7u);
  // One item per tenant per rotation: 2 and 3 dispatch within the first
  // three slots despite tenant 1's backlog; tenant 1 fills the tail.
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
  for (size_t i = 3; i < order.size(); ++i) EXPECT_EQ(order[i], 1);
}

TEST(ServiceTest, SchedulerWeightsClassesAndNeverStarves) {
  const std::array<uint32_t, kNumPriorityClasses> weights{{2, 1, 1}};
  FairScheduler sched(weights);
  auto push = [&](PriorityClass c, int n) {
    for (int i = 0; i < n; ++i) {
      ScheduledItem item;
      item.tenant = 7;
      item.priority = c;
      item.payload = std::make_shared<int>(i);
      sched.Push(std::move(item));
    }
  };
  push(PriorityClass::kInteractive, 8);
  push(PriorityClass::kBatch, 4);

  std::vector<PriorityClass> order;
  ScheduledItem item;
  while (sched.Pop(&item)) order.push_back(item.priority);
  ASSERT_EQ(order.size(), 12u);
  // Weighted DRR at 2:1: within the first 6 dispatches batch work appears
  // twice — backlogged low-priority work is paced, not starved.
  size_t batch_in_first6 = 0;
  for (size_t i = 0; i < 6; ++i) {
    if (order[i] == PriorityClass::kBatch) ++batch_in_first6;
  }
  EXPECT_EQ(batch_in_first6, 2u);
  // Everything eventually dispatches.
  EXPECT_EQ(sched.size(), 0u);
}

// --- service + shared pools -------------------------------------------------

// Service workers over a session whose compute/I-O pool is one shared
// 2-thread ThreadPool: executor pipelines submit io_pool tasks and wait on
// latches from many workers at once. WaitHelping keeps this deadlock-free;
// the test is the regression for the nested-submission hazard.
TEST(ServiceTest, SharedAliasedPoolsDoNotDeadlock) {
  Harness h;
  h.dir = std::make_unique<TempDir>("svc_alias");
  { MakeStore(h.dir->path(), 16, 2, 48, 48, /*seed=*/11); }
  BufferPool::Options popts;
  popts.budget_bytes = 256 * 1024;
  auto pool = std::make_shared<BufferPool>(popts);
  MaskStore::Options sopts_store;
  sopts_store.cache = pool;
  h.store = MaskStore::Open(h.dir->path(), sopts_store).ValueOrDie();
  h.io_pool = std::make_unique<ThreadPool>(2);
  SessionOptions opts;
  opts.chi = TestConfig();
  opts.cache = pool;
  opts.pool = h.io_pool.get();     // aliased compute pool
  opts.io_pool = h.io_pool.get();  // and I/O pool
  h.session = Session::Open(h.store.get(), opts).ValueOrDie();

  QueryServiceOptions sopts;
  sopts.num_workers = 6;
  sopts.max_queue_depth = 128;
  auto service = QueryService::Start(h.session.get(), sopts).ValueOrDie();
  Rng rng(222);
  const std::vector<QueryRequest> mix = GenerateMix(&rng, *h.store, 36);
  std::vector<std::shared_ptr<PendingQuery>> pending;
  for (size_t i = 0; i < mix.size(); ++i) {
    ServiceRequest req;
    req.tenant = static_cast<TenantId>(i % 4);
    req.query = mix[i];
    pending.push_back(service->Submit(std::move(req)).ValueOrDie());
  }
  for (auto& p : pending) EXPECT_TRUE(p->Wait().ok());
}

// --- pending-query waiting and notification ---------------------------------

TEST(ServiceTest, WaitForTimesOutTypedThenResolves) {
  Harness h = Harness::Make("svc_waitfor", 0, /*latency_us=*/3000.0,
                            /*use_index=*/false, /*overlapped=*/false,
                            /*no_coalesce=*/true);
  QueryServiceOptions sopts;
  sopts.num_workers = 1;
  auto service = QueryService::Start(h.session.get(), sopts).ValueOrDie();

  Rng rng(121);
  QueryGenOptions gen;
  ServiceRequest req;
  req.query = QueryRequest::Filter(GenerateFilterQuery(&rng, *h.store, gen));
  auto p = service->Submit(std::move(req)).ValueOrDie();

  // The modeled disk keeps the query busy for >= 100 ms: a 1 ms wait must
  // time out typed — and the query KEEPS RUNNING (timeout is not Cancel).
  const auto timed_out = p->WaitFor(std::chrono::milliseconds(1));
  ASSERT_FALSE(timed_out.ok());
  EXPECT_TRUE(timed_out.status().IsUnavailable())
      << timed_out.status().ToString();

  const auto done = p->WaitFor(std::chrono::seconds(60));
  MS_ASSERT_OK(done.status());
  // A resolved handle answers WaitFor immediately, repeatably.
  MS_EXPECT_OK(p->WaitFor(std::chrono::milliseconds(0)).status());
  MS_EXPECT_OK(p->Wait().status());
}

TEST(ServiceTest, NotifyDoneFiresOnceOnCompletion) {
  Harness h = Harness::Make("svc_notify", 0, /*latency_us=*/0);
  auto service =
      QueryService::Start(h.session.get(), QueryServiceOptions{}).ValueOrDie();

  Rng rng(131);
  QueryGenOptions gen;
  ServiceRequest req;
  req.query = QueryRequest::Filter(GenerateFilterQuery(&rng, *h.store, gen));
  auto p = service->Submit(std::move(req)).ValueOrDie();

  std::atomic<int> fired{0};
  p->NotifyDone([&] { fired.fetch_add(1); });
  MS_ASSERT_OK(p->Wait().status());
  // Wait() returning only guarantees the result is set; the callback runs on
  // the finishing worker thread and may trail by an instant. It must still
  // fire exactly once.
  for (int i = 0; i < 2000 && fired.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fired.load(), 1);

  // Registration after completion runs the callback inline.
  std::atomic<int> late{0};
  p->NotifyDone([&] { late.fetch_add(1); });
  EXPECT_EQ(late.load(), 1);
}

// --- stats: reject-reason split and bounded memory ---------------------------

TEST(ServiceTest, RejectionCountersSplitShutdownFromOverload) {
  Harness h = Harness::Make("svc_rej_split", 0, /*latency_us=*/2000.0,
                            /*use_index=*/false);
  QueryServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.max_queue_depth = 1;
  auto service = QueryService::Start(h.session.get(), sopts).ValueOrDie();

  Rng rng(141);
  QueryGenOptions gen;
  auto make_req = [&] {
    ServiceRequest req;
    req.query = QueryRequest::Filter(GenerateFilterQuery(&rng, *h.store, gen));
    return req;
  };
  // Burst past the depth-1 queue: overload sheds.
  std::vector<std::shared_ptr<PendingQuery>> admitted;
  for (int i = 0; i < 10; ++i) {
    auto p = service->Submit(make_req());
    if (p.ok()) admitted.push_back(*p);
  }
  for (auto& p : admitted) (void)p->Wait();
  const ServiceStats mid = service->Stats();
  EXPECT_GT(mid.total.rejected, 0u);
  EXPECT_EQ(mid.total.rejected_shutdown, 0u);

  // Shutdown-time rejects land in their own counter, not in overload.
  service->Shutdown();
  EXPECT_TRUE(service->Submit(make_req()).status().IsUnavailable());
  EXPECT_TRUE(service->Submit(make_req()).status().IsUnavailable());
  const ServiceStats after = service->Stats();
  EXPECT_EQ(after.total.rejected, mid.total.rejected);
  EXPECT_EQ(after.total.rejected_shutdown, 2u);
  EXPECT_NE(after.ToString().find("rejected_shutdown=2"), std::string::npos);
}

TEST(ServiceTest, LatencySummaryFromHistogramIsBoundedAndExact) {
  // O(1)-memory histogram over many samples: count, mean, and max are
  // exact (streamed); percentiles carry the log-bucket relative error.
  obs::LogHistogram h;
  const size_t n = 50000;
  // Latencies 1ms..50s — inside the histogram's bucketed range.
  for (size_t i = 0; i < n; ++i) h.Record((i + 1) * 1e-3);

  EXPECT_EQ(h.count(), n);
  const LatencySummary s = LatencySummary::FromHistogram(h);
  EXPECT_EQ(s.count, n);
  EXPECT_DOUBLE_EQ(s.max, n * 1e-3);
  EXPECT_NEAR(s.mean, (n + 1) / 2.0 * 1e-3, 1e-6);
  // Percentiles of the uniform population land within the histogram's
  // bounded relative error of the true order statistics.
  EXPECT_NEAR(s.p50, 0.50 * n * 1e-3, 0.10 * 0.50 * n * 1e-3);
  EXPECT_NEAR(s.p95, 0.95 * n * 1e-3, 0.10 * 0.95 * n * 1e-3);
  EXPECT_GE(s.p99, s.p95);
  EXPECT_GE(s.p95, s.p50);
  EXPECT_LE(s.p99, s.max);
}

TEST(ServiceTest, LatencySummarySmallCountsStayWithinBucketError) {
  obs::LogHistogram h;
  for (double v : {4.0, 1.0, 3.0, 2.0}) h.Record(v);
  const LatencySummary s = LatencySummary::FromHistogram(h);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  // Median of {1,2,3,4}: bucket interpolation, not exact — within the
  // ~9% relative error bound around the interpolated value 2.5.
  EXPECT_NEAR(s.p50, 2.5, 0.25 * 2.5);

  // Degenerate populations are exact: empty, single-sample, all-equal.
  const LatencySummary empty =
      LatencySummary::FromHistogram(obs::LogHistogram());
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p99, 0.0);

  obs::LogHistogram one;
  one.Record(0.125);
  const LatencySummary single = LatencySummary::FromHistogram(one);
  EXPECT_DOUBLE_EQ(single.p50, 0.125);
  EXPECT_DOUBLE_EQ(single.p99, 0.125);

  obs::LogHistogram merged;
  merged.Merge(h);
  merged.Merge(one);
  EXPECT_EQ(merged.count(), 5u);
  EXPECT_DOUBLE_EQ(merged.max(), 4.0);
  EXPECT_DOUBLE_EQ(merged.min(), 0.125);
}

}  // namespace
}  // namespace masksearch
