// Micro-benchmarks (google-benchmark) of the hot kernels: the CP scan, CHI
// construction (the §3.1 O(w·h) preprocessing) in blocked and reference
// variants, the derived-mask aggregation kernels (fused vs reference), the
// fused derived-CP count, batched mask I/O, bound computation (the per-mask
// filter-stage cost), and the compression codec.
//
// The *Reference variants are the pre-kernel scalar code paths; comparing
// them against the kernel variants in one run measures the kernel-layer
// speedup directly. Emit machine-readable results with
//   --benchmark_out=BENCH_micro_kernels.json --benchmark_out_format=json
// (tools/run_benchmarks.sh does this for the CI artifact).

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>

#include "masksearch/masksearch.h"

namespace masksearch {
namespace {

Mask MakeBlobMask(int32_t side, uint64_t seed) {
  Rng rng(seed);
  SaliencySpec spec;
  spec.width = side;
  spec.height = side;
  const ROI box = GenerateObjectBox(&rng, side, side);
  return GenerateSaliencyMask(&rng, spec, box, false);
}

ChiConfig DefaultConfig(int32_t side) {
  ChiConfig cfg;
  cfg.cell_width = std::max(1, side / 8);
  cfg.cell_height = std::max(1, side / 8);
  cfg.num_bins = 16;
  return cfg;
}

void BM_CpScanFullMask(benchmark::State& state) {
  const int32_t side = static_cast<int32_t>(state.range(0));
  const Mask mask = MakeBlobMask(side, 1);
  const ValueRange range(0.6, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountPixels(mask, range));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          mask.ByteSize());
}
BENCHMARK(BM_CpScanFullMask)->Arg(112)->Arg(224)->Arg(448);

void BM_CpScanRoi(benchmark::State& state) {
  const int32_t side = static_cast<int32_t>(state.range(0));
  const Mask mask = MakeBlobMask(side, 2);
  const ROI roi(side / 4, side / 4, 3 * side / 4, 3 * side / 4);
  const ValueRange range(0.8, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountPixels(mask, roi, range));
  }
}
BENCHMARK(BM_CpScanRoi)->Arg(112)->Arg(224);

void BM_ChiBuild(benchmark::State& state) {
  const int32_t side = static_cast<int32_t>(state.range(0));
  const Mask mask = MakeBlobMask(side, 3);
  const ChiConfig cfg = DefaultConfig(side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildChi(mask, cfg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          mask.ByteSize());
}
BENCHMARK(BM_ChiBuild)->Arg(112)->Arg(224)->Arg(448);

void BM_ChiBuildReference(benchmark::State& state) {
  const int32_t side = static_cast<int32_t>(state.range(0));
  const Mask mask = MakeBlobMask(side, 3);
  const ChiConfig cfg = DefaultConfig(side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildChiReference(mask, cfg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          mask.ByteSize());
}
BENCHMARK(BM_ChiBuildReference)->Arg(112)->Arg(224)->Arg(448);

// --- derived-mask aggregation kernels (§3.4) ---

std::vector<Mask> MakeGroup(size_t members, int32_t side) {
  std::vector<Mask> masks;
  for (size_t i = 0; i < members; ++i) {
    masks.push_back(MakeBlobMask(side, 40 + i));
  }
  return masks;
}

std::vector<const float*> GroupPtrs(const std::vector<Mask>& masks) {
  std::vector<const float*> p;
  for (const Mask& m : masks) p.push_back(m.data().data());
  return p;
}

DerivedAggOp OpFromRange(int64_t r) {
  return static_cast<DerivedAggOp>(r);
}

void BM_DerivedMaskKernel(benchmark::State& state) {
  const DerivedAggOp op = OpFromRange(state.range(0));
  const std::vector<Mask> masks = MakeGroup(8, 224);
  const std::vector<const float*> ptrs = GroupPtrs(masks);
  std::vector<float> out(masks[0].data().size());
  for (auto _ : state) {
    DerivedMaskKernel(op, 0.7f, DerivedMaskOne(), ptrs.data(), ptrs.size(),
                      out.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          masks.size() * masks[0].ByteSize());
}
BENCHMARK(BM_DerivedMaskKernel)->Arg(0)->Arg(1)->Arg(2);

void BM_DerivedMaskReference(benchmark::State& state) {
  const DerivedAggOp op = OpFromRange(state.range(0));
  const std::vector<Mask> masks = MakeGroup(8, 224);
  const std::vector<const float*> ptrs = GroupPtrs(masks);
  std::vector<float> out(masks[0].data().size());
  for (auto _ : state) {
    DerivedMaskReference(op, 0.7f, DerivedMaskOne(), ptrs.data(), ptrs.size(),
                         out.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          masks.size() * masks[0].ByteSize());
}
BENCHMARK(BM_DerivedMaskReference)->Arg(0)->Arg(1)->Arg(2);

void BM_DerivedCpCountFused(benchmark::State& state) {
  const DerivedAggOp op = OpFromRange(state.range(0));
  const std::vector<Mask> masks = MakeGroup(8, 224);
  const std::vector<const float*> ptrs = GroupPtrs(masks);
  const ROI roi(28, 28, 196, 196);
  const ValueRange range(0.7, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DerivedCpCount(op, 0.7f, DerivedMaskOne(),
                                            ptrs.data(), ptrs.size(), 224,
                                            224, roi, range));
  }
}
BENCHMARK(BM_DerivedCpCountFused)->Arg(0)->Arg(1)->Arg(2);

void BM_DerivedCpCountMaterialized(benchmark::State& state) {
  // The pre-kernel path: materialize the derived mask, then scan it.
  const DerivedAggOp op = OpFromRange(state.range(0));
  const std::vector<Mask> masks = MakeGroup(8, 224);
  const std::vector<const float*> ptrs = GroupPtrs(masks);
  const ROI roi(28, 28, 196, 196);
  const ValueRange range(0.7, 1.0);
  std::vector<float> out(masks[0].data().size());
  for (auto _ : state) {
    DerivedMaskReference(op, 0.7f, DerivedMaskOne(), ptrs.data(), ptrs.size(),
                         out.size(), out.data());
    benchmark::DoNotOptimize(CountPixelsRaw(out.data(), 224, 224, roi, range));
  }
}
BENCHMARK(BM_DerivedCpCountMaterialized)->Arg(0)->Arg(1)->Arg(2);

// --- batched mask I/O ---

/// Store of `count` small masks under a scratch dir, removed on destruction.
/// latency_us > 0 opens it through a latency-only DiskThrottle.
struct ScratchStore {
  std::string dir;
  std::unique_ptr<MaskStore> store;

  ScratchStore(int count, double latency_us) {
    dir = (std::filesystem::temp_directory_path() /
           ("masksearch_bench_batch_" + std::to_string(::getpid())))
              .string();
    std::filesystem::remove_all(dir);
    auto writer = MaskStoreWriter::Create(dir).ValueOrDie();
    Rng rng(77);
    for (int i = 0; i < count; ++i) {
      Mask m(112, 112);
      for (float& v : m.mutable_data()) v = rng.NextFloat();
      writer->Append(MaskMeta{}, m).ValueOrDie();
    }
    writer->Finish().CheckOK();
    MaskStore::Options opts;
    if (latency_us > 0) {
      opts.throttle = std::make_shared<DiskThrottle>(0.0, latency_us);
    }
    store = MaskStore::Open(dir, opts).ValueOrDie();
  }
  ~ScratchStore() { std::filesystem::remove_all(dir); }
};

// Both variants materialize all 64 masks at once (what the mask-agg
// verifier does for a group's members). The *Throttled pair runs against
// the modeled disk (unlimited bandwidth, 50 µs per request — IOP-bound):
// batching coalesces 64 requests into one.
void BM_LoadMaskBatch(benchmark::State& state) {
  ScratchStore s(64, 0.0);
  std::vector<MaskId> ids(64);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<MaskId>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.store->LoadMaskBatch(ids).ValueOrDie());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          s.store->TotalDataBytes());
}
BENCHMARK(BM_LoadMaskBatch);

void BM_LoadMaskSerial(benchmark::State& state) {
  ScratchStore s(64, 0.0);
  std::vector<Mask> masks(64);
  for (auto _ : state) {
    for (MaskId id = 0; id < s.store->num_masks(); ++id) {
      masks[id] = s.store->LoadMask(id).ValueOrDie();
    }
    benchmark::DoNotOptimize(masks.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          s.store->TotalDataBytes());
}
BENCHMARK(BM_LoadMaskSerial);

void BM_LoadMaskBatchThrottled(benchmark::State& state) {
  ScratchStore s(64, 50.0);
  std::vector<MaskId> ids(64);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<MaskId>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.store->LoadMaskBatch(ids).ValueOrDie());
  }
}
BENCHMARK(BM_LoadMaskBatchThrottled);

void BM_LoadMaskSerialThrottled(benchmark::State& state) {
  ScratchStore s(64, 50.0);
  std::vector<Mask> masks(64);
  for (auto _ : state) {
    for (MaskId id = 0; id < s.store->num_masks(); ++id) {
      masks[id] = s.store->LoadMask(id).ValueOrDie();
    }
    benchmark::DoNotOptimize(masks.data());
  }
}
BENCHMARK(BM_LoadMaskSerialThrottled);

// --- sharded store + overlapped verification (PR 3) ---

/// Store of `count` small masks written with `num_shards` data files,
/// opened against a latency-modeled disk with queue depth (an IOP-bound
/// device with NVMe-style request parallelism) and an I/O pool for
/// shard-parallel batch reads.
struct ShardedScratchStore {
  std::string dir;
  std::unique_ptr<ThreadPool> io_pool;
  std::unique_ptr<MaskStore> store;

  ShardedScratchStore(int count, int32_t num_shards, double latency_us,
                      int queue_depth, uint64_t max_bytes) {
    dir = (std::filesystem::temp_directory_path() /
           ("masksearch_bench_shard_" + std::to_string(::getpid()) + "_" +
            std::to_string(num_shards)))
              .string();
    std::filesystem::remove_all(dir);
    MaskStoreWriter::Options wopts;
    wopts.num_shards = num_shards;
    auto writer = MaskStoreWriter::Create(dir, wopts).ValueOrDie();
    Rng rng(78);
    for (int i = 0; i < count; ++i) {
      Mask m(112, 112);
      for (float& v : m.mutable_data()) v = rng.NextFloat();
      writer->Append(MaskMeta{}, m).ValueOrDie();
    }
    writer->Finish().CheckOK();
    io_pool = std::make_unique<ThreadPool>(8);
    MaskStore::Options opts;
    opts.throttle =
        std::make_shared<DiskThrottle>(0.0, latency_us, queue_depth);
    opts.batch_max_bytes = max_bytes;
    opts.io_pool = num_shards > 1 ? io_pool.get() : nullptr;
    store = MaskStore::Open(dir, opts).ValueOrDie();
  }
  ~ShardedScratchStore() { std::filesystem::remove_all(dir); }
};

// 64-mask batch on an IOP-bound modeled disk (200 µs/request, queue depth
// 8), with the coalescing cap set to one blob so the request count is
// genuinely fixed at 64 for every shard count: wall time is driven purely
// by how many request streams the loader keeps in flight. 1 shard issues
// the requests sequentially; N shards run N concurrent per-shard streams
// through the io_pool.
void BM_ShardedBatchIopBound(benchmark::State& state) {
  const int32_t shards = static_cast<int32_t>(state.range(0));
  const uint64_t blob = 112 * 112 * sizeof(float);
  ShardedScratchStore s(64, shards, /*latency_us=*/200.0, /*queue_depth=*/8,
                        /*max_bytes=*/blob);
  std::vector<MaskId> ids(64);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<MaskId>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.store->LoadMaskBatch(ids).ValueOrDie());
  }
}
BENCHMARK(BM_ShardedBatchIopBound)->Arg(1)->Arg(4)->Arg(8);

/// 16 groups × 8 members of 448² masks behind a latency-modeled disk
/// (1 ms/request, queue depth 8) — a ≥64-mask verification workload where
/// every group must be loaded and verified (no usable bounds) and each
/// verification builds the group's derived CHI (real compute to overlap).
/// `per_shard_devices` models the scale-out deployment: one modeled device
/// per shard file instead of one shared device.
struct AggPipelineFixture {
  std::string dir;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<ThreadPool> io_pool;
  std::unique_ptr<MaskStore> store;

  AggPipelineFixture(int32_t num_shards, bool shard_parallel_reads,
                     bool per_shard_devices = false) {
    dir = (std::filesystem::temp_directory_path() /
           ("masksearch_bench_aggpipe_" + std::to_string(::getpid()) + "_" +
            std::to_string(num_shards)))
              .string();
    std::filesystem::remove_all(dir);
    MaskStoreWriter::Options wopts;
    wopts.num_shards = num_shards;
    auto writer = MaskStoreWriter::Create(dir, wopts).ValueOrDie();
    for (int64_t img = 0; img < 16; ++img) {
      for (int32_t model = 0; model < 8; ++model) {
        MaskMeta meta;
        meta.image_id = img;
        meta.model_id = model;
        Mask m = MakeBlobMask(448, 100 + img * 8 + model);
        meta.object_box = ROI(56, 56, 392, 392);
        writer->Append(meta, m).ValueOrDie();
      }
    }
    writer->Finish().CheckOK();
    pool = std::make_unique<ThreadPool>(4);
    io_pool = std::make_unique<ThreadPool>(4);
    MaskStore::Options opts;
    opts.throttle = std::make_shared<DiskThrottle>(0.0, /*latency_us=*/1000.0,
                                                   /*queue_depth=*/8);
    opts.io_pool = shard_parallel_reads ? io_pool.get() : nullptr;
    opts.throttle_per_shard = per_shard_devices;
    store = MaskStore::Open(dir, opts).ValueOrDie();
  }
  ~AggPipelineFixture() { std::filesystem::remove_all(dir); }

  MaskAggQuery Query() const {
    MaskAggQuery q;
    q.op = MaskAggOp::kIntersectThreshold;
    q.agg_threshold = 0.7;
    q.term.roi_source = RoiSource::kObjectBox;
    q.term.range = ValueRange(0.7, 1.0);
    q.group_key = GroupKey::kImageId;
    q.k = 8;
    q.descending = true;
    return q;
  }

  ChiConfig Config() const {
    ChiConfig cfg;
    cfg.cell_width = cfg.cell_height = 56;
    cfg.num_bins = 16;
    return cfg;
  }
};

// arg 0: depth 1 — parallel batched verification, every batch loaded when
//        it is verified, single-file store.
// arg 1: depth 2 — the overlapped pipeline (io_pool: the next batch loads
//        while one is verified), single-file store.
// arg 2: + 4-shard store with shard-parallel batch reads, one modeled
//        device per shard — the full sharded + overlapped scale-out
//        configuration.
// Every iteration starts from an empty derived cache, so each of the 16
// groups pays one load + one derived-CHI build: the compute the pipeline
// overlaps with the next batch's I/O.
void BM_MaskAggVerifyPipeline(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  AggPipelineFixture f(mode >= 2 ? 4 : 1, mode >= 2, mode >= 2);
  const MaskAggQuery q = f.Query();
  EngineOptions opts;
  opts.pool = f.pool.get();
  opts.verify_batch = 4;
  if (mode >= 1) opts.io_pool = f.io_pool.get();
  for (auto _ : state) {
    DerivedIndexCache cache(f.Config());
    auto r = ExecuteMaskAgg(*f.store, nullptr, &cache, q, opts);
    r.status().CheckOK();
    benchmark::DoNotOptimize(r->groups.data());
  }
}
BENCHMARK(BM_MaskAggVerifyPipeline)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// --- buffer-pool cache (PR 4, docs/CACHING.md) ---

/// 64-mask store behind the paper's modeled disk (125 MiB/s, 200 µs per
/// request), opened through a CachedMaskStore over an ample buffer pool.
struct CachedScratchStore {
  std::string dir;
  std::shared_ptr<BufferPool> pool;
  std::unique_ptr<MaskStore> store;

  CachedScratchStore() {
    dir = (std::filesystem::temp_directory_path() /
           ("masksearch_bench_cache_" + std::to_string(::getpid())))
              .string();
    std::filesystem::remove_all(dir);
    auto writer = MaskStoreWriter::Create(dir).ValueOrDie();
    Rng rng(81);
    for (int i = 0; i < 64; ++i) {
      Mask m(112, 112);
      for (float& v : m.mutable_data()) v = rng.NextFloat();
      writer->Append(MaskMeta{}, m).ValueOrDie();
    }
    writer->Finish().CheckOK();
    BufferPool::Options popts;
    popts.budget_bytes = 64ull << 20;
    pool = std::make_shared<BufferPool>(popts);
    MaskStore::Options opts;
    opts.throttle = std::make_shared<DiskThrottle>(125.0 * 1024 * 1024,
                                                   /*latency_us=*/200.0);
    opts.cache = pool;
    store = MaskStore::Open(dir, opts).ValueOrDie();
  }
  ~CachedScratchStore() { std::filesystem::remove_all(dir); }

  std::vector<MaskId> AllIds() const {
    std::vector<MaskId> ids(64);
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<MaskId>(i);
    return ids;
  }
};

// Cold vs warm 64-mask batch against the modeled disk. The cold variant
// clears the pool every iteration (every load pays the disk model plus the
// insert); the warm variant touches the batch once up front, so every
// measured pass is served from memory. Their ratio is the storage-to-memory
// gap the cache closes on repeated fig11-style workloads (the acceptance
// target is warm >= 3x faster than cold).
void BM_CachedBatchLoadCold(benchmark::State& state) {
  CachedScratchStore s;
  const std::vector<MaskId> ids = s.AllIds();
  for (auto _ : state) {
    state.PauseTiming();
    s.pool->Clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(s.store->LoadMaskBatch(ids).ValueOrDie());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          s.store->TotalDataBytes());
}
BENCHMARK(BM_CachedBatchLoadCold)->Unit(benchmark::kMillisecond);

void BM_CachedBatchLoadWarm(benchmark::State& state) {
  CachedScratchStore s;
  const std::vector<MaskId> ids = s.AllIds();
  (void)s.store->LoadMaskBatch(ids).ValueOrDie();  // warm the pool
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.store->LoadMaskBatch(ids).ValueOrDie());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          s.store->TotalDataBytes());
  state.counters["hit_ratio"] = s.pool->Stats().HitRatio();
}
BENCHMARK(BM_CachedBatchLoadWarm)->Unit(benchmark::kMillisecond);

// Repeated filter workload through the full cache stack: a ChiCache as the
// CHI source supplying bounds and the mask-blob cache feeding verification
// — the steady state of a fig11-style exploration session.
// arg 0: cold (pool cleared each iteration; every pass reloads + rebuilds).
// arg 1: warm (one unmeasured pass, then every measured pass runs at
//        memory latency, mostly bound-decided).
void BM_RepeatedFilterWarmCache(benchmark::State& state) {
  const bool warm = state.range(0) == 1;
  CachedScratchStore s;
  ChiConfig cfg;
  cfg.cell_width = cfg.cell_height = 14;
  cfg.num_bins = 16;
  ChiCache chi_cache(s.pool, cfg);

  FilterQuery q;
  q.terms.push_back(
      CpTerm{RoiSource::kFullMask, ROI(), ValueRange(0.5, 1.0)});
  q.predicate = Predicate::Compare(CpExpr::Term(0), CompareOp::kGt,
                                   112.0 * 112.0 * 0.55);
  if (warm) {
    ExecuteFilter(*s.store, &chi_cache, q).status().CheckOK();
  }
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      s.pool->Clear();
      state.ResumeTiming();
    }
    auto r = ExecuteFilter(*s.store, &chi_cache, q);
    r.status().CheckOK();
    benchmark::DoNotOptimize(r->mask_ids.data());
  }
  state.counters["hit_ratio"] = s.pool->Stats().HitRatio();
}
BENCHMARK(BM_RepeatedFilterWarmCache)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_BoundComputation(benchmark::State& state) {
  const int32_t side = static_cast<int32_t>(state.range(0));
  const Mask mask = MakeBlobMask(side, 4);
  const Chi chi = BuildChi(mask, DefaultConfig(side));
  Rng rng(5);
  const ROI roi = GenerateObjectBox(&rng, side, side);
  const ValueRange range(0.6, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeCpBounds(chi, roi, range));
  }
}
BENCHMARK(BM_BoundComputation)->Arg(112)->Arg(224)->Arg(448);

void BM_CodecEncode(benchmark::State& state) {
  const Mask mask = MakeBlobMask(224, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeMask(mask));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          mask.ByteSize());
}
BENCHMARK(BM_CodecEncode);

void BM_CodecDecode(benchmark::State& state) {
  const Mask mask = MakeBlobMask(224, 7);
  const std::string blob = EncodeMask(mask);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeMask(blob));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          mask.ByteSize());
}
BENCHMARK(BM_CodecDecode);

void BM_PredicateBoundEval(benchmark::State& state) {
  // Full per-mask filter-stage work for a two-term predicate.
  const Mask mask = MakeBlobMask(224, 8);
  const Chi chi = BuildChi(mask, DefaultConfig(224));
  MaskMeta meta;
  meta.width = meta.height = 224;
  meta.object_box = ROI(40, 40, 180, 180);
  CpTerm t0;
  t0.roi_source = RoiSource::kObjectBox;
  t0.range = ValueRange(0.8, 1.0);
  CpTerm t1;
  t1.roi_source = RoiSource::kFullMask;
  t1.range = ValueRange(0.8, 1.0);
  const Predicate pred = Predicate::Compare(
      CpExpr::Term(0) - CpExpr::Constant(0.5) * CpExpr::Term(1),
      CompareOp::kLt, 0.0);
  for (auto _ : state) {
    std::vector<Interval> bounds;
    bounds.push_back(Interval::FromBounds(
        ComputeCpBounds(chi, ResolveRoi(t0, meta), t0.range)));
    bounds.push_back(Interval::FromBounds(
        ComputeCpBounds(chi, ResolveRoi(t1, meta), t1.range)));
    benchmark::DoNotOptimize(pred.EvalBounds(bounds));
  }
}
BENCHMARK(BM_PredicateBoundEval);

}  // namespace
}  // namespace masksearch

BENCHMARK_MAIN();
