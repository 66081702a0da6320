// P2 — blocking throughput and the inverted-index ablation: the overlap
// blocker's inverted index vs the naive all-pairs loop (via RuleBlocker
// computing the same predicate over the Cartesian product). This is the
// design choice that makes blocking cheaper than matching in the first
// place.

#include <benchmark/benchmark.h>

#include <thread>

#include "src/block/overlap_blocker.h"
#include "src/block/rule_blocker.h"
#include "src/block/similarity_join.h"
#include "src/core/executor.h"
#include "src/core/failpoint.h"
#include "src/datagen/case_study.h"
#include "src/datagen/preprocess.h"
#include "src/text/set_similarity.h"
#include "tests/oracle/block_oracle.h"

namespace {

using namespace emx;

struct Fixture {
  Table umetrics;
  Table usda;
};

const Fixture& GetFixture() {
  static const Fixture& f = *[] {
    auto data = GenerateCaseStudy();
    auto tables = PreprocessCaseStudy(*data);
    auto* fx = new Fixture{std::move(tables->umetrics),
                           std::move(tables->usda)};
    return fx;
  }();
  return f;
}

void BM_AttrEquivalenceBlocker(benchmark::State& state) {
  const Fixture& f = GetFixture();
  auto blocker = MakeM1EquivalenceBlocker();
  for (auto _ : state) {
    auto c = blocker->Block(f.umetrics, f.usda);
    benchmark::DoNotOptimize(c->size());
  }
}
BENCHMARK(BM_AttrEquivalenceBlocker)->Unit(benchmark::kMillisecond);

void BM_OverlapBlockerIndexed(benchmark::State& state) {
  const Fixture& f = GetFixture();
  auto blocker = MakeTitleOverlapBlocker(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto c = blocker->Block(f.umetrics, f.usda);
    benchmark::DoNotOptimize(c->size());
  }
}
BENCHMARK(BM_OverlapBlockerIndexed)->Arg(1)->Arg(3)->Arg(7)
    ->Unit(benchmark::kMillisecond);

// Ablation: the identical K=3 predicate evaluated over the full Cartesian
// product (no inverted index).
void BM_OverlapBlockerNaive(benchmark::State& state) {
  const Fixture& f = GetFixture();
  // Precompute token sets once (both variants share this cost in spirit;
  // the ablated difference is the pair enumeration strategy).
  OverlapBlockerOptions opts;
  opts.left_attr = "AwardTitle";
  opts.right_attr = "AwardTitle";
  WhitespaceTokenizer tok;
  auto lt = oracle::TokenizeColumn(
      *f.umetrics.ColumnByName("AwardTitle").value(), opts, tok);
  auto rt = oracle::TokenizeColumn(
      *f.usda.ColumnByName("AwardTitle").value(), opts, tok);
  for (auto _ : state) {
    size_t kept = 0;
    for (const auto& a : lt) {
      for (const auto& b : rt) {
        if (OverlapSize(a, b) >= 3) ++kept;
      }
    }
    benchmark::DoNotOptimize(kept);
  }
}
BENCHMARK(BM_OverlapBlockerNaive)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_OverlapCoefficientBlocker(benchmark::State& state) {
  const Fixture& f = GetFixture();
  auto blocker = MakeTitleOverlapCoefficientBlocker(0.7);
  for (auto _ : state) {
    auto c = blocker->Block(f.umetrics, f.usda);
    benchmark::DoNotOptimize(c->size());
  }
}
BENCHMARK(BM_OverlapCoefficientBlocker)->Unit(benchmark::kMillisecond);

// Jaccard similarity join: prefix + size filtering vs verified-pair count.
void BM_JaccardJoin(benchmark::State& state) {
  const Fixture& f = GetFixture();
  OverlapBlockerOptions opts;
  opts.left_attr = "AwardTitle";
  opts.right_attr = "AwardTitle";
  double threshold = static_cast<double>(state.range(0)) / 10.0;
  JaccardJoinBlocker join(opts, threshold);
  size_t verified = 0;
  for (auto _ : state) {
    TokenJoinStats stats;
    auto c = join.BlockWithStats(f.umetrics, f.usda, &stats);
    benchmark::DoNotOptimize(c->size());
    verified = stats.verified;
  }
  state.counters["verified_pairs"] =
      static_cast<double>(verified);
  state.counters["cartesian"] = static_cast<double>(
      f.umetrics.num_rows() * f.usda.num_rows());
}
BENCHMARK(BM_JaccardJoin)->Arg(5)->Arg(7)->Arg(9)
    ->Unit(benchmark::kMillisecond);

// Thread-count sweep over the §7 blockers: the same blocking runs pinned
// to 1/2/4/8-thread executors. Outputs are identical across the sweep (the
// executor's determinism guarantee); only wall-clock should move. The
// sweep_reliable counter mirrors BENCH_vectorize/BENCH_scale: 0 on a
// 1-core host, where every point in the sweep reads the same wall-clock
// no matter how well the pool scales.
void AnnotateSweep(benchmark::State& state) {
  unsigned host_cpus = std::thread::hardware_concurrency();
  state.counters["host_cpus"] = static_cast<double>(host_cpus);
  state.counters["sweep_reliable"] = host_cpus > 1 ? 1.0 : 0.0;
}

void BM_OverlapBlockerThreads(benchmark::State& state) {
  const Fixture& f = GetFixture();
  Executor pool(static_cast<size_t>(state.range(0)));
  ExecutorContext ctx{&pool};
  auto blocker = MakeTitleOverlapBlocker(3);
  for (auto _ : state) {
    auto c = blocker->Block(f.umetrics, f.usda, ctx);
    benchmark::DoNotOptimize(c->size());
  }
  AnnotateSweep(state);
}
BENCHMARK(BM_OverlapBlockerThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_JaccardJoinThreads(benchmark::State& state) {
  const Fixture& f = GetFixture();
  Executor pool(static_cast<size_t>(state.range(0)));
  ExecutorContext ctx{&pool};
  OverlapBlockerOptions opts;
  opts.left_attr = "AwardTitle";
  opts.right_attr = "AwardTitle";
  JaccardJoinBlocker join(opts, 0.7);
  for (auto _ : state) {
    auto c = join.Block(f.umetrics, f.usda, ctx);
    benchmark::DoNotOptimize(c->size());
  }
  AnnotateSweep(state);
}
BENCHMARK(BM_JaccardJoinThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SortedNeighborhood(benchmark::State& state) {
  const Fixture& f = GetFixture();
  SortedNeighborhoodBlocker blocker("AwardTitle", "AwardTitle",
                                    static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto c = blocker.Block(f.umetrics, f.usda);
    benchmark::DoNotOptimize(c->size());
  }
}
BENCHMARK(BM_SortedNeighborhood)->Arg(5)->Arg(20)
    ->Unit(benchmark::kMillisecond);

// Disarmed-failpoint overhead: the EMX_FAILPOINT sites sprinkled through
// csv/workflow/checkpoint code must cost one atomic load + branch when no
// fault is armed. This measures that fast path so a regression (e.g. someone
// adding a lock to Check()) is visible next to the blocking numbers it would
// tax.
void BM_FailpointDisarmedCheck(benchmark::State& state) {
  FailPoint& fp =
      FailPointRegistry::Global().GetOrCreate("bench/disarmed");
  for (auto _ : state) {
    benchmark::DoNotOptimize(fp.Check().ok());
  }
}
BENCHMARK(BM_FailpointDisarmedCheck);

// The same blocking workload as BM_OverlapBlockerIndexed but running through
// an armed-but-inert failpoint configuration, demonstrating that even ARMED
// kOff points don't measurably tax the pipeline.
void BM_OverlapBlockerWithDisarmedFailpoints(benchmark::State& state) {
  const Fixture& f = GetFixture();
  auto blocker = MakeTitleOverlapBlocker(3);
  for (auto _ : state) {
    auto c = blocker->Block(f.umetrics, f.usda);
    benchmark::DoNotOptimize(c->size());
  }
}
BENCHMARK(BM_OverlapBlockerWithDisarmedFailpoints)
    ->Unit(benchmark::kMillisecond);

void BM_CandidateSetUnion(benchmark::State& state) {
  const Fixture& f = GetFixture();
  auto c1 = MakeM1EquivalenceBlocker()->Block(f.umetrics, f.usda).value();
  auto c2 = MakeTitleOverlapBlocker(3)->Block(f.umetrics, f.usda).value();
  auto c3 =
      MakeTitleOverlapCoefficientBlocker(0.7)->Block(f.umetrics, f.usda)
          .value();
  for (auto _ : state) {
    CandidateSet c = CandidateSet::UnionAll({&c1, &c2, &c3});
    benchmark::DoNotOptimize(c.size());
  }
}
BENCHMARK(BM_CandidateSetUnion);

}  // namespace

BENCHMARK_MAIN();
