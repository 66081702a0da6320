// MatchService oracle suite: a resident service's point lookups must be
// BIT-IDENTICAL to the batch pipeline restricted to one left record — same
// candidate counts, same matched records, same provenance — for every
// record of the case-study and scale corpora, at 1/2/8 threads and at the
// scalar SIMD fallback. Plus: incremental ingest equivalence, the
// zero-re-prep residency contract, and the PipelineRunner::Clear audit.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/block/attr_equivalence_blocker.h"
#include "src/block/overlap_blocker.h"
#include "src/core/executor.h"
#include "src/datagen/case_study.h"
#include "src/datagen/scale_corpus.h"
#include "src/ml/decision_tree.h"
#include "src/serve/match_service.h"
#include "src/table/csv.h"
#include "src/text/batch_kernel.h"
#include "src/workflow/em_workflow.h"
#include "src/workflow/pipeline_runner.h"

// ---------- allocation-counting hook (unsanitized builds only) ----------
//
// Same global operator new replacement as sequence_kernel_test.cc: counts
// heap allocations made while the calling thread has armed the counter.
// The steady-state regression below asserts a warm lookup allocates
// exactly what the previous warm lookup did — a reintroduced per-lookup
// column re-prep would blow the count up by O(corpus).
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__) && \
    !defined(ADDRESS_SANITIZER) && !defined(THREAD_SANITIZER)
#if defined(__has_feature)
#if !__has_feature(address_sanitizer) && !__has_feature(thread_sanitizer)
#define EMX_COUNT_ALLOCATIONS 1
#endif
#else
#define EMX_COUNT_ALLOCATIONS 1
#endif
#endif

namespace {
thread_local bool t_count_allocs = false;
thread_local size_t t_alloc_count = 0;
}  // namespace

#ifdef EMX_COUNT_ALLOCATIONS
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  if (t_count_allocs) ++t_alloc_count;
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace emx {
namespace {

// --- oracle machinery ------------------------------------------------------------

// The batch run's answer for one left record: matched right records with
// provenance, plus the candidate and sure counts the service also reports.
struct PerRecordOracle {
  std::map<uint32_t, std::string> matches;  // right record -> provenance
  size_t candidates = 0;
  size_t sure = 0;
};

std::vector<PerRecordOracle> SliceByLeft(const WorkflowRunResult& run,
                                         size_t left_rows) {
  std::vector<PerRecordOracle> out(left_rows);
  for (const RecordPair& p : run.final_matches) {
    out[p.left].matches[p.right] = run.provenance.ProvenanceOf(p);
  }
  for (const RecordPair& p : run.candidates) ++out[p.left].candidates;
  for (const RecordPair& p : run.sure_matches) ++out[p.left].sure;
  return out;
}

// One lookup vs its batch slice. Also checks the result-ordering contract:
// sure matches first (ascending id, score 1.0), then ml by (score
// descending, id ascending) with every score >= 0.5.
void ExpectLookupMatchesOracle(const MatchService& svc, const Table& left,
                               size_t q, const PerRecordOracle& oracle) {
  auto result = svc.Lookup(left, q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_candidates, oracle.candidates) << "left row " << q;
  EXPECT_EQ(result->num_sure, oracle.sure) << "left row " << q;
  std::map<uint32_t, std::string> got;
  for (const RankedMatch& m : result->matches) got[m.record] = m.provenance;
  EXPECT_EQ(got, oracle.matches) << "left row " << q;
  for (size_t i = 0; i < result->matches.size(); ++i) {
    const RankedMatch& m = result->matches[i];
    if (i < result->num_sure) {
      EXPECT_EQ(m.provenance, "sure_rule");
      EXPECT_DOUBLE_EQ(m.score, 1.0);
      if (i > 0) EXPECT_GT(m.record, result->matches[i - 1].record);
    } else {
      EXPECT_EQ(m.provenance, "ml");
      EXPECT_GE(m.score, 0.5);
      if (i > result->num_sure) {
        const RankedMatch& prev = result->matches[i - 1];
        EXPECT_TRUE(m.score < prev.score ||
                    (m.score == prev.score && m.record > prev.record));
      }
    }
  }
}

// --- case-study fixture ----------------------------------------------------------
//
// The §7-§12 pipeline, restricted to the serve-compatible stages: the two
// token blockers on AwardTitle (the AE blocker's pairs are covered by the
// V2 positive rules, which serve evaluates directly), the §9 trained
// matcher, and the §12 negative rules.
struct CaseStudyFixture {
  CaseStudyData data;
  ProjectedTables tables;
  TrainedMatcher trained;
  EmWorkflow wf;
  WorkflowRunResult run;
  std::vector<PerRecordOracle> oracle;
};

EmWorkflow BuildServableCaseStudyWorkflow(const TrainedMatcher& trained) {
  EmWorkflow wf;
  for (const MatchRule& r : PositiveRulesV2()) wf.AddPositiveRule(r);
  wf.AddBlocker(MakeTitleOverlapBlocker(3));
  wf.AddBlocker(MakeTitleOverlapCoefficientBlocker(0.7));
  wf.SetMatcher(trained.matcher, trained.features, trained.imputer);
  for (const MatchRule& r : NegativeRules()) wf.AddNegativeRule(r);
  return wf;
}

const CaseStudyFixture& CaseStudy() {
  static const CaseStudyFixture& fx = *[] {
    auto* f = new CaseStudyFixture();
    f->data = std::move(*GenerateCaseStudy());
    f->tables = std::move(*PreprocessCaseStudy(f->data));
    auto blocks = RunStandardBlocking(f->tables.umetrics, f->tables.usda);
    OracleLabeler oracle = MakeOracle(f->data.gold, f->data.ambiguous);
    LabeledSet labels = CollectCorrectedLabels(oracle, blocks->c, 3, 100, 100);
    f->trained = std::move(*TrainBestMatcher(f->tables.umetrics,
                                             f->tables.usda, labels,
                                             PositiveRulesV1(),
                                             /*case_fix=*/true));
    f->wf = BuildServableCaseStudyWorkflow(f->trained);
    f->run = std::move(*f->wf.Run(f->tables.umetrics, f->tables.usda));
    f->oracle = SliceByLeft(f->run, f->tables.umetrics.num_rows());
    return f;
  }();
  return fx;
}

// --- scale fixture ---------------------------------------------------------------
//
// SF corpus (AwardTitle with NURand token skew) under a blocker+ML
// workflow: overlap K=3 + coefficient 0.7 (sharing one delta index) and a
// title-Jaccard tree matcher. No positive rules — every lookup goes
// through the block → vectorize → score path.
struct ScaleFixture {
  ScaleCorpus corpus;
  EmWorkflow wf;
  WorkflowRunResult run;
  std::vector<PerRecordOracle> oracle;
};

EmWorkflow BuildScaleWorkflow() {
  EmWorkflow wf;
  OverlapBlockerOptions opts;
  opts.left_attr = "AwardTitle";
  opts.right_attr = "AwardTitle";
  opts.lowercase = true;
  wf.AddBlocker(std::make_shared<OverlapBlocker>(opts, 3));
  wf.AddBlocker(std::make_shared<OverlapCoefficientBlocker>(opts, 0.7));
  FeatureSet features;
  // Lowercased: scale-corpus left titles are UPPERCASE, right mixed-case.
  features.features.push_back(
      MakeJaccardFeature("AwardTitle", "AwardTitle", /*qgram=*/0,
                         /*lowercase=*/true));
  Dataset d;
  d.feature_names = features.names();
  d.x = {{1.0}, {0.8}, {0.3}, {0.0}};
  d.y = {1, 1, 0, 0};
  FeatureMatrix m;
  m.feature_names = d.feature_names;
  m.rows = d.x;
  MeanImputer imputer;
  imputer.Fit(m);
  auto tree = std::make_shared<DecisionTreeMatcher>();
  EXPECT_TRUE(tree->Fit(d).ok());
  wf.SetMatcher(std::move(tree), std::move(features), std::move(imputer));
  return wf;
}

const ScaleFixture& Scale() {
  static const ScaleFixture& fx = *[] {
    auto* f = new ScaleFixture();
    ScaleCorpusOptions options;
    options.scale_factor = 10.0;  // 10k rows per side
    f->corpus = std::move(*GenerateScaleCorpus(options));
    f->wf = BuildScaleWorkflow();
    f->run = std::move(*f->wf.Run(f->corpus.left, f->corpus.right));
    f->oracle = SliceByLeft(f->run, f->corpus.left.num_rows());
    return f;
  }();
  return fx;
}

// --- lookup-vs-batch oracle ------------------------------------------------------

TEST(MatchServiceOracleTest, CaseStudyEveryRecordMatchesBatch) {
  const CaseStudyFixture& fx = CaseStudy();
  auto svc = MatchService::Create(fx.wf, fx.tables.usda);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  for (size_t q = 0; q < fx.tables.umetrics.num_rows(); ++q) {
    ExpectLookupMatchesOracle(**svc, fx.tables.umetrics, q, fx.oracle[q]);
  }
}

TEST(MatchServiceOracleTest, ScaleEveryRecordMatchesBatch) {
  const ScaleFixture& fx = Scale();
  auto svc = MatchService::Create(fx.wf, fx.corpus.right);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  for (size_t q = 0; q < fx.corpus.left.num_rows(); ++q) {
    ExpectLookupMatchesOracle(**svc, fx.corpus.left, q, fx.oracle[q]);
  }
}

// The batch oracle is computed once on the shared pool; services running
// on private 1/2/8-thread executors must answer identically (the executor
// is pure wall-clock — chunk-order concatenation keeps outputs fixed).
TEST(MatchServiceOracleTest, ThreadCountInvariant) {
  const CaseStudyFixture& cs = CaseStudy();
  const ScaleFixture& sc = Scale();
  for (size_t threads : {1u, 2u, 8u}) {
    Executor pool(threads);
    ExecutorContext ctx{&pool};
    auto csvc = MatchService::Create(cs.wf, cs.tables.usda, {}, ctx);
    ASSERT_TRUE(csvc.ok()) << csvc.status().ToString();
    for (size_t q = 0; q < cs.tables.umetrics.num_rows(); q += 9) {
      ExpectLookupMatchesOracle(**csvc, cs.tables.umetrics, q, cs.oracle[q]);
    }
    auto ssvc = MatchService::Create(sc.wf, sc.corpus.right, {}, ctx);
    ASSERT_TRUE(ssvc.ok()) << ssvc.status().ToString();
    for (size_t q = 0; q < sc.corpus.left.num_rows(); q += 19) {
      ExpectLookupMatchesOracle(**ssvc, sc.corpus.left, q, sc.oracle[q]);
    }
  }
}

// Forcing the scalar kernel tier must not change a single answer (the
// SIMD tiers are bit-equal by contract; this drives the whole serve path
// through the fallback on AVX2 hosts). The batch oracle is recomputed
// under the same forced level so both sides run the tier being tested.
TEST(MatchServiceOracleTest, ScalarSimdInvariant) {
  const CaseStudyFixture& fx = CaseStudy();
  ForceSimdLevel(SimdLevel::kScalar);
  auto run = fx.wf.Run(fx.tables.umetrics, fx.tables.usda);
  ASSERT_TRUE(run.ok());
  std::vector<PerRecordOracle> oracle =
      SliceByLeft(*run, fx.tables.umetrics.num_rows());
  auto svc = MatchService::Create(fx.wf, fx.tables.usda);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  for (size_t q = 0; q < fx.tables.umetrics.num_rows(); q += 7) {
    ExpectLookupMatchesOracle(**svc, fx.tables.umetrics, q, oracle[q]);
  }
  ResetSimdLevel();
  // And the scalar-tier oracle equals the native-tier oracle (kernel
  // equivalence seen end to end).
  for (size_t q = 0; q < fx.tables.umetrics.num_rows(); ++q) {
    EXPECT_EQ(oracle[q].matches, fx.oracle[q].matches) << "left row " << q;
    EXPECT_EQ(oracle[q].candidates, fx.oracle[q].candidates);
  }
}

// --- incremental ingest ----------------------------------------------------------

// A service grown record by record (with an aggressive compaction
// threshold forcing mid-sequence snapshots) must answer exactly like a
// service Created over the final corpus — the "never rebuilds from
// scratch" index is indistinguishable from the rebuild it replaced.
TEST(MatchServiceIngestTest, InsertDeleteEquivalentToFreshService) {
  const ScaleFixture& fx = Scale();
  // Small slice: base = first 150 right rows, then insert 50 more, then
  // tombstone every 7th record.
  ScaleCorpusOptions options;
  options.scale_factor = 0.2;  // 200 rows per side
  auto small = GenerateScaleCorpus(options);
  ASSERT_TRUE(small.ok());
  const Table& right = small->right;
  const size_t base = 150;
  Table base_table(right.schema());
  for (size_t r = 0; r < base; ++r) {
    ASSERT_TRUE(base_table.AppendRow(right.Row(r)).ok());
  }

  MatchServiceOptions grow_opts;
  grow_opts.compact_threshold = 16;  // compact early and often
  auto grown = MatchService::Create(fx.wf, base_table, grow_opts);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  for (size_t r = base; r < right.num_rows(); ++r) {
    auto id = (*grown)->Insert(right.Row(r));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, r);
  }
  auto fresh = MatchService::Create(fx.wf, right);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  for (uint32_t r = 0; r < right.num_rows(); r += 7) {
    ASSERT_TRUE((*grown)->Remove(r).ok());
    ASSERT_TRUE((*fresh)->Remove(r).ok());
  }
  // Double-remove is NotFound, not silent corruption.
  EXPECT_EQ((*grown)->Remove(0).code(), StatusCode::kNotFound);

  MatchServiceStats grown_stats = (*grown)->Stats();
  EXPECT_GT(grown_stats.compactions, 1u)
      << "threshold 16 over 50 inserts must compact mid-sequence";

  for (size_t q = 0; q < small->left.num_rows(); ++q) {
    auto a = (*grown)->Lookup(small->left, q);
    auto b = (*fresh)->Lookup(small->left, q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->num_candidates, b->num_candidates) << "left row " << q;
    ASSERT_EQ(a->matches.size(), b->matches.size()) << "left row " << q;
    for (size_t i = 0; i < a->matches.size(); ++i) {
      EXPECT_EQ(a->matches[i].record, b->matches[i].record);
      EXPECT_DOUBLE_EQ(a->matches[i].score, b->matches[i].score);
      EXPECT_EQ(a->matches[i].provenance, b->matches[i].provenance);
    }
  }
  // Compacting everything changes nothing further.
  (*grown)->Compact();
  for (size_t q = 0; q < small->left.num_rows(); q += 11) {
    auto a = (*grown)->Lookup(small->left, q);
    auto b = (*fresh)->Lookup(small->left, q);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->matches.size(), b->matches.size());
    for (size_t i = 0; i < a->matches.size(); ++i) {
      EXPECT_EQ(a->matches[i].record, b->matches[i].record);
    }
  }
}

// Removed records disappear from lookups immediately (before any
// compaction) and reappear in no stage.
TEST(MatchServiceIngestTest, RemoveHidesRecordImmediately) {
  const ScaleFixture& fx = Scale();
  ScaleCorpusOptions options;
  options.scale_factor = 0.1;
  auto small = GenerateScaleCorpus(options);
  ASSERT_TRUE(small.ok());
  auto svc = MatchService::Create(fx.wf, small->right);
  ASSERT_TRUE(svc.ok());
  // Find a query with at least one match, remove the matched record.
  for (size_t q = 0; q < small->left.num_rows(); ++q) {
    auto before = (*svc)->Lookup(small->left, q);
    ASSERT_TRUE(before.ok());
    if (before->matches.empty()) continue;
    uint32_t victim = before->matches[0].record;
    ASSERT_TRUE((*svc)->Remove(victim).ok());
    EXPECT_FALSE((*svc)->record_live(victim));
    auto after = (*svc)->Lookup(small->left, q);
    ASSERT_TRUE(after.ok());
    for (const RankedMatch& m : after->matches) {
      EXPECT_NE(m.record, victim);
    }
    EXPECT_EQ(after->matches.size(), before->matches.size() - 1);
    return;
  }
  FAIL() << "no query with matches found";
}

// --- residency / ownership -------------------------------------------------------

// The zero-re-prep contract: after Create, corpus prep work NEVER happens
// on the lookup path. 1000 repeated lookups leave the corpus_preps counter
// untouched and (on plain builds) settle to an exactly constant per-lookup
// allocation count on the calling thread. The service runs on a 1-thread
// executor so every lookup runs wholly on the calling thread: on a shared
// pool the caller's share of the positive-rule chunks (which allocate per
// corpus row) would move the count with scheduling.
TEST(MatchServiceResidencyTest, RepeatedLookupsDoZeroRePrepWork) {
  const CaseStudyFixture& fx = CaseStudy();
  Executor serial(1);
  auto svc = MatchService::Create(fx.wf, fx.tables.usda, MatchServiceOptions{},
                                  ExecutorContext{&serial});
  ASSERT_TRUE(svc.ok());
  const uint64_t preps_after_create = (*svc)->Stats().corpus_preps;
  EXPECT_GT(preps_after_create, 0u);

  auto one_lookup = [&] {
    auto r = (*svc)->Lookup(fx.tables.umetrics, 17);
    ASSERT_TRUE(r.ok());
  };
  for (int i = 0; i < 3; ++i) one_lookup();  // warm thread-local scratch

#ifdef EMX_COUNT_ALLOCATIONS
  auto count_allocs = [&] {
    t_alloc_count = 0;
    t_count_allocs = true;
    one_lookup();
    t_count_allocs = false;
    return t_alloc_count;
  };
  const size_t warm = count_allocs();
#endif

  for (int i = 0; i < 1000; ++i) one_lookup();

#ifdef EMX_COUNT_ALLOCATIONS
  EXPECT_EQ(count_allocs(), warm)
      << "lookup #1004 allocates more than lookup #4: per-lookup state is "
         "being rebuilt";
#endif
  MatchServiceStats stats = (*svc)->Stats();
  EXPECT_EQ(stats.corpus_preps, preps_after_create)
      << "lookups re-prepped corpus columns";
  // 3 warm + 1000 steady-state; the two counting lookups exist only on
  // unsanitized builds.
  EXPECT_GE(stats.lookups, 1003u);
  EXPECT_GT(stats.query_preps, 0u);
}

// PipelineRunner::Run calls PrepCache::Clear on ITS OWN workflow cache.
// Because the service owns a private PrepCache and direct segment
// shared_ptrs, an unrelated batch run in the same process must not change
// service answers or re-trigger corpus prep.
TEST(MatchServiceResidencyTest, SurvivesPipelineRunnerClearingCaches) {
  const CaseStudyFixture& fx = CaseStudy();
  auto svc = MatchService::Create(fx.wf, fx.tables.usda);
  ASSERT_TRUE(svc.ok());
  auto before = (*svc)->Lookup(fx.tables.umetrics, 42);
  ASSERT_TRUE(before.ok());
  const uint64_t preps_before = (*svc)->Stats().corpus_preps;

  // An independent batch pipeline runs to completion in-process (its
  // runner Clears its own workflow's cache per run).
  EmWorkflow batch_wf = BuildServableCaseStudyWorkflow(fx.trained);
  PipelineRunner runner(&batch_wf, PipelineOptions{});
  auto run = runner.Run(fx.tables.umetrics, fx.tables.usda);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  auto after = (*svc)->Lookup(fx.tables.umetrics, 42);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->matches.size(), before->matches.size());
  for (size_t i = 0; i < after->matches.size(); ++i) {
    EXPECT_EQ(after->matches[i].record, before->matches[i].record);
    EXPECT_DOUBLE_EQ(after->matches[i].score, before->matches[i].score);
  }
  EXPECT_EQ((*svc)->Stats().corpus_preps, preps_before);
}

// --- construction / error surface ------------------------------------------------

TEST(MatchServiceCreateTest, RejectsNonTokenBlocker) {
  const CaseStudyFixture& fx = CaseStudy();
  EmWorkflow wf;
  wf.AddBlocker(MakeM1EquivalenceBlocker());
  wf.SetMatcher(fx.trained.matcher, fx.trained.features, fx.trained.imputer);
  auto svc = MatchService::Create(wf, fx.tables.usda);
  EXPECT_FALSE(svc.ok());
  EXPECT_EQ(svc.status().code(), StatusCode::kInvalidArgument);
}

TEST(MatchServiceCreateTest, RejectsMissingCorpusColumn) {
  const CaseStudyFixture& fx = CaseStudy();
  Table tiny = *ReadCsvString("NotTitle\nfoo\n");
  auto svc = MatchService::Create(fx.wf, tiny);
  EXPECT_FALSE(svc.ok());
  EXPECT_EQ(svc.status().code(), StatusCode::kInvalidArgument);
}

TEST(MatchServiceLookupTest, MissingQueryColumnIsError) {
  const ScaleFixture& fx = Scale();
  ScaleCorpusOptions options;
  options.scale_factor = 0.05;
  auto small = GenerateScaleCorpus(options);
  ASSERT_TRUE(small.ok());
  auto svc = MatchService::Create(fx.wf, small->right);
  ASSERT_TRUE(svc.ok());
  Table bogus = *ReadCsvString("WrongColumn\nsome text\n");
  EXPECT_FALSE((*svc)->Lookup(bogus, 0).ok());
  EXPECT_FALSE((*svc)->Lookup(small->left, small->left.num_rows()).ok());
}

}  // namespace
}  // namespace emx
