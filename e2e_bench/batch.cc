// The two batch workloads: `batch_sf100` (the `emx run` path on the scale
// corpus) and `case_study` (the paper's Figure 10 workflow on the
// UMETRICS/USDA case-study tables).
//
// A run sets up several times (setup_s is their median), then repeats
// the matching job — workflow run to written matches — until --seconds
// have passed. Every job starts from an empty prep cache, as a fresh
// `emx run` process would, so each one pays its own prep. These runs call
// the program's own entry points: PipelineRunner::Run on batch_sf100, as
// `emx run` does, and TrainBestMatcher and EmWorkflow::Run on case_study,
// as the paper's Figure 10 harness does.
//
// The traced run needs each stage's time, so its jobs call the stage
// functions those entry points call (StagedRun), each in its layer's
// span. It first runs one set-up and job through the program's entry
// point; the staged job must write the same match set.

#include <algorithm>
#include <cstdio>
#include <optional>

#include "e2e_bench/inputs.h"
#include "e2e_bench/workloads.h"
#include "src/core/fileio.h"
#include "src/datagen/case_study.h"
#include "src/eval/corleone_estimator.h"
#include "src/labeling/sampler.h"
#include "src/ml/cross_validation.h"
#include "src/table/csv.h"
#include "src/workflow/pipeline_runner.h"

namespace emx_e2e {

using namespace emx;

namespace {

constexpr size_t kBatchThreads = 4;

// Output floors against the generator's gold. Seed-state values: 0.999 /
// 0.999 on the scale corpus, 0.996 / 0.946 on the case study.
constexpr double kScaleMinPrecision = 0.98;
constexpr double kScaleMinRecall = 0.98;
constexpr double kCaseMinPrecision = 0.95;
constexpr double kCaseMinRecall = 0.90;

// Traced runs only: the stage calls of EmWorkflow::Run (and of
// PipelineRunner::Run, less its checkpoint fingerprints), each inside its
// layer's span, with RunMatching split into the vectorize and predict
// calls it makes (same output), so the two are timed apart.
WorkflowRunResult StagedRun(const EmWorkflow& wf, const Table& left,
                            const Table& right, uint64_t job) {
  WorkflowRunResult out;
  {
    Span span("rules.positive", job);
    out.sure_matches =
        OrDie(wf.RunPositiveRules(left, right), "positive rules");
  }
  {
    Span span("block", job);
    out.candidates =
        OrDie(wf.RunBlocking(left, right, out.sure_matches), "blocking");
  }
  out.ml_input = CandidateSet::Minus(out.candidates, out.sure_matches);
  if (wf.has_matcher() && !out.ml_input.empty()) {
    PairBatch batch;
    {
      Span span("feature.vectorize", job);
      batch = OrDie(VectorizePairsBatch(left, right, out.ml_input,
                                        wf.features(), wf.executor_context(),
                                        wf.prep_cache().get()),
                    "vectorize candidates");
    }
    std::vector<int> pred;
    {
      Span span("ml.predict", job);
      OrDie(wf.imputer().Transform(batch), "impute candidates");
      pred = wf.matcher()->PredictBatch(batch);
    }
    std::vector<RecordPair> positives;
    for (size_t i = 0; i < pred.size(); ++i) {
      if (pred[i] == 1) positives.push_back(out.ml_input[i]);
    }
    out.ml_predicted = CandidateSet(std::move(positives));
  } else {
    Span span("workflow.match", job);
    out.ml_predicted =
        OrDie(wf.RunMatching(left, right, out.ml_input), "matching");
  }
  {
    Span span("rules.negative", job);
    out.after_rules = OrDie(
        wf.RunNegativeRules(left, right, out.ml_predicted, &out.flipped),
        "negative rules");
  }
  out.final_matches = CandidateSet::Union(out.sure_matches, out.after_rules);
  out.provenance.Add(out.sure_matches, "sure_rule");
  out.provenance.Add(out.after_rules, "ml");
  return out;
}

// Rule counts of one workflow run over `left` x `right`: positive rules
// scan the cross product, negative rules the ML matches.
void ReportRuleCounts(const WorkflowRunResult& run, const EmWorkflow& wf,
                      const Table& left, const Table& right,
                      RunReport& report) {
  double evaluated = 0;
  if (!wf.positive_rules().empty()) {
    evaluated += static_cast<double>(left.num_rows() * right.num_rows());
  }
  if (!wf.negative_rules().empty()) {
    evaluated += static_cast<double>(run.ml_predicted.size());
  }
  report.metrics["rules.pairs_evaluated"] += evaluated;
  report.metrics["rules.fired"] +=
      static_cast<double>(run.sure_matches.size() + run.flipped.size());
  report.metrics["rules.flipped"] += static_cast<double>(run.flipped.size());
}

void ReportBlockQuality(const CandidateSet& candidates,
                        const CandidateSet& gold, RunReport& report) {
  double hits = static_cast<double>(
      CandidateSet::Intersect(candidates, gold).size());
  report.metrics["block.candidates"] += static_cast<double>(candidates.size());
  report.metrics["block.gold_recall"] =
      gold.empty() ? 0 : hits / static_cast<double>(gold.size());
  report.metrics["block.pair_yield"] =
      candidates.empty() ? 0 : hits / static_cast<double>(candidates.size());
}

// Span totals shared by both batch workloads' traced runs.
void ReportStageSpans(PrepTally tally, size_t pairs_vectorized,
                      RunReport& report) {
  const Trace& t = Trace::Get();
  report.metrics["table.read_s"] = t.TotalSeconds("table.read");
  report.metrics["table.write_s"] = t.TotalSeconds("table.write");
  report.metrics["prep.s"] = t.TotalSeconds("prep");
  report.metrics["prep.rows"] = tally.rows;
  report.metrics["prep.useful_frac"] =
      tally.rows > 0 ? tally.useful / tally.rows : 0;
  report.metrics["block.s"] = t.TotalSeconds("block");
  double vec_s = t.TotalSeconds("feature.vectorize");
  report.metrics["feature.vectorize_s"] = vec_s;
  report.metrics["feature.pairs_per_s"] =
      vec_s > 0 ? static_cast<double>(pairs_vectorized) / vec_s : 0;
  report.metrics["ml.fit_s"] = t.TotalSeconds("ml.fit");
  report.metrics["ml.cv_s"] = t.TotalSeconds("ml.cv");
  report.metrics["ml.predict_s"] = t.TotalSeconds("ml.predict");
  report.metrics["rules.positive_s"] = t.TotalSeconds("rules.positive");
  report.metrics["rules.negative_s"] = t.TotalSeconds("rules.negative");
  report.metrics["labeling.s"] = t.TotalSeconds("labeling.collect") +
                                 t.TotalSeconds("labeling.eval_sample");
  report.metrics["eval.estimate_s"] = t.TotalSeconds("eval.estimate");
  ReportParallelEfficiency("workflow.job", "job", kBatchThreads, report);
  ReportParallelEfficiency("block", "block", kBatchThreads, report);
  ReportParallelEfficiency("feature.vectorize", "vectorize", kBatchThreads,
                           report);
  ReportLayerSelfTimes(report);
}

// Checks the final matches against gold; untraced runs also report
// precision and recall (end-to-end metrics).
void CheckGold(const CandidateSet& matches, const CandidateSet& gold,
               const CandidateSet& ambiguous, double min_p, double min_r,
               bool end_to_end, RunReport& report) {
  GoldMetrics g = ComputeGoldMetrics(matches, gold, ambiguous);
  if (end_to_end) {
    report.metrics["gold_precision"] = g.Precision();
    report.metrics["gold_recall"] = g.Recall();
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), "gold P/R %.4f/%.4f below floor %.2f/%.2f",
                g.Precision(), g.Recall(), min_p, min_r);
  report.Check(g.Precision() >= min_p && g.Recall() >= min_r, buf);
}

// Every job of a run must write the same match set.
void CheckStableHash(const std::vector<uint64_t>& hashes, RunReport& report) {
  for (uint64_t h : hashes) {
    report.Check(h == hashes.front(), "match-set hash differs between jobs");
  }
  std::printf("match-set hash %016llx over %zu jobs\n",
              static_cast<unsigned long long>(hashes.front()), hashes.size());
}

// The traced run's staged job must write what the program's entry point
// wrote.
void CheckStagedHash(uint64_t program, uint64_t staged, RunReport& report) {
  report.Check(program == staged,
               "the staged run's match set differs from the program's");
  std::printf("match-set hash %016llx (program) %016llx (staged)\n",
              static_cast<unsigned long long>(program),
              static_cast<unsigned long long>(staged));
}

// The matches CSV must read back as the match set the last job wrote.
void CheckWritten(const std::string& path, const CandidateSet& wrote,
                  RunReport& report) {
  CandidateSet read = OrDie(ReadPairsCsv(path), "re-read matches");
  report.Check(read == wrote, "matches.csv differs from the match set written");
}

// What the self-test's corruptions do to a job's output (the set the
// checks see; the CSV the job wrote is left alone).
void Corrupt(Corruption c, size_t job, CandidateSet* final_matches) {
  if (c == Corruption::kDropMatches ||
      (c == Corruption::kUnstableOutput && job == 1)) {
    std::vector<RecordPair> kept;
    for (size_t i = 0; i < final_matches->size(); ++i) {
      if (c == Corruption::kUnstableOutput ? i != 0 : i % 10 != 0) {
        kept.push_back((*final_matches)[i]);
      }
    }
    *final_matches = CandidateSet(std::move(kept));
  }
}

// The self-test's CSV corruption: the written file loses its last row.
void CorruptCsv(Corruption c, const std::string& path) {
  if (c != Corruption::kCorruptCsv) return;
  std::string text = OrDie(ReadFileToString(path), "read matches.csv");
  size_t cut = text.find_last_of('\n', text.size() >= 2 ? text.size() - 2 : 0);
  OrDie(WriteFileAtomic(text.substr(0, cut + 1), path), "corrupt matches.csv");
}

struct JobStats {
  std::vector<Timing> setups, jobs;
  std::vector<uint64_t> hashes;
  // VmHWM after the first job: later jobs (their number depends on the
  // host's speed) leave the heap fragmented differently, which moved the
  // peak by 15% between runs.
  double peak_rss_mb = 0;
};

double ElapsedS(int64_t since_ns) { return (NowNs() - since_ns) * 1e-9; }

// The self-test's tiny runs always make two jobs, so the hash check across
// jobs has something to compare.
size_t MinJobs(const RunOptions& opts) { return opts.tiny ? 2 : 1; }

void ReportEndToEnd(const JobStats& stats, const HostSpeed& host,
                    RunReport& report) {
  PrintTimings("set-up", stats.setups);
  PrintTimings("job", stats.jobs);
  ReportTimes(MedianOf(stats.setups, &Timing::wall_s),
              MedianOf(stats.jobs, &Timing::wall_s) * 1e3,
              MedianOf(stats.setups, &Timing::cpu_s) +
                  MedianOf(stats.jobs, &Timing::cpu_s),
              host, report);
  report.metrics["peak_rss_mb"] = stats.peak_rss_mb;
  report.attempted = stats.setups.size() + stats.jobs.size();
}

// --- batch_sf100 ------------------------------------------------------------

struct ScaleSetup {
  Table left, right;
  LabeledSet labels;
  TrainedModel model;
  std::string model_fp;
};

// `emx run`'s set-up: read both tables and the labels, train, and
// fingerprint the training inputs (it does so with or without a
// checkpoint directory).
ScaleSetup SetupScale(const std::string& dir, const ExecutorContext& ctx,
                      PrepTally* tally) {
  Span span("workflow.setup");
  ScaleSetup s;
  {
    Span read("table.read");
    s.left = OrDie(ReadCsvFile(dir + "/left.csv"), "read left");
    s.right = OrDie(ReadCsvFile(dir + "/right.csv"), "read right");
    s.labels = OrDie(ReadLabelsCsv(dir + "/labels.csv"), "read labels");
  }
  s.model = TrainLikeEmxRun(s.left, s.right, s.labels, ctx, tally);
  {
    Span fp("workflow.fingerprint");
    s.model_fp = EmxRunModelFingerprint(s.left, s.right, s.labels, "forest",
                                        s.model.features);
  }
  return s;
}

EmWorkflow ScaleWorkflow(const ScaleSetup& s, const ExecutorContext& ctx) {
  EmWorkflow wf;
  wf.SetExecutor(ctx);
  wf.AddBlocker(MakeTitleBlocker());
  wf.SetMatcher(s.model.matcher, s.model.features, s.model.imputer);
  return wf;
}

// One matching job, workflow run to written matches CSV: through
// PipelineRunner::Run (which clears the prep cache first), or, given a
// `tally` (the traced run's passes), from a cleared cache through PrepAll
// and StagedRun.
WorkflowRunResult ScaleJob(const ScaleSetup& s, const EmWorkflow& wf,
                           const std::string& out_path, uint64_t job,
                           PrepTally* tally) {
  Span span("workflow.job", job);
  WorkflowRunResult run;
  if (tally != nullptr) {
    wf.ClearPrepCache();
    PrepColumns prepped =
        PrepAll(*wf.prep_cache(), s.left, s.right, wf.features(), &wf);
    run = StagedRun(wf, s.left, s.right, job);
    TallyPrep(prepped, run.candidates, tally);
  } else {
    run = OrDie(PipelineRunner(&wf).Run(s.left, s.right), "emx run pipeline");
  }
  {
    Span write("table.write", job);
    OrDie(WriteMatchesCsv(run.final_matches, run.provenance, out_path),
          "write matches");
  }
  return run;
}

}  // namespace

void RunBatchSf(const RunOptions& opts, RunReport& report) {
  Executor pool(kBatchThreads);
  ExecutorContext ctx;
  ctx.executor = &pool;
  const std::string out_path = opts.dir + "/matches.csv";
  std::optional<ScaleSetup> setup;

  if (!opts.trace) {
    JobStats stats;
    HostSpeed host;
    while (MoreSetups(stats.setups)) {
      setup.reset();
      host.Calibrate();
      stats.setups.push_back(Measure(
          [&] { setup.emplace(SetupScale(opts.dir, ctx, nullptr)); }));
    }
    CandidateSet written, final_matches;
    int64_t start = NowNs();
    for (size_t job = 0; job < MinJobs(opts) || ElapsedS(start) < opts.seconds;
         ++job) {
      WorkflowRunResult run;
      host.Calibrate();
      // A workflow of its own per job, as each `emx run` builds one. Run
      // again, one workflow keeps its prep cache's token interner (Clear()
      // keeps it), and jobs after the first then took 20-50% longer.
      stats.jobs.push_back(Measure([&] {
        EmWorkflow wf = ScaleWorkflow(*setup, ctx);
        run = ScaleJob(*setup, wf, out_path, job, nullptr);
      }));
      if (job == 0) stats.peak_rss_mb = PeakRssMb();
      written = std::move(run.final_matches);
      final_matches = written;
      Corrupt(opts.corrupt, job, &final_matches);
      stats.hashes.push_back(HashMatches(final_matches));
    }
    host.Calibrate();
    ReportEndToEnd(stats, host, report);
    CorruptCsv(opts.corrupt, out_path);

    CandidateSet gold = OrDie(ReadPairsCsv(opts.dir + "/gold.csv"), "gold");
    CheckWritten(out_path, written, report);
    CheckStableHash(stats.hashes, report);
    CheckGold(final_matches, gold, {}, kScaleMinPrecision, kScaleMinRecall,
              true, report);
    return;
  }

  // Traced run: set-up + job through the program's path (which also warms
  // the caches), then the staged set-up + job untraced, and again traced;
  // trace.overhead_frac compares the last two.
  uint64_t program_hash = 0;
  Timing program = Measure([&] {
    ScaleSetup s = SetupScale(opts.dir, ctx, nullptr);
    EmWorkflow wf = ScaleWorkflow(s, ctx);
    program_hash =
        HashMatches(ScaleJob(s, wf, out_path, 0, nullptr).final_matches);
  });
  Timing untraced = Measure([&] {
    PrepTally unused;
    ScaleSetup s = SetupScale(opts.dir, ctx, &unused);
    EmWorkflow wf = ScaleWorkflow(s, ctx);
    ScaleJob(s, wf, out_path, 1, &unused);
  });
  Trace::Get().set_enabled(true);
  PrepTally tally;
  WorkflowRunResult run;
  std::optional<EmWorkflow> wf;
  Timing traced = Measure([&] {
    setup.emplace(SetupScale(opts.dir, ctx, &tally));
    wf.emplace(ScaleWorkflow(*setup, ctx));
    run = ScaleJob(*setup, *wf, out_path, 2, &tally);
  });
  Trace::Get().set_enabled(false);
  report.metrics["trace.overhead_frac"] = OverheadFrac(traced, untraced);
  PrintTimings("program, untraced, traced pass", {program, untraced, traced});

  CandidateSet gold = OrDie(ReadPairsCsv(opts.dir + "/gold.csv"), "gold");
  ReportBlockQuality(run.candidates, gold, report);
  ReportRuleCounts(run, *wf, setup->left, setup->right, report);
  ReportStageSpans(tally,
                   run.ml_input.size() + setup->labels.WithoutUnsure().size(),
                   report);
  TimeFeatureKernels(setup->left, setup->right, run.ml_input, wf->features(),
                     ctx, *wf->prep_cache(), report);
  CheckGold(run.final_matches, gold, {}, kScaleMinPrecision, kScaleMinRecall,
            false, report);
  Corrupt(opts.corrupt, 1, &run.final_matches);
  report.attempted = 3;
  CheckStagedHash(program_hash, HashMatches(run.final_matches), report);
}

// --- case_study -------------------------------------------------------------

namespace {

// The seed TrainBestMatcher's CV folds and models take by default.
constexpr uint64_t kModelSeed = 7;

// The case-study tables, gold and oracle, generated in process: they are
// small (1336 + 496 / 1915 rows), and the program receives them exactly
// as GenerateCaseStudy returns them.
struct CaseInputs {
  CaseStudyData data;
  CandidateSet gold_all;  // original + extra rows, extra offset after umetrics
  CandidateSet ambiguous_all;
};

struct CaseSetup {
  ProjectedTables tables;
  TrainedMatcher trained;
  EmWorkflow wf;
};

// §6 preprocess -> §7 blocking -> §8 labels -> §9 TrainBestMatcher (sure-
// rule filter, features, CV selection over the six matchers, fit) -> the
// Figure 10 workflow.
CaseSetup SetupCase(const CaseInputs& in, const OracleLabeler& oracle,
                    uint64_t seed, const ExecutorContext& ctx) {
  Span span("workflow.setup");
  CaseSetup s;
  {
    Span pre("table.preprocess");
    s.tables = OrDie(PreprocessCaseStudy(in.data), "preprocess");
  }
  const Table& u = s.tables.umetrics;
  const Table& usda = s.tables.usda;
  BlockingOutputs blocks;
  {
    Span block("block.sample");
    blocks = OrDie(RunStandardBlocking(u, usda), "blocking for labels");
  }
  LabeledSet labels;
  {
    Span label("labeling.collect");
    labels = CollectCorrectedLabels(oracle, blocks.c, 3, 100,
                                    DeriveSeed(seed, kLabelStream));
  }
  {
    Span train("ml.train");
    s.trained = OrDie(TrainBestMatcher(u, usda, labels, PositiveRulesV1(),
                                       /*case_fix=*/true, kModelSeed),
                      "TrainBestMatcher");
  }
  s.wf = BuildCaseStudyWorkflow(PositiveRulesV2(), s.trained,
                                /*with_negative_rules=*/true);
  s.wf.SetExecutor(ctx);
  return s;
}

// Traced runs only: ml.cv_s and ml.fit_s of the set-up. TrainBestMatcher
// selects and fits inside one call, so both are repeated here on the
// training data it returned, outside any span.
void TimeCaseTraining(const TrainedMatcher& trained, RunReport& report) {
  int64_t t0 = NowNs();
  std::vector<CvResult> cv =
      OrDie(SelectMatcher(StandardMatcherFactories(kModelSeed),
                          trained.train_data, 5, kModelSeed),
            "matcher selection");
  report.metrics["ml.cv_s"] = (NowNs() - t0) * 1e-9;
  for (const MatcherFactory& factory : StandardMatcherFactories(kModelSeed)) {
    std::unique_ptr<MlMatcher> m = factory();
    if (m->name() != cv.front().matcher_name) continue;
    t0 = NowNs();
    OrDie(m->Fit(trained.train_data), "fit selected matcher");
    report.metrics["ml.fit_s"] = (NowNs() - t0) * 1e-9;
    break;
  }
}

struct CaseJobOutput {
  CandidateSet final_matches;  // both branches, extra rows offset
  CandidateSet candidates;
  CandidateSet ml_input;
  AccuracyEstimate estimate;
  std::vector<WorkflowRunResult> branches;
};

// Figure 10 over the original and the extra UMETRICS rows, through
// EmWorkflow::Run or, given a `tally`, PrepAll and StagedRun; matches
// written, then a Corleone estimate on 400 oracle-labelled pairs of the
// candidates.
CaseJobOutput CaseJob(const CaseSetup& s, const OracleLabeler& oracle,
                      uint64_t seed, const std::string& out_path, uint64_t job,
                      PrepTally* tally) {
  s.wf.ClearPrepCache();
  Span span("workflow.job", job);
  const Table& usda = s.tables.usda;
  const uint32_t off = static_cast<uint32_t>(s.tables.umetrics.num_rows());
  CaseJobOutput out;
  MatchSet provenance;
  for (const Table* left : {&s.tables.umetrics, &s.tables.extra}) {
    const uint32_t shift = left == &s.tables.extra ? off : 0;
    WorkflowRunResult run;
    if (tally != nullptr) {
      PrepColumns prepped =
          PrepAll(*s.wf.prep_cache(), *left, usda, s.wf.features(), &s.wf);
      run = StagedRun(s.wf, *left, usda, job);
      TallyPrep(prepped, run.candidates, tally);
    } else {
      run = OrDie(s.wf.Run(*left, usda), "case-study workflow");
    }
    out.final_matches = CandidateSet::Union(
        out.final_matches, run.final_matches.WithLeftOffset(shift));
    out.candidates = CandidateSet::Union(out.candidates,
                                         run.candidates.WithLeftOffset(shift));
    out.ml_input =
        CandidateSet::Union(out.ml_input, run.ml_input.WithLeftOffset(shift));
    provenance.Add(run.sure_matches.WithLeftOffset(shift), "sure_rule");
    provenance.Add(run.after_rules.WithLeftOffset(shift), "ml");
    out.branches.push_back(std::move(run));
  }
  {
    Span write("table.write", job);
    OrDie(WriteMatchesCsv(out.final_matches, provenance, out_path),
          "write matches");
  }
  LabeledSet sample;
  {
    Span label("labeling.eval_sample", job);
    for (const RecordPair& p : SamplePairs(out.candidates, 400,
                                           DeriveSeed(seed, kEvalStream))) {
      sample.SetLabel(p, oracle.CorrectedLabel(p));
    }
  }
  {
    Span est("eval.estimate", job);
    out.estimate = OrDie(EstimateAccuracy(out.final_matches, sample),
                         "Corleone estimate");
  }
  return out;
}

}  // namespace

void RunCaseStudy(const RunOptions& opts, RunReport& report) {
  Executor pool(kBatchThreads);
  ExecutorContext ctx;
  ctx.executor = &pool;
  const std::string out_path = opts.dir + "/matches.csv";

  UniverseOptions uopts;
  uopts.seed = DeriveSeed(opts.seed, kCorpusStream);
  CaseInputs in;
  in.data = OrDie(GenerateCaseStudy(uopts), "generate case study");
  const uint32_t off =
      static_cast<uint32_t>(in.data.umetrics_award_agg.num_rows());
  in.gold_all = CandidateSet::Union(in.data.gold,
                                    in.data.gold_extra.WithLeftOffset(off));
  in.ambiguous_all = CandidateSet::Union(
      in.data.ambiguous, in.data.ambiguous_extra.WithLeftOffset(off));
  OracleLabeler oracle = MakeOracle(in.gold_all, in.ambiguous_all, 0.07,
                                    DeriveSeed(opts.seed, kOracleStream));
  std::optional<CaseSetup> setup;

  auto report_estimate = [&](const CaseJobOutput& job) {
    std::printf("Corleone estimate: precision %s recall %s (%zu labels)\n",
                job.estimate.precision.ToString().c_str(),
                job.estimate.recall.ToString().c_str(),
                job.estimate.sample_size);
  };

  if (!opts.trace) {
    JobStats stats;
    HostSpeed host;
    while (MoreSetups(stats.setups)) {
      setup.reset();
      host.Calibrate();
      stats.setups.push_back(Measure(
          [&] { setup.emplace(SetupCase(in, oracle, opts.seed, ctx)); }));
    }
    CaseJobOutput last;
    CandidateSet final_matches;
    int64_t start = NowNs();
    for (size_t job = 0; job < MinJobs(opts) || ElapsedS(start) < opts.seconds;
         ++job) {
      host.Calibrate();
      stats.jobs.push_back(Measure([&] {
        last = CaseJob(*setup, oracle, opts.seed, out_path, job, nullptr);
      }));
      if (job == 0) stats.peak_rss_mb = PeakRssMb();
      final_matches = last.final_matches;
      Corrupt(opts.corrupt, job, &final_matches);
      stats.hashes.push_back(HashMatches(final_matches));
    }
    host.Calibrate();
    ReportEndToEnd(stats, host, report);
    report_estimate(last);
    CorruptCsv(opts.corrupt, out_path);
    CheckWritten(out_path, last.final_matches, report);
    CheckStableHash(stats.hashes, report);
    CheckGold(final_matches, in.gold_all, in.ambiguous_all, kCaseMinPrecision,
              kCaseMinRecall, true, report);
    return;
  }

  // Program path, staged untraced, staged traced (see RunBatchSf).
  uint64_t program_hash = 0;
  Timing program = Measure([&] {
    CaseSetup s = SetupCase(in, oracle, opts.seed, ctx);
    program_hash = HashMatches(
        CaseJob(s, oracle, opts.seed, out_path, 0, nullptr).final_matches);
  });
  Timing untraced = Measure([&] {
    CaseSetup s = SetupCase(in, oracle, opts.seed, ctx);
    PrepTally unused;
    CaseJob(s, oracle, opts.seed, out_path, 1, &unused);
  });
  Trace::Get().set_enabled(true);
  PrepTally tally;
  CaseJobOutput job;
  Timing traced = Measure([&] {
    setup.emplace(SetupCase(in, oracle, opts.seed, ctx));
    job = CaseJob(*setup, oracle, opts.seed, out_path, 2, &tally);
  });
  Trace::Get().set_enabled(false);
  report.metrics["trace.overhead_frac"] = OverheadFrac(traced, untraced);
  PrintTimings("program, untraced, traced pass", {program, untraced, traced});

  ReportBlockQuality(job.candidates, in.gold_all, report);
  ReportRuleCounts(job.branches[0], setup->wf, setup->tables.umetrics,
                   setup->tables.usda, report);
  ReportRuleCounts(job.branches[1], setup->wf, setup->tables.extra,
                   setup->tables.usda, report);
  ReportStageSpans(tally, job.ml_input.size(), report);
  TimeCaseTraining(setup->trained, report);
  // Kernel timing on the original branch's ML input (its columns are still
  // in the workflow's prep cache).
  const WorkflowRunResult& first = job.branches.front();
  TimeFeatureKernels(setup->tables.umetrics, setup->tables.usda,
                     first.ml_input, setup->wf.features(), ctx,
                     *setup->wf.prep_cache(), report);
  report.attempted = 3;
  report_estimate(job);
  CheckGold(job.final_matches, in.gold_all, in.ambiguous_all,
            kCaseMinPrecision, kCaseMinRecall, false, report);
  Corrupt(opts.corrupt, 1, &job.final_matches);
  CheckStagedHash(program_hash, HashMatches(job.final_matches), report);
}

}  // namespace emx_e2e
