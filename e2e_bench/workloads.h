// The four end-to-end workloads. Each fills a RunReport: with tracing off,
// the end-to-end metrics; with tracing on, the per-layer metrics of a
// traced pass, plus trace.overhead_frac against an untraced pass of the
// same work in the same process.

#ifndef EMX_E2E_BENCH_WORKLOADS_H_
#define EMX_E2E_BENCH_WORKLOADS_H_

#include <memory>

#include "e2e_bench/bench_util.h"
#include "src/core/executor.h"
#include "src/feature/feature_gen.h"
#include "src/feature/vectorizer.h"
#include "src/labeling/label.h"
#include "src/ml/matcher.h"
#include "src/prep/prepared_column.h"
#include "src/table/table.h"
#include "src/workflow/em_workflow.h"

namespace emx_e2e {


// One measured unit (a set-up, a job, a serving phase): wall and CPU
// seconds, as measured.
struct Timing {
  double wall_s = 0;
  double cpu_s = 0;
};

template <typename Fn>
Timing Measure(Fn&& fn) {
  int64_t t0 = NowNs();
  double c0 = ProcessCpuS();
  fn();
  return {(NowNs() - t0) * 1e-9, ProcessCpuS() - c0};
}

// Median over the units of one Timing field, e.g. &Timing::wall_s.
double MedianOf(const std::vector<Timing>& units, double Timing::*field);

// Traced pass over the untraced pass of the same work, minus 1.
double OverheadFrac(const Timing& traced, const Timing& untraced);

// setup_s is the median of several set-ups per run: at least three, and
// more while they have taken under two seconds in all (cheap set-ups are
// the noisiest).
bool MoreSetups(const std::vector<Timing>& setups);

// Reports setup_s, latency_p50_ms and cpu_s, measured as given, divided by
// the run's host slowdown, and prints them raw.
void ReportTimes(double setup_s, double latency_ms, double cpu_s,
                 const HostSpeed& host, RunReport& report);

// Prints one line per series: the wall seconds of each unit.
void PrintTimings(const char* what, const std::vector<Timing>& units);

// Rows prepped, and how many of them some candidate or label pair reads.
struct PrepTally {
  double rows = 0;
  double useful = 0;
};

// The traced run's passes only: builds through `cache`, inside a "prep"
// span, every prepared column that vectorizing `features` (and, when `wf`
// is given, its token blockers) reads, so the later stage spans exclude
// prep.
// Returns how many left and right columns were prepped, and the rows of
// the prepared columns (PreparedColumn::rows()). Each column is prepped
// whole, as the prep API does today; once prep can be driven by the
// candidate pairs, this pass has to ask for the same rows the stages do.
struct PrepColumns {
  size_t left = 0;
  size_t right = 0;
  size_t rows = 0;
};
PrepColumns PrepAll(emx::PrepCache& cache, const emx::Table& left,
                    const emx::Table& right, const emx::FeatureSet& features,
                    const emx::EmWorkflow* wf);

// Adds the prepped rows of `columns` to `tally`, and as useful rows, per
// column, those that `pairs` reference.
void TallyPrep(const PrepColumns& columns, const emx::CandidateSet& pairs,
               PrepTally* tally);

// The `emx run` training path, also the set-up of the serving workloads:
// auto-generated features -> vectorize the decided labels -> mean imputer
// -> random forest. Given a `tally` (the traced run's passes), the labels'
// columns are prepped up front by PrepAll and tallied.
struct TrainedModel {
  std::shared_ptr<emx::MlMatcher> matcher;
  emx::FeatureSet features;
  emx::MeanImputer imputer;
};
TrainedModel TrainLikeEmxRun(const emx::Table& left, const emx::Table& right,
                             const emx::LabeledSet& labels,
                             const emx::ExecutorContext& ctx,
                             PrepTally* tally);

// The fingerprint `emx run` computes over its training inputs before it
// trains, with or without a checkpoint directory: both tables as CSV, the
// decided labels, the matcher name and the feature names.
std::string EmxRunModelFingerprint(const emx::Table& left,
                                   const emx::Table& right,
                                   const emx::LabeledSet& labels,
                                   const std::string& matcher,
                                   const emx::FeatureSet& features);

// Per-measure kernel seconds: one VectorizePairsBatch call per
// single-feature set over `pairs`, against a `cache` that already holds
// every prepared column, added to feature.kernel_s.<measure>.
void TimeFeatureKernels(const emx::Table& left, const emx::Table& right,
                        const emx::CandidateSet& pairs,
                        const emx::FeatureSet& features,
                        const emx::ExecutorContext& ctx, emx::PrepCache& cache,
                        RunReport& report);

// Stage CPU / (stage wall x threads) of the spans named `span`, reported
// as core.parallel_eff.<label>.
void ReportParallelEfficiency(const std::string& span, const std::string& label,
                              size_t threads, RunReport& report);

// Self seconds of every layer seen in the trace, as <layer>.self_s.
void ReportLayerSelfTimes(RunReport& report);

void RunBatchSf(const RunOptions& opts, RunReport& report);
void RunCaseStudy(const RunOptions& opts, RunReport& report);
void RunServe(const RunOptions& opts, RunReport& report);

}  // namespace emx_e2e

#endif  // EMX_E2E_BENCH_WORKLOADS_H_
