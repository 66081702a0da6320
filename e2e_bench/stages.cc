// Stage helpers shared by the workloads: the `emx run` training path,
// the traced run's explicit prep pass, per-measure kernel timing, and the
// trace-derived per-layer metrics.

#include <cstdio>
#include <set>
#include <tuple>

#include "e2e_bench/workloads.h"
#include "src/block/overlap_blocker.h"
#include "src/core/strings.h"
#include "src/ml/random_forest.h"
#include "src/table/csv.h"
#include "src/workflow/checkpoint.h"

namespace emx_e2e {

using namespace emx;

namespace {

const std::vector<Value>& Column(const Table& table, const std::string& name) {
  return *OrDie(table.ColumnByName(name), ("column " + name).c_str());
}

// "lc_AwardTitle_jac_ws" -> "jac_ws": the similarity measure a feature
// evaluates, independent of the attribute it compares. Measures the
// workloads' generated feature sets do not use read "other".
std::string MeasureOf(const Feature& f) {
  static const std::set<std::string> kReported = {
      "exact", "lev",  "jaro",   "jwn",    "jac_qgm3", "jac_ws",
      "cos_ws", "ovc_ws", "mel", "numexact", "absdiff", "relsim"};
  std::string name = f.name;
  if (name.rfind("lc_", 0) == 0) name = name.substr(3);
  if (name.rfind(f.left_attr + "_", 0) == 0) {
    name = name.substr(f.left_attr.size() + 1);
  }
  return kReported.count(name) ? name : "other";
}

}  // namespace

PrepColumns PrepAll(PrepCache& cache, const Table& left, const Table& right,
                    const FeatureSet& features, const EmWorkflow* wf) {
  Span span("prep");
  std::set<std::tuple<const void*, bool, bool, std::string>> seen;
  PrepColumns out;
  auto get = [&](const std::vector<Value>& column, const PrepOptions& options,
                 const Tokenizer* tokenizer, bool is_left) {
    auto key = std::make_tuple(static_cast<const void*>(&column),
                               options.lowercase, options.strip_punctuation,
                               tokenizer ? tokenizer->name() : std::string());
    if (!seen.insert(key).second) return;
    out.rows += cache.Get(column, options, tokenizer)->rows();
    ++(is_left ? out.left : out.right);
  };
  for (const Feature& f : features.features) {
    if (!f.has_prep()) continue;
    std::unique_ptr<Tokenizer> tokenizer = TokenizerForSpec(f.prep);
    PrepOptions options{f.prep.lowercase, /*strip_punctuation=*/false};
    get(Column(left, f.left_attr), options, tokenizer.get(), true);
    get(Column(right, f.right_attr), options, tokenizer.get(), false);
  }
  if (wf != nullptr) {
    for (const auto& blocker : wf->blockers()) {
      const OverlapBlockerOptions* options = nullptr;
      const Tokenizer* tokenizer = nullptr;
      if (auto* b = dynamic_cast<const OverlapBlocker*>(blocker.get())) {
        options = &b->options();
        tokenizer = b->tokenizer().get();
      } else if (auto* c = dynamic_cast<const OverlapCoefficientBlocker*>(
                     blocker.get())) {
        options = &c->options();
        tokenizer = c->tokenizer().get();
      }
      if (options == nullptr) continue;
      PrepOptions prep{options->lowercase, options->strip_punctuation};
      get(Column(left, options->left_attr), prep, tokenizer, true);
      get(Column(right, options->right_attr), prep, tokenizer, false);
    }
  }
  return out;
}

void TallyPrep(const PrepColumns& columns, const CandidateSet& pairs,
               PrepTally* tally) {
  std::set<uint32_t> used_left, used_right;
  for (const RecordPair& p : pairs) {
    used_left.insert(p.left);
    used_right.insert(p.right);
  }
  tally->rows += static_cast<double>(columns.rows);
  tally->useful += static_cast<double>(columns.left * used_left.size() +
                                       columns.right * used_right.size());
}

TrainedModel TrainLikeEmxRun(const Table& left, const Table& right,
                             const LabeledSet& labels,
                             const ExecutorContext& ctx, PrepTally* tally) {
  TrainedModel model;
  {
    Span span("feature.generate");
    model.features =
        OrDie(GenerateFeatures(left, right, FeatureGenOptions{}), "features");
  }
  LabeledSet decided = labels.WithoutUnsure();
  CandidateSet train_pairs = decided.Pairs();
  // `emx run` vectorizes the labels through a call-local prep cache.
  PrepCache cache;
  if (tally != nullptr) {
    TallyPrep(PrepAll(cache, left, right, model.features, nullptr),
              train_pairs, tally);
  }
  FeatureMatrix matrix;
  {
    Span span("feature.vectorize");
    matrix = OrDie(
        VectorizePairs(left, right, train_pairs, model.features, ctx, &cache),
        "vectorize labels");
  }
  Dataset train;
  {
    Span span("ml.impute");
    model.imputer.Fit(matrix);
    OrDie(model.imputer.Transform(matrix), "impute labels");
    train.feature_names = matrix.feature_names;
    train.x = std::move(matrix.rows);
    for (const RecordPair& p : train_pairs) {
      Label l = Label::kNo;
      decided.GetLabel(p, &l);
      train.y.push_back(l == Label::kYes ? 1 : 0);
    }
  }
  auto forest = std::make_shared<RandomForestMatcher>();
  forest->set_executor(ctx);
  {
    Span span("ml.fit");
    OrDie(forest->Fit(train), "fit forest");
  }
  model.matcher = std::move(forest);
  return model;
}

std::string EmxRunModelFingerprint(const Table& left, const Table& right,
                                   const LabeledSet& labels,
                                   const std::string& matcher,
                                   const FeatureSet& features) {
  std::string decided;
  for (const RecordPair& p : labels.WithoutUnsure().Pairs()) {
    Label l = Label::kUnsure;
    labels.GetLabel(p, &l);
    decided += std::to_string(p.left) + " " + std::to_string(p.right) + " " +
               std::string(LabelToString(l)) + "\n";
  }
  return HashHex(Fnv1a64(WriteCsvString(left) + "\x1f" +
                         WriteCsvString(right) + "\x1f" + decided + "\x1f" +
                         matcher + "\x1f" + Join(features.names(), ",")));
}

bool MoreSetups(const std::vector<Timing>& setups) {
  double total = 0;
  for (const Timing& t : setups) total += t.wall_s;
  return setups.size() < 3 || (total < 2.0 && setups.size() < 15);
}

double MedianOf(const std::vector<Timing>& units, double Timing::*field) {
  std::vector<double> v;
  for (const Timing& t : units) v.push_back(t.*field);
  return Median(v);
}

double OverheadFrac(const Timing& traced, const Timing& untraced) {
  return traced.wall_s / untraced.wall_s - 1;
}

void ReportTimes(double setup_s, double latency_ms, double cpu_s,
                 const HostSpeed& host, RunReport& report) {
  const double slowdown = host.Slowdown();
  std::printf(
      "raw setup_s %.6g latency_p50_ms %.6g cpu_s %.6g; host slowdown %.4f "
      "(median of %zu calibrations)\n",
      setup_s, latency_ms, cpu_s, slowdown, host.calibrations());
  report.metrics["setup_s"] = setup_s / slowdown;
  report.metrics["latency_p50_ms"] = latency_ms / slowdown;
  report.metrics["cpu_s"] = cpu_s / slowdown;
}

void PrintTimings(const char* what, const std::vector<Timing>& units) {
  std::printf("%s wall s:", what);
  for (const Timing& t : units) std::printf(" %.3f", t.wall_s);
  std::printf("\n");
}

void TimeFeatureKernels(const Table& left, const Table& right,
                        const CandidateSet& pairs, const FeatureSet& features,
                        const ExecutorContext& ctx, PrepCache& cache,
                        RunReport& report) {
  for (const Feature& f : features.features) {
    FeatureSet one;
    one.features.push_back(f);
    int64_t t0 = NowNs();
    OrDie(VectorizePairsBatch(left, right, pairs, one, ctx, &cache),
          "vectorize one feature");
    report.metrics["feature.kernel_s." + MeasureOf(f)] += (NowNs() - t0) * 1e-9;
  }
}

void ReportParallelEfficiency(const std::string& span, const std::string& label,
                              size_t threads, RunReport& report) {
  const Trace& trace = Trace::Get();
  double wall = trace.TotalSeconds(span);
  double cpu = trace.TotalCpuSeconds(span);
  report.metrics["core.parallel_eff." + label] =
      wall > 0 ? cpu / (wall * static_cast<double>(threads)) : 0;
}

void ReportLayerSelfTimes(RunReport& report) {
  for (const auto& [layer, seconds] : Trace::Get().LayerSelfSeconds()) {
    report.metrics[layer + ".self_s"] = seconds;
  }
}

}  // namespace emx_e2e
