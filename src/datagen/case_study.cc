#include "src/datagen/case_study.h"

#include <algorithm>

#include "src/block/attr_equivalence_blocker.h"
#include "src/block/overlap_blocker.h"
#include "src/labeling/sampler.h"
#include "src/ml/decision_tree.h"
#include "src/ml/linear_regression.h"
#include "src/ml/linear_svm.h"
#include "src/ml/logistic_regression.h"
#include "src/ml/naive_bayes.h"
#include "src/ml/random_forest.h"
#include "src/rules/number_pattern.h"

namespace emx {

std::shared_ptr<Blocker> MakeM1EquivalenceBlocker() {
  // The paper materialized a TempAwardNumber suffix column; the transform
  // hook does the same job without mutating the table (§7 step 1).
  return std::make_shared<AttrEquivalenceBlocker>(
      "AwardNumber", "AwardNumber",
      [](const std::string& s) { return AwardNumberSuffix(s); }, nullptr);
}

std::shared_ptr<Blocker> MakeTitleOverlapBlocker(size_t k) {
  OverlapBlockerOptions opts;
  opts.left_attr = "AwardTitle";
  opts.right_attr = "AwardTitle";
  opts.lowercase = true;
  opts.strip_punctuation = true;
  return std::make_shared<OverlapBlocker>(opts, k);
}

std::shared_ptr<Blocker> MakeTitleOverlapCoefficientBlocker(double threshold) {
  OverlapBlockerOptions opts;
  opts.left_attr = "AwardTitle";
  opts.right_attr = "AwardTitle";
  opts.lowercase = true;
  opts.strip_punctuation = true;
  return std::make_shared<OverlapCoefficientBlocker>(opts, threshold);
}

Result<BlockingOutputs> RunStandardBlocking(const Table& umetrics,
                                            const Table& usda) {
  BlockingOutputs out;
  EMX_ASSIGN_OR_RETURN(out.c1,
                       MakeM1EquivalenceBlocker()->Block(umetrics, usda));
  EMX_ASSIGN_OR_RETURN(out.c2,
                       MakeTitleOverlapBlocker(3)->Block(umetrics, usda));
  EMX_ASSIGN_OR_RETURN(
      out.c3, MakeTitleOverlapCoefficientBlocker(0.7)->Block(umetrics, usda));
  out.c = CandidateSet::UnionAll({&out.c1, &out.c2, &out.c3});
  return out;
}

std::vector<MatchRule> PositiveRulesV1() {
  return {MakeM1AwardNumberRule("AwardNumber", "AwardNumber")};
}

std::vector<MatchRule> PositiveRulesV2() {
  return {MakeM1AwardNumberRule("AwardNumber", "AwardNumber"),
          MakeAwardProjectNumberRule("AwardNumber", "ProjectNumber")};
}

std::vector<MatchRule> NegativeRules() {
  return {MakeComparableMismatchRule("neg_award_vs_award", "AwardNumber",
                                     "AwardNumber", AwardNumberSuffix),
          MakeComparableMismatchRule("neg_award_vs_project", "AwardNumber",
                                     "ProjectNumber", AwardNumberSuffix)};
}

OracleLabeler MakeOracle(const CandidateSet& gold,
                         const CandidateSet& ambiguous, double noise_rate,
                         uint64_t seed) {
  OracleOptions opts;
  opts.noise_rate = noise_rate;
  opts.unsure_rate = 0.8;
  opts.seed = seed;
  return OracleLabeler(gold, ambiguous, opts);
}

LabeledSet CollectCorrectedLabels(const OracleLabeler& oracle,
                                  const CandidateSet& candidates,
                                  size_t rounds, size_t per_round,
                                  uint64_t seed) {
  LabeledSet labels;
  for (size_t round = 0; round < rounds; ++round) {
    CandidateSet sample =
        SamplePairs(candidates, per_round, seed + round, labels);
    for (const RecordPair& p : sample) {
      labels.SetLabel(p, oracle.CorrectedLabel(p));
    }
  }
  return labels;
}

Result<FeatureSet> CaseStudyFeatures(const Table& umetrics, const Table& usda,
                                     bool case_fix) {
  FeatureGenOptions opts;
  opts.exclude = {"RecordId"};
  if (case_fix) {
    opts.lowercase_variants = {"AwardTitle", "EmployeeName"};
  }
  return GenerateFeatures(umetrics, usda, opts);
}

std::vector<MatcherFactory> StandardMatcherFactories(uint64_t seed) {
  return {
      [seed] {
        DecisionTreeOptions o;
        o.seed = seed;
        return std::make_unique<DecisionTreeMatcher>(o);
      },
      [seed] {
        RandomForestOptions o;
        o.seed = seed;
        return std::make_unique<RandomForestMatcher>(o);
      },
      [] { return std::make_unique<LogisticRegressionMatcher>(); },
      [] { return std::make_unique<NaiveBayesMatcher>(); },
      [seed] {
        LinearSvmOptions o;
        o.seed = seed;
        return std::make_unique<LinearSvmMatcher>(o);
      },
      [] { return std::make_unique<LinearRegressionMatcher>(); },
  };
}

Result<TrainedMatcher> TrainBestMatcher(const Table& umetrics,
                                        const Table& usda,
                                        const LabeledSet& labels,
                                        const std::vector<MatchRule>& sure_rules,
                                        bool case_fix, uint64_t seed) {
  TrainedMatcher out;
  EMX_ASSIGN_OR_RETURN(out.features,
                       CaseStudyFeatures(umetrics, usda, case_fix));

  // §9: drop Unsure pairs and sure matches before training.
  LabeledSet usable = labels.WithoutUnsure();
  EMX_ASSIGN_OR_RETURN(
      CandidateSet sure,
      ApplyRulesToPairs(sure_rules, umetrics, usda, usable.Pairs()));
  std::vector<RecordPair> kept_pairs;
  std::vector<int> kept_labels;
  for (const LabeledPair& item : usable.items()) {
    if (sure.Contains(item.pair)) continue;
    kept_pairs.push_back(item.pair);
    kept_labels.push_back(item.label == Label::kYes ? 1 : 0);
  }
  if (kept_pairs.size() < 20) {
    return Status::FailedPrecondition(
        "TrainBestMatcher: too few usable labeled pairs (" +
        std::to_string(kept_pairs.size()) + ")");
  }

  // Vectorize. The labeled pairs are kept in their original order, so the
  // Dataset rows align with kept_labels.
  FeatureMatrix matrix;
  {
    // CandidateSet would sort/dedupe; vectorize via a stable path instead.
    std::vector<RecordPair> ordered = kept_pairs;
    CandidateSet as_set(ordered);
    // Map from pair to its row in the vectorized (sorted) matrix.
    EMX_ASSIGN_OR_RETURN(FeatureMatrix sorted_matrix,
                         VectorizePairs(umetrics, usda, as_set, out.features));
    matrix.feature_names = sorted_matrix.feature_names;
    matrix.rows.reserve(kept_pairs.size());
    for (const RecordPair& p : kept_pairs) {
      // Binary search the sorted candidate set for the row index.
      const auto& v = as_set.pairs();
      size_t lo = std::lower_bound(v.begin(), v.end(), p) - v.begin();
      matrix.rows.push_back(sorted_matrix.rows[lo]);
    }
  }
  out.imputer.Fit(matrix);
  EMX_RETURN_IF_ERROR(out.imputer.Transform(matrix));

  out.train_data.x = matrix.rows;
  out.train_data.y = kept_labels;
  out.train_data.feature_names = matrix.feature_names;

  // 5-fold CV over the six families (§9), then fit the winner on all data.
  EMX_ASSIGN_OR_RETURN(
      out.cv_results,
      SelectMatcher(StandardMatcherFactories(seed), out.train_data, 5, seed));
  const std::string& best = out.cv_results.front().matcher_name;
  for (const MatcherFactory& factory : StandardMatcherFactories(seed)) {
    std::unique_ptr<MlMatcher> m = factory();
    if (m->name() == best) {
      out.matcher = std::move(m);
      break;
    }
  }
  EMX_RETURN_IF_ERROR(out.matcher->Fit(out.train_data));
  return out;
}

EmWorkflow BuildCaseStudyWorkflow(const std::vector<MatchRule>& positive_rules,
                                  const TrainedMatcher& trained,
                                  bool with_negative_rules) {
  EmWorkflow wf;
  for (const MatchRule& r : positive_rules) wf.AddPositiveRule(r);
  wf.AddBlocker(MakeM1EquivalenceBlocker());
  wf.AddBlocker(MakeTitleOverlapBlocker(3));
  wf.AddBlocker(MakeTitleOverlapCoefficientBlocker(0.7));
  wf.SetMatcher(trained.matcher, trained.features, trained.imputer);
  if (with_negative_rules) {
    for (const MatchRule& r : NegativeRules()) wf.AddNegativeRule(r);
  }
  return wf;
}

}  // namespace emx
