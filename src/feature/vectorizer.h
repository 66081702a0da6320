#ifndef EMX_FEATURE_VECTORIZER_H_
#define EMX_FEATURE_VECTORIZER_H_

#include <memory>

#include "src/block/candidate_set.h"
#include "src/core/executor.h"
#include "src/core/result.h"
#include "src/feature/feature_gen.h"
#include "src/feature/pair_batch.h"
#include "src/table/table.h"
#include "src/text/tokenizer.h"

namespace emx {

// The tokenizer a feature's prep spec asks for, or null for text-only
// prep. Exported so MatchService preps its resident corpus segments with
// EXACTLY the tokenization the batch vectorizer would use — one source of
// truth for the spec → tokenizer mapping.
std::unique_ptr<Tokenizer> TokenizerForSpec(const FeaturePrepSpec& spec);

// Converts each candidate record pair into a feature vector by evaluating
// every feature of `features` on the pair's attribute values (§9: "we used
// these features to convert each record pair into a feature vector").
// Row i of the result corresponds to pairs[i]; missing comparisons are NaN.
//
// Before the pair loop, every (column, prep spec) a feature references is
// prepped ONCE, through `cache` (or a call-local cache when null), over
// only the rows `pairs` references — or read whole from the cache when a
// blocker already prepped that column. Normalization, tokenization, and
// token-id spans are computed per RECORD, not per (pair × feature), on
// `ctx`'s executor; the evaluation loop is then allocation-free kernels
// over prepared text and spans. Results are bit-identical to the per-pair
// oracle in tests/oracle/ (asserted by token_kernel_test and prep_test).
// A pair whose row is out of range for its table is InvalidArgument.
//
// Rows are filled in parallel on `ctx`'s executor — each row is an
// independent pure computation over (pairs[i], features), so the matrix is
// identical at any thread count.
Result<FeatureMatrix> VectorizePairs(const Table& left, const Table& right,
                                     const CandidateSet& pairs,
                                     const FeatureSet& features,
                                     const ExecutorContext& ctx = {},
                                     PrepCache* cache = nullptr);

// The columnar hot path: same prep and the same doubles as VectorizePairs
// (bit for bit), but the result is a structure-of-arrays PairBatch and the
// evaluation loop runs FEATURE-major within each executor chunk — one
// ScoreFeature call per (feature, chunk), so the character-sequence
// measures run their batch kernels over a whole chunk's lanes at once.
// VectorizePairs is a thin transpose over this.
Result<PairBatch> VectorizePairsBatch(const Table& left, const Table& right,
                                      const CandidateSet& pairs,
                                      const FeatureSet& features,
                                      const ExecutorContext& ctx = {},
                                      PrepCache* cache = nullptr);

// Mean imputation fitted on a training matrix, applied to any matrix with
// the same feature columns — PyMatcher fills missing feature values with
// the column mean before scikit-learn sees them (§9).
class MeanImputer {
 public:
  MeanImputer() = default;

  // Learns per-column means over non-NaN entries. Columns that are all-NaN
  // get mean 0. The PairBatch overload accumulates each column in the same
  // ascending-pair order as the row-major walk — identical means.
  void Fit(const FeatureMatrix& matrix);
  void Fit(const PairBatch& batch);

  // Replaces NaNs with the fitted means, in place. Fails if widths differ.
  Status Transform(FeatureMatrix& matrix) const;
  Status Transform(PairBatch& batch) const;

  const std::vector<double>& means() const { return means_; }

 private:
  std::vector<double> means_;
};

}  // namespace emx

#endif  // EMX_FEATURE_VECTORIZER_H_
