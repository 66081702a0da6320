#ifndef EMX_TESTS_ORACLE_FEATURE_ORACLE_H_
#define EMX_TESTS_ORACLE_FEATURE_ORACLE_H_

#include "src/block/candidate_set.h"
#include "src/core/executor.h"
#include "src/core/result.h"
#include "src/feature/feature.h"
#include "src/feature/feature_gen.h"
#include "src/table/table.h"
#include "src/table/value.h"

namespace emx {
namespace oracle {

// The per-pair definition of a feature: normalizes (and tokenizes) both
// Values afresh on every call and runs the scalar similarity kernels over
// the result — no PrepCache, interner, id spans or batch kernels. The
// numeric and date measures read raw Values in production too, so they
// score through a one-lane ScoreFeature call. ScoreFeature must reproduce
// every double bit for bit.
double ScorePair(const Feature& feature, const Value& a, const Value& b);

// Row-major vectorize through ScorePair, one row per pair — the reference
// the prepared, columnar VectorizePairs/VectorizePairsBatch are compared
// against, and the legacy stage bench_vectorize measures them against.
Result<FeatureMatrix> VectorizePairsUnprepared(const Table& left,
                                               const Table& right,
                                               const CandidateSet& pairs,
                                               const FeatureSet& features,
                                               const ExecutorContext& ctx = {});

}  // namespace oracle
}  // namespace emx

#endif  // EMX_TESTS_ORACLE_FEATURE_ORACLE_H_
