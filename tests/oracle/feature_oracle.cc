#include "tests/oracle/feature_oracle.h"

#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/text/phonetic.h"
#include "src/text/sequence_similarity.h"
#include "src/text/set_similarity.h"
#include "src/text/tokenizer.h"

namespace emx {
namespace oracle {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Normalized view of a value. String values needing no lowercasing are
// viewed in place; everything else (numerics to format, strings to
// lowercase) materializes into `buf`.
std::string_view PrepView(const Value& v, bool lowercase, std::string* buf) {
  if (!lowercase && v.is_string()) return v.AsStringView();
  *buf = v.AsString();
  if (lowercase) {
    for (char& c : *buf) {
      if (c >= 'A' && c <= 'Z') c += 'a' - 'A';
    }
  }
  return *buf;
}

std::vector<std::string> Tokens(std::string_view text, int qgram) {
  if (qgram > 0) return QgramTokenizer(qgram).Tokenize(text);
  return WhitespaceTokenizer().Tokenize(text);
}

}  // namespace

double ScorePair(const Feature& f, const Value& a, const Value& b) {
  if (!f.has_prep()) {
    const uint32_t row = 0;
    double out = kNaN;
    ScoreFeature(f, {&a, nullptr, &row}, {&b, nullptr, &row}, 1, &out);
    return out;
  }
  if (a.is_null() || b.is_null()) return kNaN;
  std::string ba, bb;
  std::string_view sa = PrepView(a, f.prep.lowercase, &ba);
  std::string_view sb = PrepView(b, f.prep.lowercase, &bb);
  // Sequence measures: the seed scalar kernels (emx::oracle in src/text).
  switch (f.measure) {
    case Measure::kExact:
      return emx::ExactMatch(sa, sb);
    case Measure::kLevenshtein:
      return oracle::LevenshteinSimilarity(sa, sb);
    case Measure::kJaro:
      return oracle::JaroSimilarity(sa, sb);
    case Measure::kJaroWinkler:
      return oracle::JaroWinklerSimilarity(sa, sb);
    case Measure::kNeedlemanWunsch:
      return oracle::NeedlemanWunschSimilarity(sa, sb);
    case Measure::kSmithWaterman:
      return oracle::SmithWatermanSimilarity(sa, sb);
    case Measure::kAffineGap:
      return oracle::AffineGapSimilarity(sa, sb);
    default:
      break;
  }
  // Token measures: the string-set kernels over freshly tokenized Values.
  std::vector<std::string> ta = Tokens(sa, f.prep.qgram);
  std::vector<std::string> tb = Tokens(sb, f.prep.qgram);
  switch (f.measure) {
    case Measure::kJaccard:
      return JaccardSimilarity(ta, tb);
    case Measure::kCosine:
      return CosineSimilarity(ta, tb);
    case Measure::kDice:
      return DiceSimilarity(ta, tb);
    case Measure::kOverlapCoefficient:
      return OverlapCoefficient(ta, tb);
    case Measure::kMongeElkan:
      return MongeElkanSimilarity(ta, tb);
    default:
      return kNaN;  // unreachable: every prepped measure is handled above
  }
}

Result<FeatureMatrix> VectorizePairsUnprepared(const Table& left,
                                               const Table& right,
                                               const CandidateSet& pairs,
                                               const FeatureSet& features,
                                               const ExecutorContext& ctx) {
  std::vector<const std::vector<Value>*> lcols, rcols;
  for (const Feature& f : features.features) {
    EMX_ASSIGN_OR_RETURN(const std::vector<Value>* lcol,
                         left.ColumnByName(f.left_attr));
    EMX_ASSIGN_OR_RETURN(const std::vector<Value>* rcol,
                         right.ColumnByName(f.right_attr));
    lcols.push_back(lcol);
    rcols.push_back(rcol);
  }
  const size_t width = features.features.size();
  FeatureMatrix m;
  m.feature_names = features.names();
  m.rows.resize(pairs.size());
  ctx.get().ParallelFor(0, pairs.size(), /*grain=*/0, [&](size_t lo,
                                                          size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      const RecordPair& p = pairs[r];
      std::vector<double>& row = m.rows[r];
      row.resize(width);
      for (size_t i = 0; i < width; ++i) {
        row[i] = ScorePair(features.features[i], (*lcols[i])[p.left],
                           (*rcols[i])[p.right]);
      }
    }
  });
  return m;
}

}  // namespace oracle
}  // namespace emx
