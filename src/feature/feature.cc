#include "src/feature/feature.h"

#include <cmath>
#include <limits>
#include <string_view>

#include "src/core/strings.h"
#include "src/text/batch_kernel.h"
#include "src/text/numeric_similarity.h"
#include "src/text/set_similarity.h"

namespace emx {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Feature MakeFeature(std::string name, const std::string& left_attr,
                    const std::string& right_attr, Measure measure,
                    FeaturePrepSpec prep = {}) {
  Feature f;
  f.name = std::move(name);
  f.left_attr = left_attr;
  f.right_attr = right_attr;
  f.measure = measure;
  f.prep = prep;
  return f;
}

// A character-sequence feature scores the normalized text, untokenized.
Feature TextFeature(std::string name, const std::string& left_attr,
                    const std::string& right_attr, Measure measure,
                    bool lowercase) {
  return MakeFeature(std::move(name), left_attr, right_attr, measure,
                     {lowercase, /*tokenize=*/false, /*qgram=*/0});
}

// A token feature scores its values' tokens: the set measures their sorted
// id spans, Monge-Elkan the token strings.
Feature TokenFeature(std::string name, const std::string& left_attr,
                     const std::string& right_attr, Measure measure,
                     int qgram, bool lowercase) {
  return MakeFeature(std::move(name), left_attr, right_attr, measure,
                     {lowercase, /*tokenize=*/true, qgram});
}

std::string TokName(int qgram) {
  return qgram > 0 ? "qgm" + std::to_string(qgram) : "ws";
}

std::string FeatName(const std::string& attr, const std::string& sim,
                     bool lowercase) {
  return (lowercase ? "lc_" : "") + attr + "_" + sim;
}

// Extracts a 4-digit year from a date-like string ("2008-34103-19449",
// "10/1/08", "1997-07-01"); returns NaN-signal via ok=false when absent.
bool ExtractYear(const std::string& s, int* year) {
  // Leading 4-digit year.
  if (s.size() >= 4 && IsAllDigits(s.substr(0, 4))) {
    int y = std::stoi(s.substr(0, 4));
    if (y >= 1900 && y <= 2100) {
      *year = y;
      return true;
    }
  }
  // Trailing 4- or 2-digit year after the last '/' or '-'. Other digit-run
  // lengths can't be a year — and unbounded runs would overflow std::stoi
  // (a 10-digit tail used to throw out_of_range here).
  size_t pos = s.find_last_of("/-");
  if (pos != std::string::npos && pos + 1 < s.size()) {
    std::string tail = s.substr(pos + 1);
    if ((tail.size() == 2 || tail.size() == 4) && IsAllDigits(tail)) {
      int y = std::stoi(tail);
      if (tail.size() == 2) y += (y < 50) ? 2000 : 1900;
      if (y >= 1900 && y <= 2100) {
        *year = y;
        return true;
      }
    }
  }
  return false;
}

using BatchKernel = void (*)(const std::string_view* a,
                             const std::string_view* b, size_t n,
                             double* out);

// Binds the default prefix scale, which makes it a BatchKernel.
void JaroWinklerBatch(const std::string_view* a, const std::string_view* b,
                      size_t n, double* out) {
  JaroWinklerSimilarityBatch(a, b, n, out);
}

// Null lanes score NaN directly; the rest gather into contiguous view
// arrays for one batch-kernel call, whose scores scatter back to their
// lanes.
void ScoreText(BatchKernel kernel, const FeatureSide& l, const FeatureSide& r,
               size_t n, double* out) {
  // Staging reused across calls on this thread.
  thread_local std::vector<std::string_view> ga, gb;
  thread_local std::vector<double> scores;
  thread_local std::vector<uint32_t> lanes;
  ga.clear();
  gb.clear();
  lanes.clear();
  for (size_t i = 0; i < n; ++i) {
    if (l.prep->is_null(l.rows[i]) || r.prep->is_null(r.rows[i])) {
      out[i] = kNaN;
    } else {
      lanes.push_back(static_cast<uint32_t>(i));
      ga.push_back(l.prep->text(l.rows[i]));
      gb.push_back(r.prep->text(r.rows[i]));
    }
  }
  scores.resize(ga.size());
  kernel(ga.data(), gb.data(), ga.size(), scores.data());
  for (size_t k = 0; k < lanes.size(); ++k) out[lanes[k]] = scores[k];
}

// out[i] = score(left prep, left row, right prep, right row), NaN when
// either row is null.
template <typename Fn>
void ScorePrepared(const FeatureSide& l, const FeatureSide& r, size_t n,
                   double* out, Fn score) {
  for (size_t i = 0; i < n; ++i) {
    size_t a = l.rows[i], b = r.rows[i];
    out[i] = l.prep->is_null(a) || r.prep->is_null(b)
                 ? kNaN
                 : score(*l.prep, a, *r.prep, b);
  }
}

// Set measures reduce both id spans to (|A|, |B|, |A ∩ B|) by one merge.
template <typename Fn>
void ScoreSpans(const FeatureSide& l, const FeatureSide& r, size_t n,
                double* out, Fn kernel) {
  ScorePrepared(l, r, n, out,
                [&](const PreparedColumn& lc, size_t a,
                    const PreparedColumn& rc, size_t b) {
                  return kernel(lc.ids(a), rc.ids(b));
                });
}

// Monge-Elkan runs Jaro-Winkler between token STRINGS, in tokenizer-emission
// order (the summation order of the per-pair definition). Each side reads
// its tokens through its own column's interner, so the two columns may come
// from different PrepCaches. Token pairs are scored afresh for every lane:
// most of the pairs a candidate set scores are distinct, so a token-pair
// cache costs more than the Jaro-Winkler calls it saves.
double MongeElkan(const PreparedColumn& lc, size_t i, const PreparedColumn& rc,
                  size_t j) {
  size_t na = 0, nb = 0;
  const uint32_t* ia = lc.emission_ids(i, &na);
  const uint32_t* ib = rc.emission_ids(j, &nb);
  thread_local std::vector<std::string_view> ta, tb;
  ta.resize(na);
  tb.resize(nb);
  for (size_t k = 0; k < na; ++k) ta[k] = lc.interner().TokenString(ia[k]);
  for (size_t k = 0; k < nb; ++k) tb[k] = rc.interner().TokenString(ib[k]);
  return MongeElkanSimilarity(ta.data(), na, tb.data(), nb);
}

// out[i] = fn(left value, right value) over the raw Values; `fn` owns its
// null handling.
template <typename Fn>
void ScoreValues(const FeatureSide& l, const FeatureSide& r, size_t n,
                 double* out, Fn fn) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = fn(l.values[l.rows[i]], r.values[r.rows[i]]);
  }
}

// Numeric measures: NaN unless both sides are numeric (strings are not
// coerced).
template <typename Fn>
void ScoreNumeric(const FeatureSide& l, const FeatureSide& r, size_t n,
                  double* out, Fn fn) {
  ScoreValues(l, r, n, out, [&](const Value& a, const Value& b) {
    if (!a.is_numeric() || !b.is_numeric()) return kNaN;
    return fn(a.AsDouble(), b.AsDouble());
  });
}

double YearDiff(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return kNaN;
  int ya = 0, yb = 0;
  if (!ExtractYear(a.AsString(), &ya) || !ExtractYear(b.AsString(), &yb)) {
    return kNaN;
  }
  return std::abs(ya - yb);
}

}  // namespace

void ScoreFeature(const Feature& feature, const FeatureSide& left,
                  const FeatureSide& right, size_t n, double* out) {
  if (n == 0) return;
  switch (feature.measure) {
    case Measure::kExact:
      return ScoreText(&ExactMatchBatch, left, right, n, out);
    case Measure::kLevenshtein:
      return ScoreText(&LevenshteinSimilarityBatch, left, right, n, out);
    case Measure::kJaro:
      return ScoreText(&JaroSimilarityBatch, left, right, n, out);
    case Measure::kJaroWinkler:
      return ScoreText(&JaroWinklerBatch, left, right, n, out);
    case Measure::kNeedlemanWunsch:
      return ScoreText(&NeedlemanWunschSimilarityBatch, left, right, n, out);
    case Measure::kSmithWaterman:
      return ScoreText(&SmithWatermanSimilarityBatch, left, right, n, out);
    case Measure::kAffineGap:
      return ScoreText(&AffineGapSimilarityBatch, left, right, n, out);
    case Measure::kJaccard:
      return ScoreSpans(left, right, n, out, [](IdSpan a, IdSpan b) {
        return JaccardSimilarity(a, b);
      });
    case Measure::kCosine:
      return ScoreSpans(left, right, n, out, [](IdSpan a, IdSpan b) {
        return CosineSimilarity(a, b);
      });
    case Measure::kDice:
      return ScoreSpans(left, right, n, out, [](IdSpan a, IdSpan b) {
        return DiceSimilarity(a, b);
      });
    case Measure::kOverlapCoefficient:
      return ScoreSpans(left, right, n, out, [](IdSpan a, IdSpan b) {
        return OverlapCoefficient(a, b);
      });
    case Measure::kMongeElkan:
      return ScorePrepared(left, right, n, out, &MongeElkan);
    case Measure::kAbsDiff:
      return ScoreNumeric(left, right, n, out, &AbsoluteDifference);
    case Measure::kRelativeSim:
      return ScoreNumeric(left, right, n, out, &RelativeSimilarity);
    case Measure::kNumericExact:
      return ScoreNumeric(left, right, n, out, &NumericExactMatch);
    case Measure::kYearDiff:
      return ScoreValues(left, right, n, out, &YearDiff);
  }
}

Feature MakeExactMatchFeature(const std::string& left_attr,
                              const std::string& right_attr, bool lowercase) {
  return TextFeature(FeatName(left_attr, "exact", lowercase), left_attr,
                     right_attr, Measure::kExact, lowercase);
}

Feature MakeLevenshteinFeature(const std::string& left_attr,
                               const std::string& right_attr, bool lowercase) {
  return TextFeature(FeatName(left_attr, "lev", lowercase), left_attr,
                     right_attr, Measure::kLevenshtein, lowercase);
}

Feature MakeJaroFeature(const std::string& left_attr,
                        const std::string& right_attr, bool lowercase) {
  return TextFeature(FeatName(left_attr, "jaro", lowercase), left_attr,
                     right_attr, Measure::kJaro, lowercase);
}

Feature MakeJaroWinklerFeature(const std::string& left_attr,
                               const std::string& right_attr, bool lowercase) {
  return TextFeature(FeatName(left_attr, "jwn", lowercase), left_attr,
                     right_attr, Measure::kJaroWinkler, lowercase);
}

Feature MakeNeedlemanWunschFeature(const std::string& left_attr,
                                   const std::string& right_attr,
                                   bool lowercase) {
  return TextFeature(FeatName(left_attr, "nmw", lowercase), left_attr,
                     right_attr, Measure::kNeedlemanWunsch, lowercase);
}

Feature MakeSmithWatermanFeature(const std::string& left_attr,
                                 const std::string& right_attr,
                                 bool lowercase) {
  return TextFeature(FeatName(left_attr, "sw", lowercase), left_attr,
                     right_attr, Measure::kSmithWaterman, lowercase);
}

Feature MakeAffineGapFeature(const std::string& left_attr,
                             const std::string& right_attr, bool lowercase) {
  return TextFeature(FeatName(left_attr, "ag", lowercase), left_attr,
                     right_attr, Measure::kAffineGap, lowercase);
}

Feature MakeJaccardFeature(const std::string& left_attr,
                           const std::string& right_attr, int qgram,
                           bool lowercase) {
  return TokenFeature(FeatName(left_attr, "jac_" + TokName(qgram), lowercase),
                      left_attr, right_attr, Measure::kJaccard, qgram,
                      lowercase);
}

Feature MakeCosineFeature(const std::string& left_attr,
                          const std::string& right_attr, int qgram,
                          bool lowercase) {
  return TokenFeature(FeatName(left_attr, "cos_" + TokName(qgram), lowercase),
                      left_attr, right_attr, Measure::kCosine, qgram,
                      lowercase);
}

Feature MakeDiceFeature(const std::string& left_attr,
                        const std::string& right_attr, int qgram,
                        bool lowercase) {
  return TokenFeature(FeatName(left_attr, "dice_" + TokName(qgram), lowercase),
                      left_attr, right_attr, Measure::kDice, qgram, lowercase);
}

Feature MakeOverlapCoefficientFeature(const std::string& left_attr,
                                      const std::string& right_attr, int qgram,
                                      bool lowercase) {
  return TokenFeature(FeatName(left_attr, "ovc_" + TokName(qgram), lowercase),
                      left_attr, right_attr, Measure::kOverlapCoefficient,
                      qgram, lowercase);
}

Feature MakeMongeElkanFeature(const std::string& left_attr,
                              const std::string& right_attr, bool lowercase) {
  // Monge-Elkan runs on whitespace tokens.
  return TokenFeature(FeatName(left_attr, "mel", lowercase), left_attr,
                      right_attr, Measure::kMongeElkan, /*qgram=*/0,
                      lowercase);
}

Feature MakeAbsDiffFeature(const std::string& left_attr,
                           const std::string& right_attr) {
  return MakeFeature(left_attr + "_absdiff", left_attr, right_attr,
                     Measure::kAbsDiff);
}

Feature MakeRelativeSimFeature(const std::string& left_attr,
                               const std::string& right_attr) {
  return MakeFeature(left_attr + "_relsim", left_attr, right_attr,
                     Measure::kRelativeSim);
}

Feature MakeNumericExactFeature(const std::string& left_attr,
                                const std::string& right_attr) {
  return MakeFeature(left_attr + "_numexact", left_attr, right_attr,
                     Measure::kNumericExact);
}

Feature MakeYearDiffFeature(const std::string& left_attr,
                            const std::string& right_attr) {
  return MakeFeature(left_attr + "_yeardiff", left_attr, right_attr,
                     Measure::kYearDiff);
}

}  // namespace emx
