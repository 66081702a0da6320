#ifndef EMX_FEATURE_FEATURE_H_
#define EMX_FEATURE_FEATURE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/prep/prepared_column.h"
#include "src/table/value.h"

namespace emx {

// What a feature needs prepped per column to evaluate through the cached
// path: the normalization, and (for token features) the tokenization.
struct FeaturePrepSpec {
  bool lowercase = false;
  bool tokenize = false;  // token-level feature (set kernels / Monge-Elkan)
  int qgram = 0;          // when tokenizing: <= 0 whitespace, else q-grams
};

// The similarity measure a feature computes. Character-sequence measures
// score the prepped (normalized) text, token-set measures the sorted token-id
// spans, Monge-Elkan the emission-order token strings; numeric and date
// measures read the raw Values and need no prep.
enum class Measure : uint8_t {
  kExact,
  kLevenshtein,
  kJaro,
  kJaroWinkler,
  kNeedlemanWunsch,
  kSmithWaterman,
  kAffineGap,
  kJaccard,
  kCosine,
  kDice,
  kOverlapCoefficient,
  kMongeElkan,
  // Value-backed measures (no prep) come last; has_prep() relies on it.
  kAbsDiff,
  kRelativeSim,
  kNumericExact,
  kYearDiff,
};

// One pairwise feature: compares a left-table attribute against a
// right-table attribute and yields a double (NaN when either side is null —
// downstream, the Imputer fills NaNs with column means, exactly the paper's
// missing-value handling in §9). Plain data: ScoreFeature evaluates it.
struct Feature {
  std::string name;        // e.g. "AwardTitle_jac_ws"
  std::string left_attr;
  std::string right_attr;
  Measure measure = Measure::kExact;
  FeaturePrepSpec prep;    // meaningful only when has_prep()

  // False for the numeric and date measures, which read raw Values.
  bool has_prep() const { return measure < Measure::kAbsDiff; }
};

// One side of a feature's input lanes: lane i reads row rows[i] of the
// prepared column `prep` when the feature has prep, else of the raw column
// `values` (a caller scoring a one-row segment passes `values` offset to
// that record). `prep` may hold a subset of the table's rows, so its rows
// need not be table rows.
struct FeatureSide {
  const Value* values = nullptr;
  const PreparedColumn* prep = nullptr;
  const uint32_t* rows = nullptr;
};

// The one scoring path: out[i] = `feature` of (left lane i, right lane i)
// for n lanes; NaN where either side is null (or, for the numeric
// measures, not numeric, and for year diff, has no year). Sequence
// measures run the batch kernels of src/text/batch_kernel.h over the
// non-null lanes, set measures the id-span merge kernels, Monge-Elkan
// Jaro-Winkler over every token-string pair. Set measures need both
// PreparedColumns from the SAME PrepCache (shared interner); Monge-Elkan
// reads each side through its own. Thread-safe; staging buffers are per
// thread.
void ScoreFeature(const Feature& feature, const FeatureSide& left,
                  const FeatureSide& right, size_t n, double* out);

// Named similarity-function factories. `lowercase` pre-lowercases both
// sides — the "case fix" features added while debugging the matcher in §9.
Feature MakeExactMatchFeature(const std::string& left_attr,
                              const std::string& right_attr,
                              bool lowercase = false);
Feature MakeLevenshteinFeature(const std::string& left_attr,
                               const std::string& right_attr,
                               bool lowercase = false);
Feature MakeJaroFeature(const std::string& left_attr,
                        const std::string& right_attr,
                        bool lowercase = false);
Feature MakeJaroWinklerFeature(const std::string& left_attr,
                               const std::string& right_attr,
                               bool lowercase = false);
Feature MakeNeedlemanWunschFeature(const std::string& left_attr,
                                   const std::string& right_attr,
                                   bool lowercase = false);
Feature MakeSmithWatermanFeature(const std::string& left_attr,
                                 const std::string& right_attr,
                                 bool lowercase = false);
// Affine-gap alignment (Gotoh) — the only sequence measure that scores a
// single long insertion ("Smith, J" vs "Smith, John R") above scattered
// edits; useful for person-name attributes. Scratch-backed like the rest of
// the sequence kernels.
Feature MakeAffineGapFeature(const std::string& left_attr,
                             const std::string& right_attr,
                             bool lowercase = false);

// Token-set features; `qgram` <= 0 means whitespace tokens, otherwise
// character q-grams of that size.
Feature MakeJaccardFeature(const std::string& left_attr,
                           const std::string& right_attr, int qgram = 0,
                           bool lowercase = false);
Feature MakeCosineFeature(const std::string& left_attr,
                          const std::string& right_attr, int qgram = 0,
                          bool lowercase = false);
Feature MakeDiceFeature(const std::string& left_attr,
                        const std::string& right_attr, int qgram = 0,
                        bool lowercase = false);
Feature MakeOverlapCoefficientFeature(const std::string& left_attr,
                                      const std::string& right_attr,
                                      int qgram = 0, bool lowercase = false);
Feature MakeMongeElkanFeature(const std::string& left_attr,
                              const std::string& right_attr,
                              bool lowercase = false);

// Numeric features.
Feature MakeAbsDiffFeature(const std::string& left_attr,
                           const std::string& right_attr);
Feature MakeRelativeSimFeature(const std::string& left_attr,
                               const std::string& right_attr);
Feature MakeNumericExactFeature(const std::string& left_attr,
                                const std::string& right_attr);

// Year difference between two date-like strings (leading 4-digit year or
// trailing 4-digit year); NaN if either year cannot be extracted. Used for
// the D3 label-debugging rule ("transaction dates within a few years", §8).
Feature MakeYearDiffFeature(const std::string& left_attr,
                            const std::string& right_attr);

}  // namespace emx

#endif  // EMX_FEATURE_FEATURE_H_
