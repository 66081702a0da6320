#ifndef EMX_RULES_MATCH_RULES_H_
#define EMX_RULES_MATCH_RULES_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/block/attr_equivalence_blocker.h"
#include "src/block/candidate_set.h"
#include "src/core/executor.h"
#include "src/core/result.h"
#include "src/table/table.h"

namespace emx {

// A hand-crafted rule over a record pair. Positive rules declare sure
// matches (M1, and §10's award-number = project-number rule); negative
// rules flip predicted matches to non-matches (§12).
//
// Plain data: a rule compares the left row's key with the right row's key,
// each side's key being EquiJoinKey of its attribute's cell through that
// side's transform. A side without a key (missing column, null cell, or an
// empty value after the transform) never fires.
struct MatchRule {
  enum class Kind {
    kEqual,               // keys equal
    kLevenshteinAtLeast,  // LevenshteinSimilarity(keys) >= min_sim
    kComparableMismatch,  // keys pattern-comparable but unequal
  };

  std::string name;
  Kind kind = Kind::kEqual;
  std::string left_attr;
  std::string right_attr;
  KeyTransform left_transform;   // null = identity
  KeyTransform right_transform;  // null = identity
  double min_sim = 0.0;          // kLevenshteinAtLeast only

  std::string LeftKey(const Table& left, size_t row) const {
    return EquiJoinKey(left.at(row, left_attr), left_transform);
  }
  std::string RightKey(const Table& right, size_t row) const {
    return EquiJoinKey(right.at(row, right_attr), right_transform);
  }

  // Whether the rule holds on two keys; false when either is empty.
  bool FiresOnKeys(std::string_view left_key, std::string_view right_key) const;

  bool fires(const Table& left, size_t left_row, const Table& right,
             size_t right_row) const {
    return FiresOnKeys(LeftKey(left, left_row), RightKey(right, right_row));
  }
};

// --- Positive rule factories -------------------------------------------

// Fires when transform(left[left_attr]) == right[right_attr], both sides
// non-null/non-empty. With the AwardNumberSuffix transform this is exactly
// M1.
MatchRule MakeEqualityRule(const std::string& rule_name,
                           const std::string& left_attr,
                           const std::string& right_attr,
                           KeyTransform left_transform = nullptr,
                           KeyTransform right_transform = nullptr);

// M1: suffix of the UMETRICS UniqueAwardNumber equals the USDA AwardNumber.
MatchRule MakeM1AwardNumberRule(const std::string& left_award_attr,
                                const std::string& right_award_attr);

// §10 positive rule: UMETRICS award number (suffix) equals USDA project
// number.
MatchRule MakeAwardProjectNumberRule(const std::string& left_award_attr,
                                     const std::string& right_project_attr);

// Fires when LevenshteinSimilarity(transform(left), transform(right)) >=
// `min_sim`, both sides non-null/non-empty. The predicate short-circuits on
// the exact length bound (distance >= |length difference|, so a big length
// gap alone can rule the pair out with NO DP) and otherwise runs the banded
// bit-parallel kernel with an exact cutoff — the decision is identical to
// scoring the full similarity and comparing, just much cheaper on the
// non-matches that dominate rule scans.
MatchRule MakeLevenshteinRule(const std::string& rule_name,
                              const std::string& left_attr,
                              const std::string& right_attr, double min_sim,
                              KeyTransform left_transform = nullptr,
                              KeyTransform right_transform = nullptr);

// --- Negative rule factories -------------------------------------------

// §12 negative rule: fires (meaning NON-match) when the two attributes are
// pattern-comparable but unequal. Optional transforms mirror the positive
// rules.
MatchRule MakeComparableMismatchRule(const std::string& rule_name,
                                     const std::string& left_attr,
                                     const std::string& right_attr,
                                     KeyTransform left_transform = nullptr,
                                     KeyTransform right_transform = nullptr);

// --- Application helpers ------------------------------------------------

// Pairs of A × B where any rule fires, evaluated per rule over the whole
// cross product: kEqual rules are an EquiJoin (hash index over the right
// keys, probed in parallel); the other kinds compute each row's key once
// and scan left-row chunks against the right keys on the executor. A rule
// whose column is missing on either side yields no pairs. Equal at any
// thread count to testing rule.fires on every pair.
Result<CandidateSet> ApplyRulesCartesian(const std::vector<MatchRule>& rules,
                                         const Table& left, const Table& right,
                                         const ExecutorContext& ctx = {});

// Pairs of `pairs` where any rule fires.
Result<CandidateSet> ApplyRulesToPairs(const std::vector<MatchRule>& rules,
                                       const Table& left, const Table& right,
                                       const CandidateSet& pairs);

// Removes from `matches` every pair where any negative rule fires;
// `flipped` (optional) receives the removed pairs.
Result<CandidateSet> FilterWithNegativeRules(
    const std::vector<MatchRule>& negative_rules, const Table& left,
    const Table& right, const CandidateSet& matches,
    CandidateSet* flipped = nullptr);

}  // namespace emx

#endif  // EMX_RULES_MATCH_RULES_H_
