#include "src/rules/match_rules.h"

#include <utility>
#include <vector>

#include "src/rules/number_pattern.h"
#include "src/text/sequence_kernel.h"

namespace emx {

namespace {

// Every (l, r) the rule fires on, for the kinds a hash join cannot answer:
// the right keys are computed once, each left key once in its chunk.
CandidateSet ScanCrossProduct(const MatchRule& rule,
                              const std::vector<Value>& left_col,
                              const std::vector<Value>& right_col,
                              const ExecutorContext& ctx) {
  std::vector<std::string> right_keys;
  right_keys.reserve(right_col.size());
  for (const Value& v : right_col) {
    right_keys.push_back(EquiJoinKey(v, rule.right_transform));
  }
  std::vector<RecordPair> pairs = ctx.get().ParallelFlatMap(
      left_col.size(), /*grain=*/0, [&](size_t lo, size_t hi) {
        std::vector<RecordPair> out;
        for (size_t l = lo; l < hi; ++l) {
          std::string key = EquiJoinKey(left_col[l], rule.left_transform);
          for (size_t r = 0; r < right_keys.size(); ++r) {
            if (rule.FiresOnKeys(key, right_keys[r])) {
              out.push_back(
                  {static_cast<uint32_t>(l), static_cast<uint32_t>(r)});
            }
          }
        }
        return out;
      });
  return CandidateSet(std::move(pairs));
}

}  // namespace

bool MatchRule::FiresOnKeys(std::string_view left_key,
                            std::string_view right_key) const {
  if (left_key.empty() || right_key.empty()) return false;
  switch (kind) {
    case Kind::kEqual:
      return left_key == right_key;
    case Kind::kLevenshteinAtLeast:
      // Length-bound short-circuit + banded kernel: exactly
      // LevenshteinSimilarity(left_key, right_key) >= min_sim, without
      // computing the full distance for pairs the bound already rejects.
      return LevenshteinSimilarityAtLeast(left_key, right_key, min_sim);
    case Kind::kComparableMismatch:
      return ArePatternComparable(left_key, right_key) &&
             left_key != right_key;
  }
  return false;
}

MatchRule MakeEqualityRule(const std::string& rule_name,
                           const std::string& left_attr,
                           const std::string& right_attr,
                           KeyTransform left_transform,
                           KeyTransform right_transform) {
  return {rule_name, MatchRule::Kind::kEqual, left_attr, right_attr,
          std::move(left_transform), std::move(right_transform)};
}

MatchRule MakeM1AwardNumberRule(const std::string& left_award_attr,
                                const std::string& right_award_attr) {
  return MakeEqualityRule("M1_award_number", left_award_attr,
                          right_award_attr, AwardNumberSuffix);
}

MatchRule MakeAwardProjectNumberRule(const std::string& left_award_attr,
                                     const std::string& right_project_attr) {
  return MakeEqualityRule("M4_award_eq_project_number", left_award_attr,
                          right_project_attr, AwardNumberSuffix);
}

MatchRule MakeLevenshteinRule(const std::string& rule_name,
                              const std::string& left_attr,
                              const std::string& right_attr, double min_sim,
                              KeyTransform left_transform,
                              KeyTransform right_transform) {
  return {rule_name, MatchRule::Kind::kLevenshteinAtLeast, left_attr,
          right_attr, std::move(left_transform), std::move(right_transform),
          min_sim};
}

MatchRule MakeComparableMismatchRule(const std::string& rule_name,
                                     const std::string& left_attr,
                                     const std::string& right_attr,
                                     KeyTransform left_transform,
                                     KeyTransform right_transform) {
  return {rule_name, MatchRule::Kind::kComparableMismatch, left_attr,
          right_attr, std::move(left_transform), std::move(right_transform)};
}

Result<CandidateSet> ApplyRulesCartesian(const std::vector<MatchRule>& rules,
                                         const Table& left, const Table& right,
                                         const ExecutorContext& ctx) {
  std::vector<CandidateSet> fired;
  fired.reserve(rules.size());
  for (const MatchRule& rule : rules) {
    auto left_col = left.ColumnByName(rule.left_attr);
    auto right_col = right.ColumnByName(rule.right_attr);
    // A missing column gives every row of that side no key.
    if (!left_col.ok() || !right_col.ok()) continue;
    if (rule.kind == MatchRule::Kind::kEqual) {
      fired.push_back(EquiJoin(**left_col, **right_col, rule.left_transform,
                               rule.right_transform, ctx));
    } else {
      fired.push_back(ScanCrossProduct(rule, **left_col, **right_col, ctx));
    }
  }
  std::vector<const CandidateSet*> sets;
  for (const CandidateSet& s : fired) sets.push_back(&s);
  return CandidateSet::UnionAll(sets);
}

Result<CandidateSet> ApplyRulesToPairs(const std::vector<MatchRule>& rules,
                                       const Table& left, const Table& right,
                                       const CandidateSet& pairs) {
  std::vector<RecordPair> out;
  for (const RecordPair& p : pairs) {
    for (const MatchRule& rule : rules) {
      if (rule.fires(left, p.left, right, p.right)) {
        out.push_back(p);
        break;
      }
    }
  }
  return CandidateSet(std::move(out));
}

Result<CandidateSet> FilterWithNegativeRules(
    const std::vector<MatchRule>& negative_rules, const Table& left,
    const Table& right, const CandidateSet& matches, CandidateSet* flipped) {
  std::vector<RecordPair> kept, removed;
  for (const RecordPair& p : matches) {
    bool fired = false;
    for (const MatchRule& rule : negative_rules) {
      if (rule.fires(left, p.left, right, p.right)) {
        fired = true;
        break;
      }
    }
    (fired ? removed : kept).push_back(p);
  }
  if (flipped != nullptr) *flipped = CandidateSet(std::move(removed));
  return CandidateSet(std::move(kept));
}

}  // namespace emx
