#ifndef EMX_TESTS_ORACLE_RULES_ORACLE_H_
#define EMX_TESTS_ORACLE_RULES_ORACLE_H_

#include <vector>

#include "src/block/candidate_set.h"
#include "src/core/result.h"
#include "src/rules/match_rules.h"
#include "src/table/table.h"

namespace emx {
namespace oracle {

// The per-pair definition of ApplyRulesCartesian: every pair of A × B, in
// order, kept when rule.fires holds for any rule. The per-kind join and
// scan in production must return the same set.
Result<CandidateSet> ApplyRulesCartesian(const std::vector<MatchRule>& rules,
                                         const Table& left,
                                         const Table& right);

}  // namespace oracle
}  // namespace emx

#endif  // EMX_TESTS_ORACLE_RULES_ORACLE_H_
