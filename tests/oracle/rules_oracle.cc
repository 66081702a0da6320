#include "tests/oracle/rules_oracle.h"

namespace emx {
namespace oracle {

Result<CandidateSet> ApplyRulesCartesian(const std::vector<MatchRule>& rules,
                                         const Table& left,
                                         const Table& right) {
  std::vector<RecordPair> out;
  for (size_t l = 0; l < left.num_rows(); ++l) {
    for (size_t r = 0; r < right.num_rows(); ++r) {
      for (const MatchRule& rule : rules) {
        if (rule.fires(left, l, right, r)) {
          out.push_back({static_cast<uint32_t>(l), static_cast<uint32_t>(r)});
          break;
        }
      }
    }
  }
  return CandidateSet(std::move(out));
}

}  // namespace oracle
}  // namespace emx
