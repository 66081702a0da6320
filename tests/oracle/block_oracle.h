#ifndef EMX_TESTS_ORACLE_BLOCK_ORACLE_H_
#define EMX_TESTS_ORACLE_BLOCK_ORACLE_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/block/candidate_set.h"
#include "src/block/overlap_blocker.h"
#include "src/core/executor.h"
#include "src/table/value.h"
#include "src/text/tokenizer.h"

namespace emx {
namespace oracle {

// Normalizes (lowercase, strip punctuation, per `options`) and tokenizes
// every value of `column` into strings; a null cell has no tokens.
std::vector<std::vector<std::string>> TokenizeColumn(
    const std::vector<Value>& column, const OverlapBlockerOptions& options,
    const Tokenizer& tokenizer);

// keep(left_size, right_size, overlap), sizes being token counts.
using KeepFn = std::function<bool(size_t, size_t, size_t)>;

// The string token join every token-join suite compares against: a hash
// inverted index of right tokens, one per occurrence; for each left record
// every token occurrence bumps each posting's count, so a pair's overlap
// is sum_v mult_left(v)·mult_right(v) (the plain shared-token count under a
// unique tokenizer). Pairs sharing no token are never offered to `keep`.
CandidateSet OverlapJoinStrings(
    const std::vector<std::vector<std::string>>& left_tokens,
    const std::vector<std::vector<std::string>>& right_tokens,
    const KeepFn& keep, const ExecutorContext& ctx = {});

}  // namespace oracle
}  // namespace emx

#endif  // EMX_TESTS_ORACLE_BLOCK_ORACLE_H_
