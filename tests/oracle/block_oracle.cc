#include "tests/oracle/block_oracle.h"

#include <unordered_map>

#include "src/core/strings.h"

namespace emx {
namespace oracle {

std::vector<std::vector<std::string>> TokenizeColumn(
    const std::vector<Value>& column, const OverlapBlockerOptions& options,
    const Tokenizer& tokenizer) {
  std::vector<std::vector<std::string>> out;
  out.reserve(column.size());
  for (const Value& v : column) {
    if (v.is_null()) {
      out.emplace_back();
      continue;
    }
    std::string s = v.AsString();
    if (options.lowercase) s = AsciiToLower(s);
    if (options.strip_punctuation) s = StripPunctuation(s);
    out.push_back(tokenizer.Tokenize(s));
  }
  return out;
}

namespace {

// Token -> right-record ids, one entry per occurrence.
std::unordered_map<std::string, std::vector<uint32_t>> BuildInvertedIndex(
    const std::vector<std::vector<std::string>>& right_tokens) {
  std::unordered_map<std::string, std::vector<uint32_t>> index;
  for (size_t r = 0; r < right_tokens.size(); ++r) {
    for (const auto& t : right_tokens[r]) {
      index[t].push_back(static_cast<uint32_t>(r));
    }
  }
  return index;
}

}  // namespace

CandidateSet OverlapJoinStrings(
    const std::vector<std::vector<std::string>>& left_tokens,
    const std::vector<std::vector<std::string>>& right_tokens,
    const KeepFn& keep, const ExecutorContext& ctx) {
  auto index = BuildInvertedIndex(right_tokens);
  std::vector<RecordPair> pairs = ctx.get().ParallelFlatMap(
      left_tokens.size(), /*grain=*/0,
      [&](size_t lo, size_t hi) {
        std::vector<RecordPair> out;
        std::unordered_map<uint32_t, size_t> counts;
        for (size_t l = lo; l < hi; ++l) {
          counts.clear();
          for (const auto& t : left_tokens[l]) {
            auto it = index.find(t);
            if (it == index.end()) continue;
            for (uint32_t r : it->second) ++counts[r];
          }
          for (const auto& [r, overlap] : counts) {
            if (keep(left_tokens[l].size(), right_tokens[r].size(), overlap)) {
              out.push_back({static_cast<uint32_t>(l), r});
            }
          }
        }
        return out;
      });
  return CandidateSet(std::move(pairs));
}

}  // namespace oracle
}  // namespace emx
