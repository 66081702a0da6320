#include "src/block/attr_equivalence_blocker.h"

#include <unordered_map>
#include <vector>

namespace emx {

std::string EquiJoinKey(const Value& v, const KeyTransform& transform) {
  if (v.is_null()) return {};
  std::string key = v.AsString();
  if (transform) return transform(key);
  return key;
}

CandidateSet EquiJoin(const std::vector<Value>& left_col,
                      const std::vector<Value>& right_col,
                      const KeyTransform& left_transform,
                      const KeyTransform& right_transform,
                      const ExecutorContext& ctx) {
  std::unordered_multimap<std::string, uint32_t> index;
  index.reserve(right_col.size() * 2);
  for (size_t r = 0; r < right_col.size(); ++r) {
    std::string key = EquiJoinKey(right_col[r], right_transform);
    if (key.empty()) continue;
    index.emplace(std::move(key), static_cast<uint32_t>(r));
  }

  std::vector<RecordPair> pairs = ctx.get().ParallelFlatMap(
      left_col.size(), /*grain=*/0,
      [&](size_t lo_row, size_t hi_row) {
        std::vector<RecordPair> out;
        for (size_t l = lo_row; l < hi_row; ++l) {
          std::string key = EquiJoinKey(left_col[l], left_transform);
          if (key.empty()) continue;
          auto [lo, hi] = index.equal_range(key);
          for (auto it = lo; it != hi; ++it) {
            out.push_back({static_cast<uint32_t>(l), it->second});
          }
        }
        return out;
      });
  return CandidateSet(std::move(pairs));
}

AttrEquivalenceBlocker::AttrEquivalenceBlocker(std::string left_attr,
                                               std::string right_attr,
                                               KeyTransform left_transform,
                                               KeyTransform right_transform)
    : left_attr_(std::move(left_attr)),
      right_attr_(std::move(right_attr)),
      left_transform_(std::move(left_transform)),
      right_transform_(std::move(right_transform)) {}

Result<CandidateSet> AttrEquivalenceBlocker::Block(
    const Table& left, const Table& right, const ExecutorContext& ctx) const {
  EMX_ASSIGN_OR_RETURN(const std::vector<Value>* lcol,
                       left.ColumnByName(left_attr_));
  EMX_ASSIGN_OR_RETURN(const std::vector<Value>* rcol,
                       right.ColumnByName(right_attr_));
  return EquiJoin(*lcol, *rcol, left_transform_, right_transform_, ctx);
}

}  // namespace emx
