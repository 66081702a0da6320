#include "src/block/similarity_join.h"

#include <algorithm>

#include "src/core/strings.h"

namespace emx {

SortedNeighborhoodBlocker::SortedNeighborhoodBlocker(std::string left_attr,
                                                     std::string right_attr,
                                                     size_t window,
                                                     bool lowercase)
    : left_attr_(std::move(left_attr)),
      right_attr_(std::move(right_attr)),
      window_(window == 0 ? 1 : window),
      lowercase_(lowercase) {}

Result<CandidateSet> SortedNeighborhoodBlocker::Block(
    const Table& left, const Table& right,
    const ExecutorContext& /*ctx*/) const {
  // Window sliding over one global sort order is inherently sequential;
  // this blocker runs on the calling thread regardless of executor.
  EMX_ASSIGN_OR_RETURN(const std::vector<Value>* lcol,
                       left.ColumnByName(left_attr_));
  EMX_ASSIGN_OR_RETURN(const std::vector<Value>* rcol,
                       right.ColumnByName(right_attr_));

  struct Entry {
    std::string key;
    uint32_t row;
    bool from_left;
  };
  std::vector<Entry> merged;
  merged.reserve(lcol->size() + rcol->size());
  auto add = [&](const std::vector<Value>& col, bool from_left) {
    for (size_t i = 0; i < col.size(); ++i) {
      if (col[i].is_null()) continue;
      std::string key = col[i].AsString();
      if (lowercase_) key = AsciiToLower(key);
      merged.push_back({std::move(key), static_cast<uint32_t>(i), from_left});
    }
  };
  add(*lcol, true);
  add(*rcol, false);
  std::sort(merged.begin(), merged.end(), [](const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.from_left != b.from_left) return a.from_left;
    return a.row < b.row;
  });

  std::vector<RecordPair> out;
  for (size_t i = 0; i < merged.size(); ++i) {
    size_t hi = std::min(merged.size(), i + window_);
    for (size_t j = i + 1; j < hi; ++j) {
      if (merged[i].from_left == merged[j].from_left) continue;
      const Entry& l = merged[i].from_left ? merged[i] : merged[j];
      const Entry& r = merged[i].from_left ? merged[j] : merged[i];
      out.push_back({l.row, r.row});
    }
  }
  return CandidateSet(std::move(out));
}

}  // namespace emx
