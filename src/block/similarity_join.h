#ifndef EMX_BLOCK_SIMILARITY_JOIN_H_
#define EMX_BLOCK_SIMILARITY_JOIN_H_

#include <memory>
#include <string>

#include "src/block/blocker.h"
// JaccardJoinBlocker is declared with the other token-join blockers.
#include "src/block/overlap_blocker.h"

namespace emx {

// Sorted-neighborhood blocker: sort both tables by a key expression and
// slide a window of size `window` over the merged order; records from
// opposite tables within a window become candidates. The classic
// alternative blocking family (surveyed in [7] of the paper).
class SortedNeighborhoodBlocker : public Blocker {
 public:
  SortedNeighborhoodBlocker(std::string left_attr, std::string right_attr,
                            size_t window, bool lowercase = true);

  using Blocker::Block;
  Result<CandidateSet> Block(const Table& left, const Table& right,
                             const ExecutorContext& ctx) const override;

  std::string name() const override {
    return "sorted_neighborhood(" + left_attr_ + ",w=" +
           std::to_string(window_) + ")";
  }

 private:
  std::string left_attr_;
  std::string right_attr_;
  size_t window_;
  bool lowercase_;
};

}  // namespace emx

#endif  // EMX_BLOCK_SIMILARITY_JOIN_H_
