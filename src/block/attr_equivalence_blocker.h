#ifndef EMX_BLOCK_ATTR_EQUIVALENCE_BLOCKER_H_
#define EMX_BLOCK_ATTR_EQUIVALENCE_BLOCKER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/block/blocker.h"

namespace emx {

// Maps an attribute value (as a string) to the key it is compared by; a
// null transform is the identity.
using KeyTransform = std::function<std::string(const std::string&)>;

// The comparison key of one cell: its string form (numbers formatted)
// through `transform`. "" means the cell has no key and never joins: the
// cell is null, or its transformed value is empty.
std::string EquiJoinKey(const Value& v, const KeyTransform& transform);

// All (l, r) with EquiJoinKey(left_col[l], left_transform) ==
// EquiJoinKey(right_col[r], right_transform), both keys non-empty. Builds a
// hash index over the right keys, then probes it with left-row chunks on
// the executor (the index is read-only while probing).
CandidateSet EquiJoin(const std::vector<Value>& left_col,
                      const std::vector<Value>& right_col,
                      const KeyTransform& left_transform,
                      const KeyTransform& right_transform,
                      const ExecutorContext& ctx = {});

// Attribute-equivalence (AE) blocker: a pair survives iff the (transformed)
// blocking attributes of both records are equal and non-null (§7 step 1).
//
// The paper's M1 rule compares the *suffix* of the UMETRICS award number
// with the full USDA award number; rather than materializing a temporary
// column the way the authors did, each side takes an optional transform
// applied to the attribute value before comparison.
class AttrEquivalenceBlocker : public Blocker {
 public:
  AttrEquivalenceBlocker(std::string left_attr, std::string right_attr,
                         KeyTransform left_transform = nullptr,
                         KeyTransform right_transform = nullptr);

  // NotFound when either attribute is not a column of its table.
  using Blocker::Block;
  Result<CandidateSet> Block(const Table& left, const Table& right,
                             const ExecutorContext& ctx) const override;

  std::string name() const override {
    return "ae(" + left_attr_ + "=" + right_attr_ + ")";
  }

 private:
  std::string left_attr_;
  std::string right_attr_;
  KeyTransform left_transform_;
  KeyTransform right_transform_;
};

}  // namespace emx

#endif  // EMX_BLOCK_ATTR_EQUIVALENCE_BLOCKER_H_
