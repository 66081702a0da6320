#ifndef EMX_BLOCK_OVERLAP_BLOCKER_H_
#define EMX_BLOCK_OVERLAP_BLOCKER_H_

#include <memory>
#include <string>

#include "src/block/blocker.h"
#include "src/block/partitioned_blocker.h"
#include "src/prep/prepared_column.h"
#include "src/text/tokenizer.h"

namespace emx {

// Shared options for token-overlap-style blockers: which attribute to
// tokenize and how to normalize it first (the paper lowercases and strips
// special characters before overlap blocking, §7 steps 2-3).
struct OverlapBlockerOptions {
  std::string left_attr;
  std::string right_attr;
  bool lowercase = true;
  bool strip_punctuation = true;

  // Peak working-set budget for the blocking index + probe scratch, in
  // bytes (the CLI's --block-mem-budget). 0 = unbounded: a single partition
  // covering the whole right table. Any positive value routes the join
  // through the partitioned engine (see partitioned_blocker.h); the
  // candidate set is bit-identical at every budget.
  size_t mem_budget_bytes = 0;
};

// The token-join blockers: both join columns are prepped once into sorted
// token-id spans (via the shared PrepCache when one is installed), then
// internal_block::TokenJoin runs the blocker's TokenPredicate over them
// within the options' memory budget — never the full Cartesian product.
// The subclasses only pick the predicate and the name.
class TokenJoinBlocker : public Blocker {
 public:
  using Blocker::Block;
  // InvalidArgument when the predicate does not validate (K = 0, or a
  // threshold that is not finite or outside (0, 1]); NotFound for a
  // missing attribute.
  Result<CandidateSet> Block(const Table& left, const Table& right,
                             const ExecutorContext& ctx) const override;

  // As Block, also filling `stats` (may be null) — partitions, peak index
  // bytes, per-partition times, and Jaccard's verified-pair count.
  Result<CandidateSet> BlockWithStats(const Table& left, const Table& right,
                                      TokenJoinStats* stats,
                                      const ExecutorContext& ctx = {}) const;

  void set_prep_cache(std::shared_ptr<PrepCache> cache) override {
    prep_cache_ = std::move(cache);
  }

  // Configuration introspection (MatchService::Create replays the same
  // normalization, tokenizer, and predicate against its delta index).
  const OverlapBlockerOptions& options() const { return options_; }
  const std::shared_ptr<Tokenizer>& tokenizer() const { return tokenizer_; }
  const TokenPredicate& predicate() const { return predicate_; }

 protected:
  TokenJoinBlocker(OverlapBlockerOptions options, TokenPredicate predicate,
                   std::shared_ptr<Tokenizer> tokenizer);

 private:
  OverlapBlockerOptions options_;
  TokenPredicate predicate_;
  std::shared_ptr<Tokenizer> tokenizer_;   // defaults to WhitespaceTokenizer
  std::shared_ptr<PrepCache> prep_cache_;  // optional, workflow-scoped
};

// Overlap blocker: a pair survives iff its token sets share at least
// `min_overlap` tokens (§7 step 2, threshold K; K=3 in the paper).
class OverlapBlocker : public TokenJoinBlocker {
 public:
  OverlapBlocker(OverlapBlockerOptions options, size_t min_overlap,
                 std::shared_ptr<Tokenizer> tokenizer = nullptr);

  std::string name() const override;
};

// Overlap-coefficient blocker: survives iff
// |A ∩ B| / min(|A|, |B|) >= threshold (§7 step 3; 0.7 in the paper).
// Unlike the raw-overlap blocker this admits very short titles.
class OverlapCoefficientBlocker : public TokenJoinBlocker {
 public:
  OverlapCoefficientBlocker(OverlapBlockerOptions options, double threshold,
                            std::shared_ptr<Tokenizer> tokenizer = nullptr);

  std::string name() const override;
};

// Jaccard similarity-join blocker with prefix filtering — the string-
// filtering machinery footnote 4 alludes to ("PyMatcher's blocking methods
// use string filtering techniques where appropriate"). A pair survives iff
// jaccard(tokens(a), tokens(b)) >= threshold over distinct tokens; each
// record indexes and probes only its prefix under a global rarest-first
// token order, and candidates sharing a prefix token are verified exactly.
class JaccardJoinBlocker : public TokenJoinBlocker {
 public:
  JaccardJoinBlocker(OverlapBlockerOptions options, double threshold,
                     std::shared_ptr<Tokenizer> tokenizer = nullptr);

  std::string name() const override;
};

namespace internal_block {

// PrepOptions equivalent of a blocker-options normalization.
inline PrepOptions ToPrepOptions(const OverlapBlockerOptions& options) {
  return {options.lowercase, options.strip_punctuation};
}

}  // namespace internal_block

}  // namespace emx

#endif  // EMX_BLOCK_OVERLAP_BLOCKER_H_
