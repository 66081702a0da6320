#ifndef EMX_BLOCK_OVERLAP_BLOCKER_H_
#define EMX_BLOCK_OVERLAP_BLOCKER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/block/blocker.h"
#include "src/prep/prepared_column.h"
#include "src/text/tokenizer.h"

namespace emx {

namespace internal_block {

// `keep(left_size, right_size, overlap)` decides whether a probed pair
// becomes a candidate; sizes are token counts (per-occurrence, i.e. set
// sizes under unique tokenizers).
using OverlapKeepFn = std::function<bool(size_t, size_t, size_t)>;

}  // namespace internal_block

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

// Overlap blocker: a pair survives iff its token sets share at least
// `min_overlap` tokens (§7 step 2, threshold K; K=3 in the paper).
//
// Implementation: both columns are prepped once into sorted token-id spans
// (via the shared PrepCache when one is installed), then the partitioned
// blocking engine streams right-table partitions — each carrying a flat
// CSR inverted index probed per left record into a dense per-record count
// array with a touched-list for sparse reset — within the options' memory
// budget; never the full Cartesian product, and no per-probe hashing or
// allocation. Left records with fewer than `min_overlap` tokens are pruned
// before probing (they cannot reach the threshold).
class OverlapBlocker : public Blocker {
 public:
  OverlapBlocker(OverlapBlockerOptions options, size_t min_overlap,
                 std::shared_ptr<Tokenizer> tokenizer = nullptr);

  using Blocker::Block;
  Result<CandidateSet> Block(const Table& left, const Table& right,
                             const ExecutorContext& ctx) const override;

  std::string name() const override;

  void set_prep_cache(std::shared_ptr<PrepCache> cache) override {
    prep_cache_ = std::move(cache);
  }

  // Configuration introspection (MatchService::Create replays the same
  // normalization, tokenizer, and keep predicate against its delta index).
  const OverlapBlockerOptions& options() const { return options_; }
  size_t min_overlap() const { return min_overlap_; }
  const std::shared_ptr<Tokenizer>& tokenizer() const { return tokenizer_; }

  // The join's keep predicate (overlap >= K), and the left token count
  // below which it cannot pass (K), so such records skip the probe.
  internal_block::OverlapKeepFn keep() const;
  size_t min_left_tokens() const { return min_overlap_; }

 private:
  OverlapBlockerOptions options_;
  size_t min_overlap_;
  std::shared_ptr<Tokenizer> tokenizer_;  // defaults to WhitespaceTokenizer
  std::shared_ptr<PrepCache> prep_cache_;  // optional, workflow-scoped
};

// Overlap-coefficient blocker: survives iff
// |A ∩ B| / min(|A|, |B|) >= threshold (§7 step 3; 0.7 in the paper).
// Unlike the raw-overlap blocker this admits very short titles.
class OverlapCoefficientBlocker : public Blocker {
 public:
  OverlapCoefficientBlocker(OverlapBlockerOptions options, double threshold,
                            std::shared_ptr<Tokenizer> tokenizer = nullptr);

  using Blocker::Block;
  Result<CandidateSet> Block(const Table& left, const Table& right,
                             const ExecutorContext& ctx) const override;

  std::string name() const override;

  void set_prep_cache(std::shared_ptr<PrepCache> cache) override {
    prep_cache_ = std::move(cache);
  }

  const OverlapBlockerOptions& options() const { return options_; }
  double threshold() const { return threshold_; }
  const std::shared_ptr<Tokenizer>& tokenizer() const { return tokenizer_; }

  // The join's keep predicate (overlap >= threshold * min(|A|, |B|), never
  // for an empty side), and its probe prune: only empty left rows.
  internal_block::OverlapKeepFn keep() const;
  size_t min_left_tokens() const { return 1; }

 private:
  OverlapBlockerOptions options_;
  double threshold_;
  std::shared_ptr<Tokenizer> tokenizer_;
  std::shared_ptr<PrepCache> prep_cache_;
};

namespace internal_block {

// Normalizes and tokenizes every value of `column` according to `options`.
// Legacy string-token representation — superseded by PrepCache in the hot
// path, kept as the equivalence oracle for tests and before/after benches.
std::vector<std::vector<std::string>> TokenizeColumn(
    const std::vector<Value>& column, const OverlapBlockerOptions& options,
    const Tokenizer& tokenizer);

// Legacy string-keyed overlap join (unordered_map inverted index,
// per-probe hashing). Equivalence oracle only.
CandidateSet OverlapJoinStrings(
    const std::vector<std::vector<std::string>>& left_tokens,
    const std::vector<std::vector<std::string>>& right_tokens,
    const OverlapKeepFn& keep, const ExecutorContext& ctx);

// Token-id overlap join over prepared columns sharing one interner: CSR
// inverted index over right-side ids, rare-token-first probes, dense count
// array + touched-list per chunk. Produces the identical candidate set to
// OverlapJoinStrings over the same tokenization.
CandidateSet OverlapJoinIds(const PreparedColumn& left,
                            const PreparedColumn& right,
                            const OverlapKeepFn& keep,
                            const ExecutorContext& ctx);

// PrepOptions equivalent of a blocker-options normalization.
inline PrepOptions ToPrepOptions(const OverlapBlockerOptions& options) {
  return {options.lowercase, options.strip_punctuation};
}

}  // namespace internal_block

}  // namespace emx

#endif  // EMX_BLOCK_OVERLAP_BLOCKER_H_
