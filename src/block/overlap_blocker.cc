#include "src/block/overlap_blocker.h"

#include "src/core/strings.h"

namespace emx {

TokenJoinBlocker::TokenJoinBlocker(OverlapBlockerOptions options,
                                   TokenPredicate predicate,
                                   std::shared_ptr<Tokenizer> tokenizer)
    : options_(std::move(options)),
      predicate_(predicate),
      tokenizer_(tokenizer ? std::move(tokenizer)
                           : std::make_shared<WhitespaceTokenizer>()) {}

Result<CandidateSet> TokenJoinBlocker::Block(const Table& left,
                                             const Table& right,
                                             const ExecutorContext& ctx) const {
  return BlockWithStats(left, right, nullptr, ctx);
}

Result<CandidateSet> TokenJoinBlocker::BlockWithStats(
    const Table& left, const Table& right, TokenJoinStats* stats,
    const ExecutorContext& ctx) const {
  EMX_RETURN_IF_ERROR(predicate_.Validate());
  EMX_ASSIGN_OR_RETURN(const std::vector<Value>* lcol,
                       left.ColumnByName(options_.left_attr));
  EMX_ASSIGN_OR_RETURN(const std::vector<Value>* rcol,
                       right.ColumnByName(options_.right_attr));
  // Both columns go through one cache — the workflow's when installed,
  // else a call-local one — so their id spans share one interner.
  PrepCache local;
  PrepCache& cache = prep_cache_ ? *prep_cache_ : local;
  PrepOptions prep = internal_block::ToPrepOptions(options_);
  auto lp = cache.Get(*lcol, prep, tokenizer_.get(), ctx);
  auto rp = cache.Get(*rcol, prep, tokenizer_.get(), ctx);
  internal_block::BlockBudget budget;
  budget.mem_budget_bytes = options_.mem_budget_bytes;
  return internal_block::TokenJoin(*lp, *rp, predicate_, budget, ctx, stats);
}

OverlapBlocker::OverlapBlocker(OverlapBlockerOptions options,
                               size_t min_overlap,
                               std::shared_ptr<Tokenizer> tokenizer)
    : TokenJoinBlocker(std::move(options),
                       {TokenPredicate::Kind::kOverlap,
                        static_cast<double>(min_overlap)},
                       std::move(tokenizer)) {}

std::string OverlapBlocker::name() const {
  return "overlap(" + options().left_attr + "," + tokenizer()->name() +
         ",K=" + StrFormat("%.0f", predicate().threshold) + ")";
}

OverlapCoefficientBlocker::OverlapCoefficientBlocker(
    OverlapBlockerOptions options, double threshold,
    std::shared_ptr<Tokenizer> tokenizer)
    : TokenJoinBlocker(std::move(options),
                       {TokenPredicate::Kind::kCoefficient, threshold},
                       std::move(tokenizer)) {}

std::string OverlapCoefficientBlocker::name() const {
  return "overlap_coeff(" + options().left_attr + "," + tokenizer()->name() +
         StrFormat(",t=%.2f)", predicate().threshold);
}

JaccardJoinBlocker::JaccardJoinBlocker(OverlapBlockerOptions options,
                                       double threshold,
                                       std::shared_ptr<Tokenizer> tokenizer)
    : TokenJoinBlocker(std::move(options),
                       {TokenPredicate::Kind::kJaccard, threshold},
                       std::move(tokenizer)) {}

std::string JaccardJoinBlocker::name() const {
  return StrFormat("jaccard_join(%s,t=%.2f)", options().left_attr.c_str(),
                   predicate().threshold);
}

}  // namespace emx
