#include "src/block/overlap_blocker.h"

#include <algorithm>
#include <unordered_map>

#include "src/block/partitioned_blocker.h"
#include "src/core/strings.h"

namespace emx {

namespace internal_block {

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

// Builds token -> list of right-record ids (legacy string-keyed form).
std::unordered_map<std::string, std::vector<uint32_t>> BuildInvertedIndex(
    const std::vector<std::vector<std::string>>& right_tokens) {
  std::unordered_map<std::string, std::vector<uint32_t>> index;
  size_t total = 0;
  for (const auto& tokens : right_tokens) total += tokens.size();
  // Most tokens repeat across records; half the posting count is a decent
  // distinct-token estimate that avoids the worst rehash cascades.
  index.reserve(total / 2 + 1);
  for (size_t r = 0; r < right_tokens.size(); ++r) {
    for (const auto& t : right_tokens[r]) {
      index[t].push_back(static_cast<uint32_t>(r));
    }
  }
  return index;
}

// CSR inverted index over token ids: postings_[offsets_[id] ..
// offsets_[id+1]) lists the right records containing id, in ascending
// record order (rows are scanned in order). Exact-size allocation, no
// per-token vectors.
struct IdIndex {
  std::vector<uint32_t> offsets;   // num_ids + 1
  std::vector<uint32_t> postings;  // right record ids

  explicit IdIndex(const PreparedColumn& right) {
    uint32_t num_ids = 0;
    for (size_t r = 0; r < right.rows(); ++r) {
      IdSpan s = right.ids(r);
      // Spans are sorted, so the last element is the row maximum.
      if (s.size > 0) num_ids = std::max(num_ids, s.data[s.size - 1] + 1);
    }
    offsets.assign(num_ids + 1, 0);
    for (size_t r = 0; r < right.rows(); ++r) {
      for (uint32_t id : right.ids(r)) ++offsets[id + 1];
    }
    for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
    postings.resize(offsets.back());
    std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
    for (size_t r = 0; r < right.rows(); ++r) {
      for (uint32_t id : right.ids(r)) {
        postings[fill[id]++] = static_cast<uint32_t>(r);
      }
    }
  }

  uint32_t num_ids() const {
    return static_cast<uint32_t>(offsets.size() - 1);
  }
  uint32_t frequency(uint32_t id) const {
    return id < num_ids() ? offsets[id + 1] - offsets[id] : 0;
  }
};

}  // namespace

// Legacy shared core: for every left record, counts shared tokens with each
// right record via the string inverted index, then keeps pairs passing
// `keep`. Retained as the equivalence oracle for the id-based join below.
CandidateSet OverlapJoinStrings(
    const std::vector<std::vector<std::string>>& left_tokens,
    const std::vector<std::vector<std::string>>& right_tokens,
    const OverlapKeepFn& keep, const ExecutorContext& ctx) {
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

// Id-based MONOLITHIC core: one index over the whole right table, probed
// by left records in parallel chunks. Per chunk, a dense uint32 count
// array (one slot per right record) replaces the per-probe hash map; the
// touched-list makes the reset proportional to candidates, not to the
// right table. Per-chunk pair vectors concatenate in chunk order before the
// (order-insensitive) CandidateSet canonicalization, so the result is
// identical at any thread count.
//
// Production blocking now routes through PartitionedOverlapJoin
// (partitioned_blocker.h), which bounds the working set to a memory
// budget; this single-partition form is RETAINED as the equivalence oracle
// for the partitioned engine's tests and before/after benches.
CandidateSet OverlapJoinIds(const PreparedColumn& left,
                            const PreparedColumn& right,
                            const OverlapKeepFn& keep,
                            const ExecutorContext& ctx) {
  IdIndex index(right);
  size_t num_right = right.rows();
  std::vector<RecordPair> pairs = ctx.get().ParallelFlatMap(
      left.rows(), /*grain=*/0,
      [&](size_t lo, size_t hi) {
        std::vector<RecordPair> out;
        std::vector<uint32_t> counts(num_right, 0);
        std::vector<uint32_t> touched;
        std::vector<uint32_t> probe;
        for (size_t l = lo; l < hi; ++l) {
          IdSpan ids = left.ids(l);
          probe.assign(ids.begin(), ids.end());
          // Rare tokens first: short postings fill the touched-list before
          // frequent tokens rescan mostly-warm slots.
          std::sort(probe.begin(), probe.end(),
                    [&index](uint32_t a, uint32_t b) {
                      uint32_t fa = index.frequency(a);
                      uint32_t fb = index.frequency(b);
                      if (fa != fb) return fa < fb;
                      return a < b;
                    });
          for (uint32_t id : probe) {
            if (id >= index.num_ids()) continue;
            for (uint32_t i = index.offsets[id]; i < index.offsets[id + 1];
                 ++i) {
              uint32_t r = index.postings[i];
              if (counts[r]++ == 0) touched.push_back(r);
            }
          }
          for (uint32_t r : touched) {
            if (keep(ids.size, right.ids(r).size, counts[r])) {
              out.push_back({static_cast<uint32_t>(l), r});
            }
            counts[r] = 0;
          }
          touched.clear();
        }
        return out;
      });
  return CandidateSet(std::move(pairs));
}

}  // namespace internal_block

namespace {

// Preps both join columns through the installed workflow cache, or a local
// one for standalone Block calls — either way both sides share one interner
// so their id spans are directly comparable.
struct PreparedPair {
  std::shared_ptr<const PreparedColumn> left;
  std::shared_ptr<const PreparedColumn> right;
};

PreparedPair PrepareJoinColumns(const std::vector<Value>& lcol,
                                const std::vector<Value>& rcol,
                                const OverlapBlockerOptions& options,
                                const Tokenizer& tokenizer,
                                const std::shared_ptr<PrepCache>& shared,
                                const ExecutorContext& ctx) {
  PrepCache local;
  PrepCache& cache = shared ? *shared : local;
  PrepOptions prep = internal_block::ToPrepOptions(options);
  return {cache.Get(lcol, prep, &tokenizer, ctx),
          cache.Get(rcol, prep, &tokenizer, ctx)};
}

}  // namespace

OverlapBlocker::OverlapBlocker(OverlapBlockerOptions options,
                               size_t min_overlap,
                               std::shared_ptr<Tokenizer> tokenizer)
    : options_(std::move(options)),
      min_overlap_(min_overlap),
      tokenizer_(tokenizer ? std::move(tokenizer)
                           : std::make_shared<WhitespaceTokenizer>()) {}

Result<CandidateSet> OverlapBlocker::Block(const Table& left,
                                           const Table& right,
                                           const ExecutorContext& ctx) const {
  EMX_ASSIGN_OR_RETURN(const std::vector<Value>* lcol,
                       left.ColumnByName(options_.left_attr));
  EMX_ASSIGN_OR_RETURN(const std::vector<Value>* rcol,
                       right.ColumnByName(options_.right_attr));
  PreparedPair p =
      PrepareJoinColumns(*lcol, *rcol, options_, *tokenizer_, prep_cache_, ctx);
  internal_block::BlockBudget budget;
  budget.mem_budget_bytes = options_.mem_budget_bytes;
  return internal_block::PartitionedOverlapJoin(
      *p.left, *p.right, keep(), min_left_tokens(), budget, ctx);
}

internal_block::OverlapKeepFn OverlapBlocker::keep() const {
  size_t k = min_overlap_;
  return [k](size_t, size_t, size_t overlap) { return overlap >= k; };
}

std::string OverlapBlocker::name() const {
  return "overlap(" + options_.left_attr + "," + tokenizer_->name() +
         ",K=" + std::to_string(min_overlap_) + ")";
}

OverlapCoefficientBlocker::OverlapCoefficientBlocker(
    OverlapBlockerOptions options, double threshold,
    std::shared_ptr<Tokenizer> tokenizer)
    : options_(std::move(options)),
      threshold_(threshold),
      tokenizer_(tokenizer ? std::move(tokenizer)
                           : std::make_shared<WhitespaceTokenizer>()) {}

Result<CandidateSet> OverlapCoefficientBlocker::Block(
    const Table& left, const Table& right, const ExecutorContext& ctx) const {
  EMX_ASSIGN_OR_RETURN(const std::vector<Value>* lcol,
                       left.ColumnByName(options_.left_attr));
  EMX_ASSIGN_OR_RETURN(const std::vector<Value>* rcol,
                       right.ColumnByName(options_.right_attr));
  PreparedPair p =
      PrepareJoinColumns(*lcol, *rcol, options_, *tokenizer_, prep_cache_, ctx);
  internal_block::BlockBudget budget;
  budget.mem_budget_bytes = options_.mem_budget_bytes;
  return internal_block::PartitionedOverlapJoin(
      *p.left, *p.right, keep(), min_left_tokens(), budget, ctx);
}

internal_block::OverlapKeepFn OverlapCoefficientBlocker::keep() const {
  double t = threshold_;
  return [t](size_t la, size_t lb, size_t overlap) {
    size_t mn = std::min(la, lb);
    if (mn == 0) return false;
    return static_cast<double>(overlap) >= t * static_cast<double>(mn);
  };
}

std::string OverlapCoefficientBlocker::name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", threshold_);
  return "overlap_coeff(" + options_.left_attr + "," + tokenizer_->name() +
         ",t=" + buf + ")";
}

}  // namespace emx
