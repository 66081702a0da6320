#include "src/block/partitioned_blocker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>

#include "src/core/logging.h"
#include "src/core/strings.h"
#include "src/text/set_similarity.h"

namespace emx {

Status TokenPredicate::Validate() const {
  if (kind == Kind::kOverlap) {
    if (!std::isfinite(threshold) || threshold < 1 ||
        threshold != std::floor(threshold)) {
      return Status::InvalidArgument(
          StrFormat("overlap blocker: K must be a positive integer (got %g)",
                    threshold));
    }
    return Status::OK();
  }
  if (!std::isfinite(threshold) || threshold <= 0 || threshold > 1) {
    return Status::InvalidArgument(StrFormat(
        "%s blocker: threshold must be in (0, 1] (got %g)",
        kind == Kind::kJaccard ? "jaccard" : "overlap coefficient",
        threshold));
  }
  return Status::OK();
}

size_t TokenPredicate::PrefixLength(size_t size) const {
  if (kind != Kind::kJaccard || size == 0) return size;
  size_t need =
      static_cast<size_t>(std::ceil(threshold * static_cast<double>(size)));
  return size - need + 1;
}

bool TokenPredicate::SizesCompatible(size_t x, size_t y) const {
  if (kind != Kind::kJaccard) return true;
  double xs = static_cast<double>(x);
  double ys = static_cast<double>(y);
  return !(ys < xs * threshold || ys > xs / threshold);
}

bool TokenPredicate::Keeps(size_t x, size_t y, size_t overlap) const {
  double o = static_cast<double>(overlap);
  switch (kind) {
    case Kind::kOverlap:
      return o >= threshold;
    case Kind::kCoefficient: {
      size_t mn = std::min(x, y);
      return mn > 0 && o >= threshold * static_cast<double>(mn);
    }
    case Kind::kJaccard: {
      size_t uni = x + y - overlap;
      return (uni == 0 ? 1.0 : o / static_cast<double>(uni)) >= threshold;
    }
  }
  return false;
}

namespace internal_block {

namespace {

// Working-set model, mirrored in DESIGN.md §11:
//   fixed per partition:  offsets (8B * (distinct_ids + 1))
//                         + build cursors (8B * distinct_ids, transient)
//   per partitioned row:  postings (4B * avg tokens/row)
//                         + probe counts (4B) + touched list (4B)
size_t FixedPartitionBytes(size_t distinct_ids) {
  return 16 * distinct_ids + 8;
}

size_t PerRowBytes(size_t right_rows, size_t token_occurrences) {
  size_t avg_tokens =
      right_rows == 0 ? 0 : (token_occurrences + right_rows - 1) / right_rows;
  return 4 * avg_tokens + 8;
}

// One side of the join: row r's tokens in join order. The count kinds read
// the prepared column's sorted spans in place; Jaccard reads a flat CSR of
// each row's distinct tokens as global ranks, ascending (rarest first).
struct JoinSide {
  const PreparedColumn* column = nullptr;
  std::vector<uint32_t> offsets;  // rows + 1, into ranks
  std::vector<uint32_t> ranks;

  size_t rows() const {
    return column != nullptr ? column->rows() : offsets.size() - 1;
  }
  IdSpan row(size_t r) const {
    if (column != nullptr) return column->ids(r);
    return {ranks.data() + offsets[r], offsets[r + 1] - offsets[r]};
  }
};

// Calls fn(id) once per distinct id of a sorted span.
template <typename Fn>
void ForEachDistinct(IdSpan s, const Fn& fn) {
  for (uint32_t i = 0; i < s.size; ++i) {
    if (i == 0 || s.data[i] != s.data[i - 1]) fn(s.data[i]);
  }
}

// Jaccard's token order, computed once per join: every id either side
// holds gets a rank by (records holding it over both sides, token string),
// and each row becomes its distinct ranks, ascending.
void RankDistinctTokens(const PreparedColumn& left,
                        const PreparedColumn& right, JoinSide* lside,
                        JoinSide* rside) {
  uint32_t num_ids = 0;
  for (const PreparedColumn* col : {&left, &right}) {
    for (size_t r = 0; r < col->rows(); ++r) {
      IdSpan s = col->ids(r);
      if (s.size > 0) num_ids = std::max(num_ids, s.data[s.size - 1] + 1);
    }
  }
  std::vector<size_t> freq(num_ids, 0);
  for (const PreparedColumn* col : {&left, &right}) {
    for (size_t r = 0; r < col->rows(); ++r) {
      ForEachDistinct(col->ids(r), [&](uint32_t id) { ++freq[id]; });
    }
  }
  std::vector<uint32_t> order;
  for (uint32_t id = 0; id < num_ids; ++id) {
    if (freq[id] > 0) order.push_back(id);
  }
  const TokenInterner& interner = left.interner();
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (freq[a] != freq[b]) return freq[a] < freq[b];
    return interner.TokenString(a) < interner.TokenString(b);
  });
  std::vector<uint32_t> rank(num_ids, 0);
  for (size_t i = 0; i < order.size(); ++i) {
    rank[order[i]] = static_cast<uint32_t>(i);
  }
  for (auto [col, side] : {std::pair{&left, lside}, std::pair{&right, rside}}) {
    side->offsets.assign(1, 0);
    side->offsets.reserve(col->rows() + 1);
    for (size_t r = 0; r < col->rows(); ++r) {
      size_t begin = side->ranks.size();
      ForEachDistinct(col->ids(r),
                      [&](uint32_t id) { side->ranks.push_back(rank[id]); });
      std::sort(side->ranks.begin() + begin, side->ranks.end());
      side->offsets.push_back(static_cast<uint32_t>(side->ranks.size()));
    }
  }
}

// CSR inverted index over the join prefixes of right rows [row_begin,
// row_end): postings[offsets[id] .. offsets[id+1]) lists the LOCAL offsets
// (row - row_begin) of the range's records whose prefix holds id,
// ascending. Offsets are 64-bit: at 1M x 1M scale a hot-token corpus can
// exceed 4B postings in the unbounded single-partition layout, and the
// cumulative sums here are exactly the counters a uint32 would wrap; local
// postings stay uint32 because a partition is row-bounded.
class RangeIdIndex {
 public:
  RangeIdIndex(const JoinSide& right, const TokenPredicate& predicate,
               size_t row_begin, size_t row_end) {
    uint32_t num_ids = 0;
    for (size_t r = row_begin; r < row_end; ++r) {
      IdSpan s = right.row(r);
      size_t p = predicate.PrefixLength(s.size);
      // Rows are sorted, so the prefix's last id is its maximum.
      if (p > 0) num_ids = std::max(num_ids, s.data[p - 1] + 1);
    }
    offsets_.assign(num_ids + 1, 0);
    for (size_t r = row_begin; r < row_end; ++r) {
      IdSpan s = right.row(r);
      size_t p = predicate.PrefixLength(s.size);
      for (size_t i = 0; i < p; ++i) ++offsets_[s.data[i] + 1];
    }
    for (size_t i = 1; i < offsets_.size(); ++i) {
      offsets_[i] += offsets_[i - 1];
    }
    postings_.resize(offsets_.back());
    std::vector<uint64_t> fill(offsets_.begin(), offsets_.end() - 1);
    for (size_t r = row_begin; r < row_end; ++r) {
      IdSpan s = right.row(r);
      size_t p = predicate.PrefixLength(s.size);
      for (size_t i = 0; i < p; ++i) {
        postings_[fill[s.data[i]]++] = static_cast<uint32_t>(r - row_begin);
      }
    }
  }

  uint32_t num_ids() const {
    return static_cast<uint32_t>(offsets_.size() - 1);
  }
  uint64_t frequency(uint32_t id) const {
    return id < num_ids() ? offsets_[id + 1] - offsets_[id] : 0;
  }
  const std::vector<uint64_t>& offsets() const { return offsets_; }
  const std::vector<uint32_t>& postings() const { return postings_; }

  // Actual bytes held, for budget accounting and the bench's peak report.
  size_t bytes() const {
    return offsets_.size() * sizeof(uint64_t) +
           postings_.size() * sizeof(uint32_t);
  }

 private:
  std::vector<uint64_t> offsets_;   // num_ids + 1
  std::vector<uint32_t> postings_;  // local right offsets in [0, range size)
};

}  // namespace

PartitionPlan PlanPartitions(size_t right_rows, size_t token_occurrences,
                             size_t distinct_ids, const BlockBudget& budget) {
  PartitionPlan plan;
  plan.rows_per_partition = std::max<size_t>(1, right_rows);
  plan.num_partitions = 1;
  size_t per_row = PerRowBytes(right_rows, token_occurrences);
  plan.estimated_partition_bytes =
      FixedPartitionBytes(distinct_ids) + right_rows * per_row;
  if (budget.mem_budget_bytes == 0 || right_rows == 0 ||
      plan.estimated_partition_bytes <= budget.mem_budget_bytes) {
    return plan;
  }
  size_t fixed = FixedPartitionBytes(distinct_ids);
  size_t min_rows = std::max<size_t>(1, budget.min_partition_rows);
  size_t rows;
  if (budget.mem_budget_bytes <= fixed) {
    // The id-space offset array alone exceeds the budget; partitioning
    // can't shrink it (ids are global), so degrade to the floor.
    EMX_LOG(Warning) << "block budget " << budget.mem_budget_bytes
                     << "B is below the fixed index cost (" << fixed
                     << "B for " << distinct_ids
                     << " token ids); using min_partition_rows";
    rows = min_rows;
  } else {
    rows = std::max(min_rows, (budget.mem_budget_bytes - fixed) / per_row);
  }
  rows = std::min(rows, right_rows);
  plan.rows_per_partition = rows;
  plan.num_partitions = (right_rows + rows - 1) / rows;
  plan.estimated_partition_bytes = fixed + rows * per_row;
  return plan;
}

Result<CandidateSet> TokenJoin(const PreparedColumn& left,
                               const PreparedColumn& right,
                               const TokenPredicate& predicate,
                               const BlockBudget& budget,
                               const ExecutorContext& ctx,
                               TokenJoinStats* stats) {
  EMX_RETURN_IF_ERROR(predicate.Validate());
  const bool verify = predicate.kind == TokenPredicate::Kind::kJaccard;
  JoinSide lside, rside;
  if (verify) {
    RankDistinctTokens(left, right, &lside, &rside);
  } else {
    lside.column = &left;
    rside.column = &right;
  }

  size_t indexed = 0;
  uint32_t distinct = 0;
  for (size_t r = 0; r < rside.rows(); ++r) {
    IdSpan s = rside.row(r);
    size_t p = predicate.PrefixLength(s.size);
    indexed += p;
    if (p > 0) distinct = std::max(distinct, s.data[p - 1] + 1);
  }
  PartitionPlan plan =
      PlanPartitions(rside.rows(), indexed, distinct, budget);
  TokenJoinStats local;
  if (stats == nullptr) stats = &local;
  *stats = TokenJoinStats{};
  stats->num_partitions = plan.num_partitions;
  const bool loud = lside.rows() >= 100000 || rside.rows() >= 100000;
  auto run_start = std::chrono::steady_clock::now();

  std::atomic<size_t> verified{0};
  std::vector<RecordPair> all;
  for (size_t part = 0; part < plan.num_partitions; ++part) {
    auto part_start = std::chrono::steady_clock::now();
    size_t lo = part * plan.rows_per_partition;
    size_t hi = std::min(rside.rows(), lo + plan.rows_per_partition);
    RangeIdIndex index(rside, predicate, lo, hi);
    size_t part_rows = hi - lo;
    std::vector<RecordPair> pairs = ctx.get().ParallelFlatMap(
        lside.rows(), /*grain=*/0,
        [&](size_t chunk_lo, size_t chunk_hi) {
          std::vector<RecordPair> out;
          std::vector<uint32_t> counts(part_rows, 0);
          std::vector<uint32_t> touched;
          std::vector<uint32_t> probe;
          size_t chunk_verified = 0;
          const auto& offsets = index.offsets();
          const auto& postings = index.postings();
          for (size_t l = chunk_lo; l < chunk_hi; ++l) {
            IdSpan x = lside.row(l);
            size_t p = predicate.PrefixLength(x.size);
            if (p == 0) continue;
            probe.assign(x.begin(), x.begin() + p);
            // Rare tokens first: short postings fill the touched-list
            // before frequent tokens rescan mostly-warm slots.
            std::sort(probe.begin(), probe.end(),
                      [&index](uint32_t a, uint32_t b) {
                        uint64_t fa = index.frequency(a);
                        uint64_t fb = index.frequency(b);
                        if (fa != fb) return fa < fb;
                        return a < b;
                      });
            for (uint32_t id : probe) {
              if (id >= index.num_ids()) continue;
              for (uint64_t i = offsets[id]; i < offsets[id + 1]; ++i) {
                uint32_t r = postings[i];
                if (counts[r]++ == 0) touched.push_back(r);
              }
            }
            for (uint32_t r : touched) {
              IdSpan y = rside.row(lo + r);
              size_t overlap = counts[r];
              counts[r] = 0;
              if (verify) {
                // Prefix counts are partial: filter by size, then merge
                // the two rank rows for the exact distinct overlap.
                if (!predicate.SizesCompatible(x.size, y.size)) continue;
                ++chunk_verified;
                overlap = OverlapSize(x, y);
              }
              if (predicate.Keeps(x.size, y.size, overlap)) {
                out.push_back({static_cast<uint32_t>(l),
                               static_cast<uint32_t>(lo + r)});
              }
            }
            touched.clear();
          }
          verified.fetch_add(chunk_verified, std::memory_order_relaxed);
          return out;
        });
    all.insert(all.end(), pairs.begin(), pairs.end());
    stats->partition_ms.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - part_start)
            .count());
    stats->peak_index_bytes = std::max(stats->peak_index_bytes, index.bytes());
    if (plan.num_partitions > 1) {
      double secs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - run_start)
                        .count();
      double rate = secs > 0 ? static_cast<double>((part + 1) * lside.rows()) /
                                   secs
                             : 0;
      if (loud) {
        EMX_LOG(Info) << "blocking: partition " << (part + 1) << "/"
                      << plan.num_partitions << " done ("
                      << StrFormat("%.0f", rate) << " probe records/s, "
                      << all.size() << " candidates so far)";
      } else {
        EMX_LOG(Debug) << "blocking: partition " << (part + 1) << "/"
                       << plan.num_partitions << " done (" << all.size()
                       << " candidates so far)";
      }
    }
  }
  stats->verified = verified.load();
  return CandidateSet(std::move(all));
}

}  // namespace internal_block
}  // namespace emx
