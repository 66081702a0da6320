#ifndef EMX_BLOCK_PARTITIONED_BLOCKER_H_
#define EMX_BLOCK_PARTITIONED_BLOCKER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/block/candidate_set.h"
#include "src/core/executor.h"
#include "src/core/result.h"
#include "src/core/status.h"
#include "src/prep/prepared_column.h"

namespace emx {

// The survival rule of a token-join blocker, as plain data: which of the
// paper's three token predicates (§7: overlap K, overlap coefficient t;
// footnote 4: Jaccard t) and its threshold. Sizes are token counts of the
// two records and `overlap` their shared-token count, in the join's
// semantics:
//  - overlap and coefficient count PER OCCURRENCE: a record's size is its
//    token count with duplicates, and a shared token v adds
//    mult_x(v)·mult_y(v) to the overlap (identical to set semantics under a
//    unique tokenizer);
//  - Jaccard is a SET measure: sizes are distinct-token counts and the
//    overlap is the distinct intersection, whatever the tokenizer.
struct TokenPredicate {
  enum class Kind { kOverlap, kCoefficient, kJaccard };

  Kind kind = Kind::kOverlap;
  // K for kOverlap (a positive integer); t in (0, 1] otherwise.
  double threshold = 3;

  // InvalidArgument for K that is not a positive integer, or t that is not
  // finite or lies outside (0, 1].
  Status Validate() const;

  // How many of a record's tokens, in the join's token order, it indexes
  // and probes with. The count kinds use the full span (their overlap is
  // counted exactly); Jaccard uses its prefix |x| - ceil(t·|x|) + 1, since
  // any pair reaching t shares a token among those (Bayardo et al., WWW
  // 2007). 0 for an empty record, which never pairs. Requires Validate().
  size_t PrefixLength(size_t size) const;

  // The size filter: false when no overlap can make sizes x and y pass —
  // Jaccard needs x·t <= y <= x/t; the count kinds admit every size.
  bool SizesCompatible(size_t x, size_t y) const;

  // Whether a pair with sizes x, y and `overlap` shared tokens survives:
  // overlap >= K; overlap >= t·min(x, y) with neither side empty; or
  // overlap / (x + y - overlap) >= t, bit-identical to JaccardSimilarity.
  bool Keeps(size_t x, size_t y, size_t overlap) const;
};

// Per-join observability: the partition count, the peak index working
// set, per-partition wall times (p50/p99 in BENCH_scale.json), and the
// candidate pairs Jaccard merge-verified after its size filter (0 for the
// count kinds, which never verify).
struct TokenJoinStats {
  size_t num_partitions = 0;
  size_t peak_index_bytes = 0;
  std::vector<double> partition_ms;
  size_t verified = 0;
};

namespace internal_block {

// Out-of-core candidate generation: the right table is split into record
// partitions sized so one partition's CSR inverted index — plus the dense
// per-right-record count/touched working set — fits a caller-supplied
// memory budget. Partitions are indexed and probed one at a time (probing
// parallelizes over left-table chunks on the executor); per-partition pair
// vectors concatenate in partition order before the order-insensitive
// CandidateSet canonicalization, so the output is BIT-IDENTICAL at any
// budget, partition size, and thread count: whether a pair (l, r) survives
// depends only on the two records' token spans, never on which partition
// r landed in.
struct BlockBudget {
  // Peak working-set bytes for the index + probe scratch. 0 = unbounded:
  // one partition covering the whole right table (the monolithic layout).
  size_t mem_budget_bytes = 0;

  // Partition-size floor. A budget smaller than the per-partition fixed
  // cost (the id-space offset array) degrades to this many rows per
  // partition rather than failing — logged, not fatal.
  size_t min_partition_rows = 1024;
};

struct PartitionPlan {
  size_t rows_per_partition = 0;  // == right rows when num_partitions == 1
  size_t num_partitions = 1;
  // The estimate the plan was derived from, for logging/bench reporting.
  size_t estimated_partition_bytes = 0;
};

// Derives the plan from the right side's shape: `right_rows` records
// carrying `token_occurrences` indexed postings over `distinct_ids` token
// ids. Deterministic — depends only on these sizes and the budget (NOT the
// thread count), so a given (corpus, budget) always partitions identically.
PartitionPlan PlanPartitions(size_t right_rows, size_t token_occurrences,
                             size_t distinct_ids, const BlockBudget& budget);

// The one token join behind the overlap, coefficient and Jaccard blockers.
// Both columns must come from one PrepCache (one interner).
//  - Overlap and coefficient index and probe full sorted spans into a
//    dense per-right-record count array, so every touched pair's overlap
//    is exact and `predicate.Keeps` decides it directly.
//  - Jaccard orders each record's distinct tokens by one global rank
//    (ascending frequency over both sides, ties by token string, so the
//    order never depends on scheduling-dependent ids), indexes and probes
//    prefixes only, and verifies each touched pair that passes the size
//    filter with the id-span merge.
// InvalidArgument when the predicate does not validate. `stats` may be
// null.
Result<CandidateSet> TokenJoin(const PreparedColumn& left,
                               const PreparedColumn& right,
                               const TokenPredicate& predicate,
                               const BlockBudget& budget,
                               const ExecutorContext& ctx,
                               TokenJoinStats* stats = nullptr);

}  // namespace internal_block
}  // namespace emx

#endif  // EMX_BLOCK_PARTITIONED_BLOCKER_H_
