#ifndef EMX_BLOCK_DELTA_INDEX_H_
#define EMX_BLOCK_DELTA_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/text/token_interner.h"

namespace emx {

// Mutable token inverted index for the resident MatchService: a CSR
// snapshot over the records live at the last compaction, plus per-token
// delta posting lists for records added since, plus a tombstone bitmap for
// deletes. Lookups probe snapshot + delta and filter tombstones at emit,
// so at EVERY compaction state a probe sees exactly the live record set —
// bit-identical to a from-scratch rebuild (the property the fuzz test in
// tests/delta_index_property_test.cc asserts after every op).
//
// Probe semantics match the count kinds of internal_block::TokenJoin
// (full-span index and probe): posting lists are PER-OCCURRENCE (a record
// holding token t k times contributes k postings for t), and every
// occurrence of t in the query counts each posting, so the emitted overlap
// is sum_v mult_query(v) * mult_record(v). TokenPredicate::Keeps (overlap
// >= K, coefficient thresholds) layers on top exactly as it does over the
// batch CSR index.
//
// Record ids are dense, assigned by Add in arrival order, and stable for
// the index's lifetime — tombstoned ids are never reused, so candidate
// pairs referencing them stay meaningful across compactions.
//
// Thread-safety: Probe is const and takes caller-owned scratch, so any
// number of concurrent probes are safe against each other. Mutations
// (Add/Remove/Compact) require external exclusion against probes AND each
// other (MatchService holds a shared_mutex: lookups shared, ingest
// unique).
class DeltaTokenIndex {
 public:
  // Compaction folds deltas + tombstones back into the CSR snapshot when
  // delta_postings() + dead_postings() exceeds `compact_threshold` (checked
  // after each Add/Remove). 0 disables auto-compaction (manual Compact()
  // only — what the property test uses to hit every interleaving point).
  explicit DeltaTokenIndex(size_t compact_threshold = 4096)
      : compact_threshold_(compact_threshold) {}

  // Bulk-load idiom: build with threshold 0, Add every base record, call
  // Compact() once, then restore the serving threshold — avoids the
  // O(n²/threshold) re-compaction cascade a naive bulk Add would trigger.
  void set_compact_threshold(size_t t) { compact_threshold_ = t; }

  DeltaTokenIndex(const DeltaTokenIndex&) = delete;
  DeltaTokenIndex& operator=(const DeltaTokenIndex&) = delete;

  // Registers a record whose token ids are `sorted_ids` (sorted, duplicates
  // preserved — exactly PreparedColumn::ids form) and returns its id.
  uint32_t Add(IdSpan sorted_ids);

  // Tombstones a live record; its postings stop being emitted immediately
  // and are physically dropped at the next compaction. No-op if already
  // dead.
  void Remove(uint32_t record);

  // Rebuilds the CSR snapshot over the live record set and clears deltas
  // and tombstone debt. Probe results are unchanged by construction.
  void Compact();

  size_t rows() const { return offsets_.size() - 1; }
  size_t live_rows() const { return live_rows_; }
  bool live(uint32_t record) const { return live_[record] != 0; }
  IdSpan record_ids(uint32_t record) const {
    return {arena_.data() + offsets_[record],
            static_cast<uint32_t>(offsets_[record + 1] - offsets_[record])};
  }

  // Maintenance counters (bench_serve exports these; tests assert
  // compaction actually triggered).
  uint64_t delta_postings() const { return delta_postings_; }
  uint64_t dead_postings() const { return dead_postings_; }
  uint64_t compactions() const { return compactions_; }
  size_t snapshot_rows() const { return snapshot_rows_; }

  // Dense per-record overlap counters + touched list, owned by the prober
  // so concurrent Probes never share state. Reset cost is proportional to
  // records actually touched, not to corpus size.
  struct ProbeScratch {
    std::vector<uint32_t> counts;
    std::vector<uint32_t> touched;
    std::vector<uint32_t> probe;  // query ids, rare-token-first
  };

  // Calls emit(record, overlap) for every LIVE record sharing at least one
  // token occurrence with `query` (sorted ids, duplicates preserved), in
  // ascending record-id order. `overlap` is the per-occurrence multiset
  // overlap described above.
  template <typename Emit>
  void Probe(IdSpan query, ProbeScratch* scratch, Emit&& emit) const {
    scratch->counts.resize(rows(), 0);
    scratch->touched.clear();
    // Rare-token-first (by snapshot frequency): short posting lists fill
    // the touched-list before frequent tokens rescan mostly-warm slots.
    // Pure probe-order optimization — counts are order-invariant.
    scratch->probe.assign(query.begin(), query.end());
    std::sort(scratch->probe.begin(), scratch->probe.end(),
              [this](uint32_t a, uint32_t b) {
                uint64_t fa = SnapshotFrequency(a);
                uint64_t fb = SnapshotFrequency(b);
                if (fa != fb) return fa < fb;
                return a < b;
              });
    for (uint32_t id : scratch->probe) {
      if (id < csr_tokens_) {
        for (uint64_t p = csr_offsets_[id]; p < csr_offsets_[id + 1]; ++p) {
          uint32_t r = csr_postings_[p];
          if (scratch->counts[r]++ == 0) scratch->touched.push_back(r);
        }
      }
      if (id < delta_.size()) {
        for (uint32_t r : delta_[id]) {
          if (scratch->counts[r]++ == 0) scratch->touched.push_back(r);
        }
      }
    }
    // Ascending-id emit keeps downstream candidate lists deterministic
    // regardless of posting layout (snapshot vs delta) — part of the
    // rebuild-equivalence contract.
    std::sort(scratch->touched.begin(), scratch->touched.end());
    for (uint32_t r : scratch->touched) {
      uint32_t overlap = scratch->counts[r];
      scratch->counts[r] = 0;
      if (live_[r]) emit(r, overlap);
    }
  }

 private:
  uint64_t SnapshotFrequency(uint32_t id) const {
    if (id >= csr_tokens_) return 0;
    return csr_offsets_[id + 1] - csr_offsets_[id];
  }

  void MaybeCompact();

  size_t compact_threshold_;

  // All records ever added, id-indexed (tombstoned rows keep their ids).
  std::vector<uint32_t> arena_;     // flat sorted-id runs
  std::vector<uint64_t> offsets_ = {0};  // rows+1
  std::vector<uint8_t> live_;
  size_t live_rows_ = 0;

  // CSR snapshot: postings of records live at the last compaction (ids are
  // < snapshot_rows_; some may have died since — filtered at emit).
  size_t snapshot_rows_ = 0;
  uint32_t csr_tokens_ = 0;
  std::vector<uint64_t> csr_offsets_ = {0};
  std::vector<uint32_t> csr_postings_;

  // Per-token postings of records added after the snapshot, append-ordered
  // (record ids ascend within each list by construction).
  std::vector<std::vector<uint32_t>> delta_;

  uint64_t delta_postings_ = 0;
  uint64_t dead_postings_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace emx

#endif  // EMX_BLOCK_DELTA_INDEX_H_
