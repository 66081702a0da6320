#ifndef EMX_PREP_PREPARED_COLUMN_H_
#define EMX_PREP_PREPARED_COLUMN_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/executor.h"
#include "src/table/value.h"
#include "src/text/token_interner.h"
#include "src/text/tokenizer.h"

namespace emx {

// How a column is normalized (and optionally tokenized) before similarity
// scoring. Mirrors the two prep pipelines in the codebase: features
// lowercase only (feature.cc's Prep), blockers lowercase AND strip
// punctuation (OverlapBlockerOptions).
struct PrepOptions {
  bool lowercase = false;
  bool strip_punctuation = false;

  friend bool operator<(const PrepOptions& a, const PrepOptions& b) {
    if (a.lowercase != b.lowercase) return a.lowercase < b.lowercase;
    return a.strip_punctuation < b.strip_punctuation;
  }
};

// Rows of one column of one table, prepped ONCE: per row the normalized
// string, the token ids in tokenizer-emission order (first-occurrence
// order — the order the legacy per-pair path saw, so order-sensitive
// scorers like Monge-Elkan sum in the same order), and the same ids SORTED
// in a flat arena for the merge-based set kernels. Token ids come from the
// owning PrepCache's interner, so spans from any two columns of the same
// cache are directly comparable, and a token's string is read back through
// interner().
//
// A column holds either every row of its source (row r is source row r) or
// a subset (row k is the k-th requested source row); PrepCache builds both
// the same way. Immutable after construction; safe to read from any number
// of threads.
class PreparedColumn {
 public:
  // An empty column; PrepCache builds the real ones.
  PreparedColumn() = default;

  size_t rows() const { return null_.size(); }
  bool is_null(size_t row) const { return null_[row] != 0; }

  // The normalized string of a row ("" for null rows).
  std::string_view text(size_t row) const {
    return std::string_view(text_).substr(
        text_offsets_[row], text_offsets_[row + 1] - text_offsets_[row]);
  }

  // Sorted token-id span of a row (empty unless built with a tokenizer).
  IdSpan ids(size_t row) const {
    return {sorted_ids_.data() + token_offsets_[row],
            token_offsets_[row + 1] - token_offsets_[row]};
  }

  // Token ids of a row in tokenizer-EMISSION order; `*count` receives the
  // token count. interner().TokenString(id) is the token itself.
  const uint32_t* emission_ids(size_t row, size_t* count) const {
    *count = token_offsets_[row + 1] - token_offsets_[row];
    return emit_ids_.data() + token_offsets_[row];
  }

  // The interner that assigned the ids; columns from the same PrepCache
  // share it.
  const TokenInterner& interner() const { return *interner_; }

  bool tokenized() const { return tokenized_; }

 private:
  friend class PrepCache;

  bool tokenized_ = false;
  std::shared_ptr<const TokenInterner> interner_;
  std::vector<uint8_t> null_;
  std::string text_;                    // every row's text, concatenated
  std::vector<size_t> text_offsets_;    // rows+1
  std::vector<uint32_t> token_offsets_;  // rows+1, into both id arrays
  std::vector<uint32_t> emit_ids_;      // emission order per row
  std::vector<uint32_t> sorted_ids_;    // each row's run sorted
};

// Caches PreparedColumns keyed on (column identity, prep options,
// tokenizer), all sharing ONE TokenInterner so id spans from different
// columns — left vs right table, or columns requested by different
// blockers/features — intersect directly. Each record is prepped once per
// (column, prep config) no matter how many candidate pairs it appears in.
//
// Every build runs on the given executor in row chunks, with two-phase
// interning: each chunk tokenizes into a dictionary of its own, then one
// ordered merge — the only step under the cache mutex — moves the chunk
// dictionaries into the shared interner, and a parallel pass rewrites each
// row with the shared ids. Ids therefore come out in the serial first-seen
// order at any thread count. Columns of a few rows build inline on the
// caller without touching the executor.
//
// Thread-safety: every method is synchronized. Concurrent Get()s of one
// key build once (the others wait for it); Get()s of different keys build
// concurrently. Returned shared_ptrs stay valid across Clear().
//
// Invalidation contract: entries are keyed on the COLUMN'S STORAGE ADDRESS
// plus its row count, so a cache must not outlive the tables it prepped
// (EmWorkflow scopes its cache to itself and its tables; checkpoint/resume
// never persists the cache — prepped state is always rebuilt from live
// tables, see DESIGN.md §8).
class PrepCache {
 public:
  PrepCache() = default;
  PrepCache(const PrepCache&) = delete;
  PrepCache& operator=(const PrepCache&) = delete;

  // The prepared form of every row of `column` under (options, tokenizer),
  // built on first use. `tokenizer` may be null for text-only prep; its
  // name() and unique() flag identify it in the cache key.
  std::shared_ptr<const PreparedColumn> Get(const std::vector<Value>& column,
                                            const PrepOptions& options,
                                            const Tokenizer* tokenizer,
                                            const ExecutorContext& ctx = {});

  // Candidate-driven prep of the rows `rows` (ascending, distinct indices
  // into `column`): the cached full column when Get() already built one
  // (row r is source row r), else a fresh, uncached column in which row k
  // is source row rows[k]. Either way rows() == column.size() exactly when
  // rows are source rows.
  std::shared_ptr<const PreparedColumn> GetRows(
      const std::vector<Value>& column, const std::vector<uint32_t>& rows,
      const PrepOptions& options, const Tokenizer* tokenizer,
      const ExecutorContext& ctx = {});

  // Builds a PreparedColumn sharing THIS cache's interner without entering
  // it into the cache. For ephemeral columns — a serve-path query record,
  // a delta-ingested corpus segment — whose storage address may be reused
  // by a later, different column: caching them under an address key would
  // let a recycled address alias a dead entry, so they are prepped fresh
  // while still interning into the shared id universe (spans remain
  // directly comparable with every cached column).
  std::shared_ptr<const PreparedColumn> PrepUncached(
      const std::vector<Value>& column, const PrepOptions& options,
      const Tokenizer* tokenizer, const ExecutorContext& ctx = {});

  // Drops all cache entries (outstanding shared_ptrs stay alive). The
  // interner and its id assignments are retained. Must not run concurrently
  // with a Get() consumer that is still pairing up spans.
  void Clear();

  // Introspection for tests/benches.
  size_t entries() const;
  size_t interned_tokens() const;

 private:
  struct Key {
    const void* column;  // column storage address
    size_t rows;
    PrepOptions options;
    std::string tokenizer_key;  // "" when untokenized

    friend bool operator<(const Key& a, const Key& b) {
      if (a.column != b.column) return a.column < b.column;
      if (a.rows != b.rows) return a.rows < b.rows;
      if (a.options < b.options || b.options < a.options)
        return a.options < b.options;
      return a.tokenizer_key < b.tokenizer_key;
    }
  };
  using Entry = std::shared_future<std::shared_ptr<const PreparedColumn>>;

  static Key MakeKey(const std::vector<Value>& column,
                     const PrepOptions& options, const Tokenizer* tokenizer);

  // Preps `rows` of `column` (every row when null): the chunked two-phase
  // build described above.
  std::shared_ptr<const PreparedColumn> Build(
      const std::vector<Value>& column, const std::vector<uint32_t>* rows,
      const PrepOptions& options, const Tokenizer* tokenizer,
      const ExecutorContext& ctx);

  mutable std::mutex mu_;
  std::shared_ptr<TokenInterner> interner_ = std::make_shared<TokenInterner>();
  std::map<Key, Entry> cache_;
};

}  // namespace emx

#endif  // EMX_PREP_PREPARED_COLUMN_H_
