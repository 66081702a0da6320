#ifndef EMX_TEXT_TOKEN_INTERNER_H_
#define EMX_TEXT_TOKEN_INTERNER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace emx {

// A non-owning view over a run of token ids inside a flat arena — the unit
// the allocation-free set-similarity kernels operate on. Spans produced by
// PreparedColumn are sorted ascending; they contain duplicates only when
// the producing tokenizer had unique() unset (set kernels deduplicate on
// the fly, so either way scores match the legacy string path exactly).
struct IdSpan {
  const uint32_t* data = nullptr;
  uint32_t size = 0;

  const uint32_t* begin() const { return data; }
  const uint32_t* end() const { return data + size; }
  bool empty() const { return size == 0; }
};

// Interns token strings into dense uint32_t ids (0, 1, 2, ... in first-seen
// order). Two tokens are equal iff their ids are equal, so set-similarity
// kernels compare 4-byte ids instead of hashing strings.
//
// Every downstream consumer is invariant to the id PERMUTATION (scores
// depend only on span sizes and intersection cardinalities; the similarity
// join orders tokens by (frequency, token string), not by id), so the same
// interner may be shared by caches filled in any order without affecting
// results. Interned strings are stored in a deque: references returned by
// TokenString() stay valid across later Intern() calls.
//
// Thread-safety: Intern(), Find() and size() need external serialization
// (PrepCache holds its mutex around them). TokenString() of an id the
// caller already holds may run concurrently with Intern(): the id → string
// table lives in fixed-size blocks behind an atomically published
// directory, so a reader never sees storage move.
class TokenInterner {
 public:
  TokenInterner() = default;
  TokenInterner(const TokenInterner&) = delete;
  TokenInterner& operator=(const TokenInterner&) = delete;

  // Returns the id of `token`, assigning the next dense id if unseen.
  uint32_t Intern(std::string_view token);

  // Id of `token` if already interned.
  std::optional<uint32_t> Find(std::string_view token) const;

  // The string for an id; reference stable for the interner's lifetime.
  const std::string& TokenString(uint32_t id) const {
    return *directory_.load(std::memory_order_acquire)[id >> kBlockBits]
                                                      [id & kBlockMask];
  }

  // Number of distinct tokens interned so far (== smallest unassigned id).
  size_t size() const { return strings_.size(); }

 private:
  using Block = const std::string*[];
  static constexpr uint32_t kBlockBits = 12;
  static constexpr uint32_t kBlockMask = (1u << kBlockBits) - 1;

  std::deque<std::string> strings_;  // id -> token; deque keeps refs stable
  std::unordered_map<std::string_view, uint32_t> ids_;  // views into strings_
  // id -> &strings_[id], 4096 ids per block. A full directory is copied
  // into one twice its size and republished; the old one stays alive for
  // readers that loaded it (it still covers every id they can hold).
  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<std::unique_ptr<const std::string**[]>> directories_;
  size_t directory_capacity_ = 0;
  std::atomic<const std::string* const* const*> directory_{nullptr};
};

}  // namespace emx

#endif  // EMX_TEXT_TOKEN_INTERNER_H_
