#include "src/prep/prepared_column.h"

#include <algorithm>
#include <functional>

namespace emx {

namespace {

// Rows per build chunk, at least. Smaller columns — a query record, an
// inserted record, a handful of labelled pairs — build as one chunk inline
// on the caller.
constexpr size_t kMinChunkRows = 1024;

// Makes room for `need` elements, at least doubling, so a one-row build
// allocates each buffer once and a long chunk grows geometrically.
template <typename Container>
void Grow(Container& c, size_t need) {
  if (need > c.capacity()) c.reserve(std::max(need, 2 * c.capacity()));
}

// A chunk's private token dictionary: strings packed in first-seen order
// with an open-addressing index over them. Local ids are dense, so
// per-row uniqueness is a stamp array lookup, not a string set.
class LocalDict {
 public:
  // Room for `tokens` more tokens of `chars` bytes in all.
  void Reserve(size_t tokens, size_t chars) {
    Grow(chars_, chars_.size() + chars);
    Grow(ends_, ends_.size() + tokens);
    if (2 * (ends_.size() + tokens) > slots_.size()) {
      size_t want = std::max<size_t>(16, slots_.size());
      while (2 * (ends_.size() + tokens) > want) want *= 2;
      Rehash(want);
    }
  }

  uint32_t Intern(std::string_view token) {
    if (2 * (ends_.size() + 1) > slots_.size()) Reserve(1, token.size());
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(token) & mask;; i = (i + 1) & mask) {
      const uint32_t slot = slots_[i];
      if (slot == 0) {
        chars_.append(token);
        ends_.push_back(static_cast<uint32_t>(chars_.size()));
        slots_[i] = static_cast<uint32_t>(ends_.size());
        return slots_[i] - 1;
      }
      if (Token(slot - 1) == token) return slot - 1;
    }
  }

  size_t size() const { return ends_.size(); }

  std::string_view Token(uint32_t id) const {
    const uint32_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(chars_).substr(begin, ends_[id] - begin);
  }

 private:
  static size_t Hash(std::string_view s) {
    return std::hash<std::string_view>{}(s);
  }

  void Rehash(size_t capacity) {
    slots_.assign(capacity, 0);
    const size_t mask = capacity - 1;
    for (uint32_t id = 0; id < ends_.size(); ++id) {
      size_t i = Hash(Token(id)) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = id + 1;
    }
  }

  std::string chars_;
  std::vector<uint32_t> ends_;   // token id's end offset in chars_
  std::vector<uint32_t> slots_;  // id + 1, 0 = empty; power-of-two sized
};

// Phase 1 output of one chunk of rows, laid out like a PreparedColumn of
// just those rows but with ids local to the chunk's dictionary.
struct Chunk {
  size_t begin = 0, end = 0;  // row range of the column being built
  std::string text;
  std::vector<size_t> text_offsets;      // rows+1, into text
  std::vector<uint32_t> token_offsets;   // rows+1, into ids
  std::vector<uint32_t> ids;  // local ids, emission order
  LocalDict dict;
  std::vector<uint32_t> remap;  // local id -> shared id (phase 2)
  size_t text_base = 0;         // where the chunk lands in the column
  uint32_t token_base = 0;
};

// Normalizes and tokenizes rows [c.begin, c.end) into `c`; null flags go
// straight to `null` (disjoint per chunk).
void PrepChunk(const std::vector<Value>& column,
               const std::vector<uint32_t>* rows, const PrepOptions& options,
               const Tokenizer* tokenizer, Chunk& c, uint8_t* null) {
  thread_local std::vector<std::string_view> views;
  thread_local std::string scratch;
  std::vector<uint32_t> stamp;  // local id -> 1 + last row that emitted it
  c.text_offsets.reserve(c.end - c.begin + 1);
  c.token_offsets.reserve(c.end - c.begin + 1);
  c.text_offsets.push_back(0);
  c.token_offsets.push_back(0);
  for (size_t r = c.begin; r < c.end; ++r) {
    const Value& v = column[rows != nullptr ? (*rows)[r] : r];
    if (v.is_null()) {
      null[r] = 1;
    } else {
      const size_t start = c.text.size();
      if (v.is_string()) {
        c.text.append(v.AsStringView());
      } else {
        c.text.append(v.AsString());
      }
      // Both normalizations map one ASCII byte to one byte, in place.
      for (size_t i = start; i < c.text.size(); ++i) {
        char& ch = c.text[i];
        if (options.lowercase && ch >= 'A' && ch <= 'Z') {
          ch = static_cast<char>(ch - 'A' + 'a');
        }
        if (options.strip_punctuation &&
            !((ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
              (ch >= '0' && ch <= '9') || ch == ' ')) {
          ch = ' ';
        }
      }
      if (tokenizer != nullptr) {
        views.clear();
        tokenizer->TokenizeViews(std::string_view(c.text).substr(start),
                                 &scratch, &views);
        size_t chars = 0;
        for (std::string_view t : views) chars += t.size();
        c.dict.Reserve(views.size(), chars);
        Grow(c.ids, c.ids.size() + views.size());
        const bool unique = tokenizer->unique();
        if (unique) stamp.resize(c.dict.size() + views.size(), 0);
        const uint32_t row_stamp = static_cast<uint32_t>(r - c.begin + 1);
        for (std::string_view t : views) {
          const uint32_t id = c.dict.Intern(t);
          if (unique) {
            if (stamp[id] == row_stamp) continue;  // repeat within the row
            stamp[id] = row_stamp;
          }
          c.ids.push_back(id);
        }
      }
    }
    c.text_offsets.push_back(c.text.size());
    c.token_offsets.push_back(static_cast<uint32_t>(c.ids.size()));
  }
}

}  // namespace

PrepCache::Key PrepCache::MakeKey(const std::vector<Value>& column,
                                  const PrepOptions& options,
                                  const Tokenizer* tokenizer) {
  return Key{column.data(), column.size(), options,
             tokenizer == nullptr
                 ? std::string()
                 : tokenizer->name() + (tokenizer->unique() ? "/u" : "/b")};
}

std::shared_ptr<const PreparedColumn> PrepCache::Build(
    const std::vector<Value>& column, const std::vector<uint32_t>* rows,
    const PrepOptions& options, const Tokenizer* tokenizer,
    const ExecutorContext& ctx) {
  const size_t n = rows != nullptr ? rows->size() : column.size();
  auto col = std::make_shared<PreparedColumn>();
  col->tokenized_ = tokenizer != nullptr;
  col->interner_ = interner_;
  col->null_.assign(n, 0);

  // Chunking never changes the result (ids follow the serial first-seen
  // order whatever the chunks), so it only has to balance the threads.
  Executor* executor = nullptr;
  size_t chunk_rows = std::max<size_t>(n, 1);
  if (n >= 2 * kMinChunkRows && ctx.get().num_threads() > 1) {
    executor = &ctx.get();
    const size_t target = 4 * executor->num_threads();
    chunk_rows = std::max(kMinChunkRows, (n + target - 1) / target);
  }
  std::vector<Chunk> chunks((n + chunk_rows - 1) / chunk_rows + (n == 0));
  for (size_t c = 0; c < chunks.size(); ++c) {
    chunks[c].begin = std::min(n, c * chunk_rows);
    chunks[c].end = std::min(n, chunks[c].begin + chunk_rows);
  }
  auto for_each_chunk = [&](const auto& fn) {
    if (executor == nullptr) {
      for (Chunk& c : chunks) fn(c);
      return;
    }
    executor->ParallelFor(0, chunks.size(), /*grain=*/1,
                          [&](size_t lo, size_t hi) {
                            for (size_t c = lo; c < hi; ++c) fn(chunks[c]);
                          });
  };

  // Phase 1: normalize, tokenize and intern locally, chunks in parallel.
  for_each_chunk([&](Chunk& c) {
    PrepChunk(column, rows, options, tokenizer, c, col->null_.data());
  });

  // Phase 2: the ordered merge, chunk by chunk and each chunk's tokens in
  // its first-seen order — exactly the order a serial pass meets them.
  if (tokenizer != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    for (Chunk& c : chunks) {
      c.remap.resize(c.dict.size());
      for (uint32_t id = 0; id < c.dict.size(); ++id) {
        c.remap[id] = interner_->Intern(c.dict.Token(id));
      }
    }
  }

  // Phase 3: lay the chunks end to end with shared ids and sort each row's
  // span, chunks in parallel. The first chunk's buffers become the
  // column's, so a one-chunk build copies nothing.
  size_t text_size = 0;
  uint32_t tokens = 0;
  for (Chunk& c : chunks) {
    c.text_base = text_size;
    c.token_base = tokens;
    text_size += c.text.size();
    tokens += static_cast<uint32_t>(c.ids.size());
  }
  const uint32_t first_tokens = static_cast<uint32_t>(chunks[0].ids.size());
  col->text_ = std::move(chunks[0].text);
  col->text_.resize(text_size);
  col->text_offsets_ = std::move(chunks[0].text_offsets);
  col->text_offsets_.resize(n + 1);
  col->token_offsets_ = std::move(chunks[0].token_offsets);
  col->token_offsets_.resize(n + 1);
  col->emit_ids_ = std::move(chunks[0].ids);
  col->emit_ids_.resize(tokens);
  col->sorted_ids_.resize(tokens);
  for_each_chunk([&](const Chunk& c) {
    uint32_t* emit = col->emit_ids_.data() + c.token_base;
    uint32_t* sorted = col->sorted_ids_.data() + c.token_base;
    if (c.begin == 0) {
      for (uint32_t i = 0; i < first_tokens; ++i) emit[i] = c.remap[emit[i]];
    } else {
      std::copy(c.text.begin(), c.text.end(),
                col->text_.begin() + static_cast<ptrdiff_t>(c.text_base));
      for (size_t r = c.begin; r < c.end; ++r) {
        col->text_offsets_[r + 1] =
            c.text_base + c.text_offsets[r - c.begin + 1];
        col->token_offsets_[r + 1] =
            c.token_base + c.token_offsets[r - c.begin + 1];
      }
      for (size_t i = 0; i < c.ids.size(); ++i) emit[i] = c.remap[c.ids[i]];
    }
    // Sorted for the merge kernels; duplicates (non-unique tokenizers
    // only) are preserved so the blockers' per-occurrence probe counts
    // match the legacy string index exactly. The first chunk's offsets
    // already sit in the column; either way they are chunk-relative.
    const uint32_t* rel = c.begin == 0 ? col->token_offsets_.data()
                                       : c.token_offsets.data();
    for (size_t i = 0; i < c.end - c.begin; ++i) {
      std::copy(emit + rel[i], emit + rel[i + 1], sorted + rel[i]);
      std::sort(sorted + rel[i], sorted + rel[i + 1]);
    }
  });
  return col;
}

std::shared_ptr<const PreparedColumn> PrepCache::Get(
    const std::vector<Value>& column, const PrepOptions& options,
    const Tokenizer* tokenizer, const ExecutorContext& ctx) {
  Key key = MakeKey(column, options, tokenizer);
  std::promise<std::shared_ptr<const PreparedColumn>> promise;
  Entry entry;
  bool build = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = cache_.try_emplace(key);
    if (inserted) it->second = promise.get_future().share();
    entry = it->second;
    build = inserted;
  }
  if (!build) return entry.get();  // waits while another caller builds it
  try {
    auto prepared = Build(column, nullptr, options, tokenizer, ctx);
    promise.set_value(prepared);
    return prepared;
  } catch (...) {
    // A failed build (an injected executor fault, bad_alloc) is not cached:
    // waiters see the same exception, the next Get retries.
    promise.set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(mu_);
    cache_.erase(key);
    throw;
  }
}

std::shared_ptr<const PreparedColumn> PrepCache::GetRows(
    const std::vector<Value>& column, const std::vector<uint32_t>& rows,
    const PrepOptions& options, const Tokenizer* tokenizer,
    const ExecutorContext& ctx) {
  Entry full;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(MakeKey(column, options, tokenizer));
    if (it != cache_.end()) full = it->second;
  }
  if (full.valid()) return full.get();
  return Build(column, &rows, options, tokenizer, ctx);
}

std::shared_ptr<const PreparedColumn> PrepCache::PrepUncached(
    const std::vector<Value>& column, const PrepOptions& options,
    const Tokenizer* tokenizer, const ExecutorContext& ctx) {
  return Build(column, nullptr, options, tokenizer, ctx);
}

void PrepCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
}

size_t PrepCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

size_t PrepCache::interned_tokens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return interner_->size();
}

}  // namespace emx
