// Chunked, candidate-driven prep: a PreparedColumn built on any number of
// threads, or over a subset of the rows, must equal the serial build —
// text, null flags, emission-order ids, sorted spans and interner contents
// — and VectorizePairsBatch over only the rows its pairs reference must
// score every feature bit for bit as it does over full columns.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/executor.h"
#include "src/feature/feature_gen.h"
#include "src/feature/vectorizer.h"
#include "src/prep/prepared_column.h"
#include "src/table/table.h"
#include "src/text/tokenizer.h"
#include "tests/oracle/feature_oracle.h"

namespace emx {
namespace {

// ---------- corpus ----------

// Null, empty, all-punctuation, repeated-token, numeric and mixed-case
// cells, over a vocabulary big enough that chunks meet new tokens late.
Value RandomCell(std::mt19937& rng) {
  std::uniform_int_distribution<int> kind(0, 11);
  switch (kind(rng)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(std::string());
    case 2:
      return Value("!!! ... ---");
    case 3:
      return Value("Alpha alpha ALPHA beta alpha");
    case 4:
      return Value(int64_t{20080134});
    case 5:
      return Value(3.25);
    default: {
      std::uniform_int_distribution<int> len(1, 7);
      std::uniform_int_distribution<int> word(0, 399);
      std::uniform_int_distribution<int> upper(0, 4);
      std::string s;
      for (int i = 0, n = len(rng); i < n; ++i) {
        if (i > 0) s += (word(rng) % 5 == 0) ? ", " : " ";
        std::string w = "w" + std::to_string(word(rng));
        if (upper(rng) == 0) w[0] = 'W';
        s += w;
      }
      return Value(std::move(s));
    }
  }
}

Table RandomTable(size_t rows, uint32_t seed) {
  std::mt19937 rng(seed);
  Table t(Schema({{"title", DataType::kAny},
                  {"amount", DataType::kAny},
                  {"date", DataType::kString}}));
  std::uniform_int_distribution<int> amount(0, 5000);
  std::uniform_int_distribution<int> year(1990, 2020);
  for (size_t i = 0; i < rows; ++i) {
    Value amount_value = i % 13 == 0
                             ? Value::Null()
                             : Value(static_cast<double>(amount(rng)));
    (void)t.AppendRow({RandomCell(rng), std::move(amount_value),
                       Value(std::to_string(year(rng)) + "-01-0" +
                             std::to_string(1 + i % 9))});
  }
  return t;
}

const std::vector<Value>& Titles(const Table& t) {
  return **t.ColumnByName("title");
}

// ---------- column comparison ----------

struct PrepConfig {
  const char* name;
  PrepOptions options;
  std::shared_ptr<Tokenizer> tokenizer;  // null: text-only
};

std::shared_ptr<Tokenizer> NonUnique(std::shared_ptr<Tokenizer> t) {
  t->set_unique(false);
  return t;
}

std::vector<PrepConfig> Configs() {
  return {
      {"text", {true, false}, nullptr},
      {"ws_lc_strip", {true, true}, std::make_shared<WhitespaceTokenizer>()},
      {"ws_bag", {false, false},
       NonUnique(std::make_shared<WhitespaceTokenizer>())},
      {"qgm3", {false, false}, std::make_shared<QgramTokenizer>(3)},
      {"qgm2_bag_lc", {true, false},
       NonUnique(std::make_shared<QgramTokenizer>(2))},
      {"alnum", {false, false}, std::make_shared<AlphanumericTokenizer>()},
      {"delim", {true, false}, std::make_shared<DelimiterTokenizer>(',')},
  };
}

std::vector<uint32_t> Emission(const PreparedColumn& c, size_t row) {
  size_t n = 0;
  const uint32_t* ids = c.emission_ids(row, &n);
  return {ids, ids + n};
}

std::vector<uint32_t> Sorted(const PreparedColumn& c, size_t row) {
  IdSpan s = c.ids(row);
  return {s.begin(), s.end()};
}

// Row `ra` of `a` equals row `rb` of `b`, ids included (both columns must
// come from interners that assigned the same ids).
void ExpectSameRow(const PreparedColumn& a, size_t ra, const PreparedColumn& b,
                   size_t rb, const std::string& where) {
  EXPECT_EQ(a.is_null(ra), b.is_null(rb)) << where;
  EXPECT_EQ(a.text(ra), b.text(rb)) << where;
  EXPECT_EQ(Emission(a, ra), Emission(b, rb)) << where;
  EXPECT_EQ(Sorted(a, ra), Sorted(b, rb)) << where;
}

void ExpectSameColumn(const PreparedColumn& a, const PreparedColumn& b,
                      const std::string& where) {
  ASSERT_EQ(a.rows(), b.rows()) << where;
  EXPECT_EQ(a.tokenized(), b.tokenized()) << where;
  for (size_t r = 0; r < a.rows(); ++r) {
    ExpectSameRow(a, r, b, r, where + " row " + std::to_string(r));
  }
}

// The emission ids of every row spell the tokenizer's own output, and the
// sorted span is their sorted image.
void ExpectTokensMatchTokenizer(const PreparedColumn& c,
                                const std::vector<Value>& column,
                                const std::vector<uint32_t>& rows,
                                const PrepConfig& config) {
  for (size_t k = 0; k < c.rows(); ++k) {
    const Value& v = column[rows[k]];
    ASSERT_EQ(c.is_null(k), v.is_null());
    if (v.is_null()) continue;
    std::string text = v.AsString();
    for (char& ch : text) {
      if (config.options.lowercase && ch >= 'A' && ch <= 'Z') ch += 'a' - 'A';
      if (config.options.strip_punctuation && !std::isalnum(
              static_cast<unsigned char>(ch)) && ch != ' ') {
        ch = ' ';
      }
    }
    EXPECT_EQ(c.text(k), text);
    if (config.tokenizer == nullptr) continue;
    std::vector<std::string> expected = config.tokenizer->Tokenize(text);
    std::vector<uint32_t> emitted = Emission(c, k);
    ASSERT_EQ(emitted.size(), expected.size()) << config.name << " row " << k;
    for (size_t i = 0; i < emitted.size(); ++i) {
      EXPECT_EQ(c.interner().TokenString(emitted[i]), expected[i]);
    }
    std::sort(emitted.begin(), emitted.end());
    EXPECT_EQ(Sorted(c, k), emitted);
  }
}

// The id -> token table of `cache`'s interner, read through a column it
// built.
std::vector<std::string> InternedStrings(const PrepCache& cache,
                                         const PreparedColumn& column) {
  std::vector<std::string> out;
  for (size_t id = 0; id < cache.interned_tokens(); ++id) {
    out.push_back(column.interner().TokenString(static_cast<uint32_t>(id)));
  }
  return out;
}

std::vector<uint32_t> AllRows(size_t n) {
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
  return rows;
}

// Row 0, the last row, and a seeded half of the rest, ascending.
std::vector<uint32_t> SomeRows(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<uint32_t> rows = {0};
  for (uint32_t r = 1; r + 1 < n; ++r) {
    if (rng() % 2 == 0) rows.push_back(r);
  }
  rows.push_back(static_cast<uint32_t>(n - 1));
  return rows;
}

constexpr size_t kRows = 6000;  // several build chunks at 2 and 8 threads

// ---------- chunked build ----------

TEST(PrepBuildTest, ChunkedBuildMatchesSerialAtAnyThreadCount) {
  Table t = RandomTable(kRows, 7);
  const std::vector<Value>& column = Titles(t);
  for (const PrepConfig& config : Configs()) {
    Executor serial_pool(1);
    PrepCache serial;
    auto expected = serial.Get(column, config.options, config.tokenizer.get(),
                               ExecutorContext{&serial_pool});
    ExpectTokensMatchTokenizer(*expected, column, AllRows(kRows), config);
    for (size_t threads : {1u, 2u, 8u}) {
      Executor pool(threads);
      PrepCache cache;
      auto built = cache.Get(column, config.options, config.tokenizer.get(),
                             ExecutorContext{&pool});
      const std::string where = std::string(config.name) + " threads=" +
                                std::to_string(threads);
      ExpectSameColumn(*expected, *built, where);
      EXPECT_EQ(InternedStrings(cache, *built),
                InternedStrings(serial, *expected))
          << where;
    }
  }
}

TEST(PrepBuildTest, RowSubsetMatchesFullBuild) {
  Table t = RandomTable(kRows, 11);
  const std::vector<Value>& column = Titles(t);
  const std::vector<uint32_t> rows = SomeRows(kRows, 5);
  // The subset's rows as a table of their own: its serial full build is
  // what a subset build must reproduce, interner included.
  std::vector<Value> subset_column;
  for (uint32_t r : rows) subset_column.push_back(column[r]);

  for (const PrepConfig& config : Configs()) {
    Executor serial_pool(1);
    PrepCache serial;
    auto expected =
        serial.Get(subset_column, config.options, config.tokenizer.get(),
                   ExecutorContext{&serial_pool});
    for (size_t threads : {1u, 2u, 8u}) {
      Executor pool(threads);
      ExecutorContext ctx{&pool};
      const std::string where = std::string(config.name) + " threads=" +
                                std::to_string(threads);
      PrepCache fresh;
      auto subset = fresh.GetRows(column, rows, config.options,
                                  config.tokenizer.get(), ctx);
      ASSERT_EQ(subset->rows(), rows.size()) << where;
      ExpectSameColumn(*expected, *subset, where);
      EXPECT_EQ(InternedStrings(fresh, *subset),
                InternedStrings(serial, *expected))
          << where;
      ExpectTokensMatchTokenizer(*subset, column, rows, config);

      // Against the full column of the same interner, row k of the subset
      // is row rows[k], ids and all.
      PrepCache shared;
      auto full = shared.PrepUncached(column, config.options,
                                      config.tokenizer.get(), ctx);
      auto part = shared.GetRows(column, rows, config.options,
                                 config.tokenizer.get(), ctx);
      ASSERT_EQ(part->rows(), rows.size());
      for (size_t k = 0; k < rows.size(); ++k) {
        ExpectSameRow(*full, rows[k], *part, k,
                      where + " subset row " + std::to_string(k));
      }
    }
  }
}

TEST(PrepBuildTest, EmptyAndTinyColumns) {
  PrepCache cache;
  WhitespaceTokenizer ws;
  std::vector<Value> empty;
  auto none = cache.Get(empty, {}, &ws);
  EXPECT_EQ(none->rows(), 0u);
  std::vector<Value> one{Value("b a b")};
  auto single = cache.PrepUncached(one, {}, &ws);
  ASSERT_EQ(single->rows(), 1u);
  EXPECT_EQ(Emission(*single, 0), (std::vector<uint32_t>{0, 1}));
  auto subset = cache.GetRows(one, {}, {}, &ws);
  EXPECT_EQ(subset->rows(), 0u);
  EXPECT_EQ(cache.interned_tokens(), 2u);
}

TEST(PrepBuildTest, GetRowsReadsCachedFullColumnAndCachesNoSubset) {
  Table t = RandomTable(500, 13);
  const std::vector<Value>& column = Titles(t);
  WhitespaceTokenizer ws;
  PrepCache cache;
  const std::vector<uint32_t> rows = SomeRows(column.size(), 3);
  auto subset = cache.GetRows(column, rows, {}, &ws);
  EXPECT_EQ(subset->rows(), rows.size());
  EXPECT_EQ(cache.entries(), 0u);
  auto full = cache.Get(column, {}, &ws);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.GetRows(column, rows, {}, &ws).get(), full.get());
  // Another spec of the same column is not the cached one.
  EXPECT_NE(cache.GetRows(column, rows, {true, false}, &ws).get(), full.get());
}

// Concurrent Gets of one key build it once; of other keys, concurrently.
// While they intern, readers resolve ids of an existing column through the
// interner (lock-free reads against a growing table).
TEST(PrepBuildTest, ConcurrentGetsAndInternerReads) {
  Table t = RandomTable(kRows, 17);
  const std::vector<Value>& column = Titles(t);
  WhitespaceTokenizer ws;
  QgramTokenizer qg(3);
  PrepCache cache;
  auto base = cache.Get(column, {}, &ws);
  std::vector<std::string> base_tokens;
  for (size_t r = 0; r < base->rows(); ++r) {
    for (uint32_t id : Emission(*base, r)) {
      base_tokens.emplace_back(base->interner().TokenString(id));
    }
  }

  Executor pool(4);
  std::vector<std::shared_ptr<const PreparedColumn>> got(6);
  std::atomic<bool> reading{true};
  std::thread reader([&] {
    while (reading.load()) {
      size_t i = 0;
      for (size_t r = 0; r < base->rows(); ++r) {
        for (uint32_t id : Emission(*base, r)) {
          ASSERT_EQ(base->interner().TokenString(id), base_tokens[i++]);
        }
      }
    }
  });
  std::vector<std::thread> builders;
  for (size_t i = 0; i < got.size(); ++i) {
    builders.emplace_back([&, i] {
      got[i] = cache.Get(column, {i % 2 == 0, false}, &qg,
                         ExecutorContext{&pool});
    });
  }
  for (std::thread& b : builders) b.join();
  reading.store(false);
  reader.join();
  EXPECT_EQ(cache.entries(), 3u);
  for (size_t i = 2; i < got.size(); ++i) {
    EXPECT_EQ(got[i].get(), got[i % 2].get());
  }
  PrepCache serial;
  serial.Get(column, {}, &ws);
  auto lower = serial.Get(column, {true, false}, &qg);
  // The unlowercased q-gram build may have merged first; ids differ by a
  // permutation, token strings per row do not.
  for (size_t r = 0; r < column.size(); ++r) {
    std::vector<uint32_t> a = Emission(*lower, r), b = Emission(*got[0], r);
    ASSERT_EQ(a.size(), b.size());
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(lower->interner().TokenString(a[k]),
                got[0]->interner().TokenString(b[k]));
    }
  }
}

// ---------- candidate-driven vectorize ----------

// Every Measure, with and without lowercasing where it applies.
FeatureSet AllMeasures(const Table& left, const Table& right) {
  FeatureGenOptions gen;
  gen.lowercase_variants = {"title"};
  FeatureSet features = *GenerateFeatures(left, right, gen);
  for (bool lc : {false, true}) {
    features.features.push_back(
        MakeNeedlemanWunschFeature("title", "title", lc));
    features.features.push_back(MakeSmithWatermanFeature("title", "title", lc));
    features.features.push_back(MakeAffineGapFeature("title", "title", lc));
    features.features.push_back(MakeDiceFeature("title", "title", 0, lc));
    features.features.push_back(MakeCosineFeature("title", "title", 3, lc));
    features.features.push_back(MakeMongeElkanFeature("title", "title", lc));
    features.features.push_back(
        MakeOverlapCoefficientFeature("title", "title", 3, lc));
  }
  features.features.push_back(MakeAbsDiffFeature("amount", "amount"));
  features.features.push_back(MakeRelativeSimFeature("amount", "amount"));
  features.features.push_back(MakeNumericExactFeature("amount", "amount"));
  features.features.push_back(MakeYearDiffFeature("date", "date"));
  return features;
}

// Fills `cache` with the full column of every (column, spec) a side of
// `features` reads.
void PrepFullColumns(const Table& table, const FeatureSet& features,
                     bool left, PrepCache& cache) {
  for (const Feature& f : features.features) {
    if (!f.has_prep()) continue;
    std::unique_ptr<Tokenizer> tok = TokenizerForSpec(f.prep);
    cache.Get(**table.ColumnByName(left ? f.left_attr : f.right_attr),
              PrepOptions{f.prep.lowercase, false}, tok.get());
  }
}

void ExpectBitIdentical(const PairBatch& a, const PairBatch& b,
                        const std::string& where) {
  ASSERT_EQ(a.num_pairs(), b.num_pairs()) << where;
  ASSERT_EQ(a.num_features(), b.num_features()) << where;
  for (size_t c = 0; c < a.num_features(); ++c) {
    EXPECT_EQ(0, std::memcmp(a.Column(c), b.Column(c),
                             a.num_pairs() * sizeof(double)))
        << where << " feature " << a.feature_names[c];
  }
}

TEST(PrepVectorizeTest, CandidateDrivenBitIdenticalToFullColumns) {
  Table left = RandomTable(3000, 21);
  Table right = RandomTable(2500, 22);
  FeatureSet features = AllMeasures(left, right);
  std::set<Measure> measures;
  for (const Feature& f : features.features) measures.insert(f.measure);
  ASSERT_EQ(measures.size(), static_cast<size_t>(Measure::kYearDiff) + 1);

  // Row 0 and the last rows, left row 7 in 300 pairs, nulls (RandomCell),
  // and a seeded spread over most rows so the subset builds chunk.
  std::mt19937 rng(9);
  std::vector<RecordPair> all = {{0, 0}, {2999, 2499}, {0, 2499}, {2999, 0}};
  for (uint32_t r = 0; r < 2500; r += 8) all.push_back({7, r});
  for (int i = 0; i < 4000; ++i) {
    all.push_back({static_cast<uint32_t>(rng() % 3000),
                   static_cast<uint32_t>(rng() % 2500)});
  }
  CandidateSet pairs(std::move(all));

  Executor serial(1);
  auto oracle = oracle::VectorizePairsUnprepared(left, right, pairs, features,
                                                ExecutorContext{&serial});
  ASSERT_TRUE(oracle.ok());
  PairBatch expected = PairBatch::FromMatrix(*oracle);

  for (size_t threads : {1u, 2u, 8u}) {
    Executor pool(threads);
    ExecutorContext ctx{&pool};
    const std::string where = "threads=" + std::to_string(threads);
    PrepCache fresh;
    auto driven =
        VectorizePairsBatch(left, right, pairs, features, ctx, &fresh);
    ASSERT_TRUE(driven.ok());
    ExpectBitIdentical(expected, *driven, where + " candidate-driven");
    EXPECT_EQ(fresh.entries(), 0u);

    PrepCache full;
    PrepFullColumns(left, features, true, full);
    PrepFullColumns(right, features, false, full);
    auto whole = VectorizePairsBatch(left, right, pairs, features, ctx, &full);
    ASSERT_TRUE(whole.ok());
    ExpectBitIdentical(expected, *whole, where + " full columns");

    // Full columns on the left only: each feature mixes a full left side
    // with a row-subset right side.
    PrepCache mixed;
    PrepFullColumns(left, features, true, mixed);
    auto half = VectorizePairsBatch(left, right, pairs, features, ctx, &mixed);
    ASSERT_TRUE(half.ok());
    ExpectBitIdentical(expected, *half, where + " full left");
  }
}

TEST(PrepVectorizeTest, EmptyPairSetPrepsNothing) {
  Table left = RandomTable(100, 31);
  Table right = RandomTable(100, 32);
  FeatureSet features = AllMeasures(left, right);
  PrepCache cache;
  auto batch =
      VectorizePairsBatch(left, right, CandidateSet(), features, {}, &cache);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_pairs(), 0u);
  EXPECT_EQ(batch->num_features(), features.features.size());
  EXPECT_EQ(cache.interned_tokens(), 0u);
  EXPECT_EQ(cache.entries(), 0u);

  FeatureSet missing;
  missing.features.push_back(MakeJaccardFeature("nope", "title"));
  EXPECT_FALSE(
      VectorizePairsBatch(left, right, CandidateSet(), missing).ok());
}

// A table whose row r holds two tokens no other row has, so the interner
// counts exactly the rows that were tokenized.
Table UniqueTokenTable(size_t rows, const std::string& tag) {
  Table t(Schema({{"title", DataType::kString}}));
  for (size_t r = 0; r < rows; ++r) {
    std::string s = tag + std::to_string(r);
    (void)t.AppendRow({Value(s + "a " + s + "b")});
  }
  return t;
}

TEST(PrepVectorizeTest, PrepsOnlyReferencedRows) {
  Table left = UniqueTokenTable(5000, "l");
  Table right = UniqueTokenTable(4000, "r");
  FeatureSet features;
  features.features.push_back(MakeJaccardFeature("title", "title"));
  features.features.push_back(MakeMongeElkanFeature("title", "title"));
  features.features.push_back(MakeLevenshteinFeature("title", "title"));
  // k = 6 pairs over 4 distinct left and 5 distinct right rows.
  CandidateSet pairs({{0, 3}, {0, 3999}, {17, 3}, {4999, 12}, {2500, 7},
                      {17, 8}});
  for (size_t threads : {1u, 8u}) {
    Executor pool(threads);
    PrepCache cache;
    auto batch = VectorizePairsBatch(left, right, pairs, features,
                                     ExecutorContext{&pool}, &cache);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(cache.interned_tokens(), 2u * (4 + 5));
    EXPECT_EQ(cache.entries(), 0u);
  }
  // A column the cache holds whole is read, not re-prepped.
  PrepCache cache;
  WhitespaceTokenizer ws;
  cache.Get(Titles(left), {}, &ws);
  const size_t after_full = cache.interned_tokens();
  EXPECT_EQ(after_full, 2u * 5000);
  ASSERT_TRUE(
      VectorizePairsBatch(left, right, pairs, features, {}, &cache).ok());
  EXPECT_EQ(cache.interned_tokens(), after_full + 2u * 5);
}

TEST(PrepVectorizeTest, OutOfRangePairIsInvalidArgument) {
  Table left = UniqueTokenTable(10, "l");
  Table right = UniqueTokenTable(10, "r");
  FeatureSet features;
  features.features.push_back(MakeJaccardFeature("title", "title"));
  auto batch = VectorizePairsBatch(left, right, CandidateSet({{2, 10}}),
                                   features);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace emx
