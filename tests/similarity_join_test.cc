#include <gtest/gtest.h>

#include "src/block/similarity_join.h"
#include "src/core/random.h"
#include "src/table/csv.h"
#include "src/text/set_similarity.h"

namespace emx {
namespace {

TEST(JaccardJoinTest, ExactSemanticsOnSmallTables) {
  Table l = *ReadCsvString(
      "T\ncorn fungicide guidelines north central\nlab supplies\n");
  Table r = *ReadCsvString(
      "T\nCorn Fungicide Guidelines North Central States\nunrelated thing\n");
  OverlapBlockerOptions opts;
  opts.left_attr = "T";
  opts.right_attr = "T";
  JaccardJoinBlocker join(opts, 0.8);
  auto c = join.Block(l, r);
  ASSERT_TRUE(c.ok());
  // jaccard = 5/6 = 0.833 >= 0.8.
  EXPECT_EQ(c->size(), 1u);
  EXPECT_TRUE(c->Contains({0, 0}));
  // Threshold above 5/6 excludes it.
  JaccardJoinBlocker tighter(opts, 0.9);
  EXPECT_TRUE(tighter.Block(l, r)->empty());
}

TEST(JaccardJoinTest, SizeFilterExcludesIncompatibleLengths) {
  // A 2-token set can never reach jaccard 0.8 against a 10-token set.
  Table l = *ReadCsvString("T\na b\n");
  Table r = *ReadCsvString("T\na b c d e f g h i j\n");
  OverlapBlockerOptions opts;
  opts.left_attr = "T";
  opts.right_attr = "T";
  JaccardJoinBlocker join(opts, 0.8);
  TokenJoinStats stats;
  auto c = join.BlockWithStats(l, r, &stats);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->empty());
  EXPECT_EQ(stats.verified, 0u);  // size filter pruned it
}

// Property: the prefix-filtered join returns EXACTLY the brute-force
// jaccard-threshold pairs (filters must be lossless).
class JaccardJoinEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JaccardJoinEquivalenceTest, AgreesWithBruteForce) {
  RandomEngine rng(GetParam());
  auto make_table = [&rng](size_t rows) {
    Table t(Schema({{"T", DataType::kString}}));
    for (size_t i = 0; i < rows; ++i) {
      size_t words = 1 + rng.NextBelow(6);
      std::string s;
      for (size_t w = 0; w < words; ++w) {
        if (!s.empty()) s += ' ';
        s += std::string(1, static_cast<char>('a' + rng.NextBelow(10)));
      }
      (void)t.AppendRow({Value(s)});
    }
    return t;
  };
  Table l = make_table(25), r = make_table(25);
  double threshold = 0.3 + 0.1 * static_cast<double>(rng.NextBelow(6));

  OverlapBlockerOptions opts;
  opts.left_attr = "T";
  opts.right_attr = "T";
  JaccardJoinBlocker join(opts, threshold);
  TokenJoinStats stats;
  auto filtered = join.BlockWithStats(l, r, &stats);
  ASSERT_TRUE(filtered.ok());

  WhitespaceTokenizer tok;
  std::vector<RecordPair> brute;
  for (uint32_t i = 0; i < l.num_rows(); ++i) {
    for (uint32_t j = 0; j < r.num_rows(); ++j) {
      auto ta = tok.Tokenize(l.at(i, 0).AsString());
      auto tb = tok.Tokenize(r.at(j, 0).AsString());
      if (JaccardSimilarity(ta, tb) >= threshold) brute.push_back({i, j});
    }
  }
  EXPECT_EQ(*filtered, CandidateSet(std::move(brute)))
      << "threshold=" << threshold;
  // The filter should have verified (far) fewer pairs than the Cartesian
  // product — at worst, all of them.
  EXPECT_LE(stats.verified, l.num_rows() * r.num_rows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, JaccardJoinEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 30));

// Bag tokenizers (unique() unset): Jaccard stays a set measure, so
// prefixes and the size filter count distinct tokens. "a a a a b" against
// "b" has set Jaccard exactly 1/2; a multiset size of 5 used to fail the
// size filter and drop the pair.
TEST(JaccardJoinTest, BagTokenizerUsesDistinctTokens) {
  Table l = *ReadCsvString("T\na a a a b\n");
  Table r = *ReadCsvString("T\nb\n");
  OverlapBlockerOptions opts;
  opts.left_attr = "T";
  opts.right_attr = "T";
  auto bag = std::make_shared<WhitespaceTokenizer>();
  bag->set_unique(false);
  auto c = JaccardJoinBlocker(opts, 0.5, bag).Block(l, r);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->Contains({0, 0}));
  EXPECT_TRUE(JaccardJoinBlocker(opts, 0.51, bag).Block(l, r)->empty());
}

class JaccardJoinBagTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JaccardJoinBagTest, AgreesWithSetBruteForce) {
  RandomEngine rng(GetParam());
  auto make_table = [&rng](size_t rows) {
    Table t(Schema({{"T", DataType::kString}}));
    for (size_t i = 0; i < rows; ++i) {
      size_t words = rng.NextBelow(8);
      std::string s;
      for (size_t w = 0; w < words; ++w) {
        if (!s.empty()) s += ' ';
        s += std::string(1, static_cast<char>('a' + rng.NextBelow(6)));
      }
      (void)t.AppendRow({Value(s)});
    }
    return t;
  };
  Table l = make_table(30), r = make_table(30);
  double threshold = 0.2 + 0.1 * static_cast<double>(rng.NextBelow(9));

  OverlapBlockerOptions opts;
  opts.left_attr = "T";
  opts.right_attr = "T";
  auto bag = std::make_shared<WhitespaceTokenizer>();
  bag->set_unique(false);
  auto got = JaccardJoinBlocker(opts, threshold, bag).Block(l, r);
  ASSERT_TRUE(got.ok());

  std::vector<RecordPair> brute;
  for (uint32_t i = 0; i < l.num_rows(); ++i) {
    for (uint32_t j = 0; j < r.num_rows(); ++j) {
      auto ta = bag->Tokenize(l.at(i, 0).AsString());
      auto tb = bag->Tokenize(r.at(j, 0).AsString());
      if (ta.empty() || tb.empty()) continue;  // an empty record never pairs
      if (JaccardSimilarity(ta, tb) >= threshold) brute.push_back({i, j});
    }
  }
  EXPECT_EQ(*got, CandidateSet(std::move(brute))) << "threshold=" << threshold;
  // With the default unique tokenizer the answer is the same sets'.
  EXPECT_EQ(*got, *JaccardJoinBlocker(opts, threshold).Block(l, r));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JaccardJoinBagTest,
                         ::testing::Range<uint64_t>(0, 20));

// --- sorted neighborhood ------------------------------------------------------

TEST(SortedNeighborhoodTest, WindowPairsNearbyKeys) {
  Table l = *ReadCsvString("K\nanderson\nmiller\nzimmer\n");
  Table r = *ReadCsvString("K\nandersen\nmillar\nnowhere near\n");
  SortedNeighborhoodBlocker blocker("K", "K", /*window=*/2);
  auto c = blocker.Block(l, r);
  ASSERT_TRUE(c.ok());
  // Sorted: andersen(r0) anderson(l0) millar(r1) miller(l1) nowhere(r2) zimmer(l2)
  EXPECT_TRUE(c->Contains({0, 0}));
  EXPECT_TRUE(c->Contains({1, 1}));
  // anderson-millar are adjacent too (window 2) — cross-table, so present.
  EXPECT_TRUE(c->Contains({0, 1}));
  // miller-zimmer are separated by nowhere(r2): (2,2) present, (l1,r2) too.
  EXPECT_TRUE(c->Contains({1, 2}));
}

TEST(SortedNeighborhoodTest, LargerWindowsAdmitMorePairs) {
  Table l = *ReadCsvString("K\na\nb\nc\nd\n");
  Table r = *ReadCsvString("K\naa\nbb\ncc\ndd\n");
  auto w2 = SortedNeighborhoodBlocker("K", "K", 2).Block(l, r);
  auto w4 = SortedNeighborhoodBlocker("K", "K", 4).Block(l, r);
  ASSERT_TRUE(w2.ok() && w4.ok());
  EXPECT_LT(w2->size(), w4->size());
  EXPECT_TRUE(CandidateSet::Minus(*w2, *w4).empty());  // monotone
}

TEST(SortedNeighborhoodTest, SameTablePairsNeverEmitted) {
  Table l = *ReadCsvString("K\na\nb\n");
  Table r = *ReadCsvString("K\nzzz\n");
  auto c = SortedNeighborhoodBlocker("K", "K", 3).Block(l, r);
  ASSERT_TRUE(c.ok());
  for (const RecordPair& p : *c) {
    EXPECT_LT(p.left, l.num_rows());
    EXPECT_LT(p.right, r.num_rows());
  }
}

TEST(SortedNeighborhoodTest, NullKeysSkipped) {
  Table l = *ReadCsvString("K\n\na\n");
  Table r = *ReadCsvString("K\na\n\n");
  auto c = SortedNeighborhoodBlocker("K", "K", 4).Block(l, r);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->size(), 1u);
  EXPECT_TRUE(c->Contains({1, 0}));
}

}  // namespace
}  // namespace emx
