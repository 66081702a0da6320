#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/block/attr_equivalence_blocker.h"
#include "src/core/executor.h"
#include "src/core/random.h"
#include "src/core/strings.h"
#include "src/datagen/case_study.h"
#include "src/datagen/preprocess.h"
#include "src/rules/match_rules.h"
#include "src/rules/number_pattern.h"
#include "src/table/csv.h"
#include "tests/oracle/rules_oracle.h"

namespace emx {
namespace {

// --- pattern signatures (the §12 examples, verbatim) -------------------------

TEST(PatternSignatureTest, PaperExamples) {
  EXPECT_EQ(PatternSignature("03-CS-112313000-031"), "##-XX-#########-###");
  EXPECT_EQ(PatternSignature("2001-34101-10526"), "YYYY-#####-#####");
  EXPECT_EQ(PatternSignature("WIS01560"), "XXX#####");
  EXPECT_EQ(PatternSignature("WIS04509"), "XXX#####");
}

TEST(PatternSignatureTest, YearDetectionBounds) {
  EXPECT_EQ(PatternSignature("1899-1"), "####-#");   // below year range
  EXPECT_EQ(PatternSignature("2101-1"), "####-#");   // above year range
  EXPECT_EQ(PatternSignature("1997-1"), "YYYY-#");
  EXPECT_EQ(PatternSignature("2100"), "YYYY");
  // A five-digit leading group is not a year.
  EXPECT_EQ(PatternSignature("20011-3"), "#####-#");
}

TEST(PatternSignatureTest, EmptyAndPlain) {
  EXPECT_EQ(PatternSignature(""), "");
  EXPECT_EQ(PatternSignature("abc"), "XXX");
  EXPECT_EQ(PatternSignature("a-1 b"), "X-# X");
}

TEST(ComparableTest, PaperSemantics) {
  // Same pattern, different values: comparable (and the §12 rule fires).
  EXPECT_TRUE(ArePatternComparable("WIS01560", "WIS04509"));
  // Different patterns: not comparable.
  EXPECT_FALSE(ArePatternComparable("03-CS-112313000-031",
                                    "2001-34101-10526"));
  EXPECT_FALSE(ArePatternComparable("", "WIS01560"));
  EXPECT_TRUE(ArePatternComparable("2001-34101-10526", "2008-34103-19449"));
}

TEST(AwardNumberSuffixTest, SplitsOnFirstWhitespace) {
  EXPECT_EQ(AwardNumberSuffix("10.200 2008-34103-19449"), "2008-34103-19449");
  EXPECT_EQ(AwardNumberSuffix("10.203 WIS01040"), "WIS01040");
  EXPECT_EQ(AwardNumberSuffix("no-space-here"), "no-space-here");
  EXPECT_EQ(AwardNumberSuffix("a b c"), "b c");
  EXPECT_EQ(AwardNumberSuffix("trailing "), "");
}

// --- rules over tables ---------------------------------------------------------

Table RuleLeft() {
  return *ReadCsvString(
      "AwardNumber,Title\n"
      "10.200 2008-34103-19449,corn guidelines\n"
      "10.203 WIS01040,swamp dodder\n"
      "10.100 MSN000111,title evidence only\n"
      ",null award\n");
}

Table RuleRight() {
  return *ReadCsvString(
      "AwardNumber,ProjectNumber,Title\n"
      "2008-34103-19449,WIS09999,Corn Guidelines\n"
      ",WIS01040,Swamp Dodder\n"
      ",WIS04509,unrelated\n"
      "2008-34103-19440,WIS08888,typo sibling\n");
}

TEST(MatchRulesTest, M1FiresOnSuffixEquality) {
  MatchRule m1 = MakeM1AwardNumberRule("AwardNumber", "AwardNumber");
  Table l = RuleLeft(), r = RuleRight();
  EXPECT_TRUE(m1.fires(l, 0, r, 0));
  EXPECT_FALSE(m1.fires(l, 0, r, 3));  // one digit differs
  EXPECT_FALSE(m1.fires(l, 1, r, 0));
  EXPECT_FALSE(m1.fires(l, 3, r, 0));  // null left award
  EXPECT_FALSE(m1.fires(l, 0, r, 1));  // null right award
}

TEST(MatchRulesTest, M4FiresOnProjectNumberEquality) {
  MatchRule m4 = MakeAwardProjectNumberRule("AwardNumber", "ProjectNumber");
  Table l = RuleLeft(), r = RuleRight();
  EXPECT_TRUE(m4.fires(l, 1, r, 1));
  EXPECT_FALSE(m4.fires(l, 1, r, 2));  // different WIS number
  EXPECT_FALSE(m4.fires(l, 0, r, 0));  // federal vs WIS
}

TEST(MatchRulesTest, NegativeRuleOnlyFiresWhenComparable) {
  auto suffix = [](const std::string& s) { return AwardNumberSuffix(s); };
  MatchRule neg = MakeComparableMismatchRule("neg", "AwardNumber",
                                             "ProjectNumber", suffix, nullptr);
  Table l = RuleLeft(), r = RuleRight();
  // WIS01040 vs WIS04509: comparable and different -> fires.
  EXPECT_TRUE(neg.fires(l, 1, r, 2));
  // WIS01040 vs WIS01040: equal -> does not fire.
  EXPECT_FALSE(neg.fires(l, 1, r, 1));
  // MSN000111 vs WIS04509: different patterns -> does not fire.
  EXPECT_FALSE(neg.fires(l, 2, r, 2));
  // Null side -> does not fire.
  EXPECT_FALSE(neg.fires(l, 3, r, 2));
}

TEST(MatchRulesTest, ApplyRulesCartesianCollectsAllFirings) {
  Table l = RuleLeft(), r = RuleRight();
  std::vector<MatchRule> rules = {
      MakeM1AwardNumberRule("AwardNumber", "AwardNumber"),
      MakeAwardProjectNumberRule("AwardNumber", "ProjectNumber")};
  auto sure = ApplyRulesCartesian(rules, l, r);
  ASSERT_TRUE(sure.ok());
  EXPECT_EQ(sure->size(), 2u);
  EXPECT_TRUE(sure->Contains({0, 0}));
  EXPECT_TRUE(sure->Contains({1, 1}));
}

TEST(MatchRulesTest, ApplyRulesToPairsRestrictsScope) {
  Table l = RuleLeft(), r = RuleRight();
  std::vector<MatchRule> rules = {
      MakeM1AwardNumberRule("AwardNumber", "AwardNumber")};
  CandidateSet scope(std::vector<RecordPair>{{1, 1}, {2, 2}});
  auto hits = ApplyRulesToPairs(rules, l, r, scope);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());  // the firing pair (0,0) is out of scope
}

TEST(MatchRulesTest, FilterWithNegativeRulesPartitions) {
  Table l = RuleLeft(), r = RuleRight();
  auto suffix = [](const std::string& s) { return AwardNumberSuffix(s); };
  std::vector<MatchRule> neg = {
      MakeComparableMismatchRule("neg_award", "AwardNumber", "AwardNumber",
                                 suffix, nullptr),
      MakeComparableMismatchRule("neg_proj", "AwardNumber", "ProjectNumber",
                                 suffix, nullptr)};
  CandidateSet matches(
      std::vector<RecordPair>{{0, 0}, {0, 3}, {1, 2}, {2, 2}});
  CandidateSet flipped;
  auto kept = FilterWithNegativeRules(neg, l, r, matches, &flipped);
  ASSERT_TRUE(kept.ok());
  // (0,3): comparable federal numbers differing by a digit -> flipped.
  // (1,2): comparable WIS numbers differing -> flipped.
  EXPECT_TRUE(flipped.Contains({0, 3}));
  EXPECT_TRUE(flipped.Contains({1, 2}));
  EXPECT_TRUE(kept->Contains({0, 0}));
  EXPECT_TRUE(kept->Contains({2, 2}));
  EXPECT_EQ(kept->size() + flipped.size(), matches.size());
}

TEST(MatchRulesTest, EqualityRuleWithBothTransforms) {
  Table l = *ReadCsvString("K\nABC-1\n");
  Table r = *ReadCsvString("K\nabc-1\n");
  MatchRule rule = MakeEqualityRule(
      "ci", "K", "K",
      [](const std::string& s) { return AsciiToLower(s); },
      [](const std::string& s) { return AsciiToLower(s); });
  EXPECT_TRUE(rule.fires(l, 0, r, 0));
}

// --- per-kind evaluation over A × B vs the per-pair oracle --------------------

// ApplyRulesCartesian must return exactly the oracle's set at 1, 2 and 8
// threads.
void ExpectCartesianEqualsOracle(const std::vector<MatchRule>& rules,
                                 const Table& left, const Table& right,
                                 const std::string& what) {
  auto want = oracle::ApplyRulesCartesian(rules, left, right);
  ASSERT_TRUE(want.ok());
  for (size_t threads : {1, 2, 8}) {
    Executor pool(threads);
    auto got = ApplyRulesCartesian(rules, left, right, ExecutorContext{&pool});
    ASSERT_TRUE(got.ok()) << what;
    EXPECT_EQ(got->size(), want->size()) << what << " @" << threads;
    EXPECT_TRUE(*got == *want) << what << " @" << threads << " threads";
  }
}

const ProjectedTables& CaseStudyTables() {
  static const ProjectedTables* tables = [] {
    auto data = GenerateCaseStudy();
    EXPECT_TRUE(data.ok());
    auto projected = PreprocessCaseStudy(*data);
    EXPECT_TRUE(projected.ok());
    return new ProjectedTables(std::move(*projected));
  }();
  return *tables;
}

TEST(MatchRulesJoinTest, CaseStudyPositiveRulesMatchOracle) {
  const ProjectedTables& t = CaseStudyTables();
  ExpectCartesianEqualsOracle(PositiveRulesV1(), t.umetrics, t.usda,
                              "V1 umetrics");
  ExpectCartesianEqualsOracle(PositiveRulesV2(), t.umetrics, t.usda,
                              "V2 umetrics");
  ExpectCartesianEqualsOracle(PositiveRulesV1(), t.extra, t.usda, "V1 extra");
  ExpectCartesianEqualsOracle(PositiveRulesV2(), t.extra, t.usda, "V2 extra");
  auto sure = ApplyRulesCartesian(PositiveRulesV2(), t.umetrics, t.usda);
  ASSERT_TRUE(sure.ok());
  EXPECT_GE(sure->size(), 650u);  // the rules really fire
}

// Key cells every random table starts with: null, empty, whitespace, an
// award number whose suffix is whitespace-only, and numbers that format to
// the same string as a text cell.
std::vector<Value> EdgeKeys() {
  return {Value(),           Value(""),        Value(" "),
          Value("10.200 "),  Value("10.203  \t"), Value(int64_t{42}),
          Value("42"),       Value(1.5),       Value("1.5")};
}

// A seeded random key: an award number, a bare suffix, a cased variant, a
// number or one of the edge cells. The pools are small, so every key repeats
// on both sides.
Value RandomKey(RandomEngine& rng) {
  static const char* kSuffixes[] = {"WIS01040", "WIS04509", "2008-34103-19449",
                                    "2008-34103-19440", "MSN000111"};
  static const char* kPrefixes[] = {"10.200", "10.203", "10.310"};
  const std::string suffix = kSuffixes[rng.NextBelow(5)];
  switch (rng.NextBelow(7)) {
    case 0:
      return Value(std::string(kPrefixes[rng.NextBelow(3)]) + " " + suffix);
    case 1:
      return Value(suffix);
    case 2:
      return Value(AsciiToLower(suffix));
    case 3:
      return Value(static_cast<int64_t>(rng.NextBelow(50)));
    case 4:
      return Value(static_cast<double>(rng.NextBelow(4)) + 0.5);
    default: {
      std::vector<Value> edge = EdgeKeys();
      return edge[rng.NextBelow(edge.size())];
    }
  }
}

// Short titles one or two edits apart, plus empty and null cells.
Value RandomTitle(RandomEngine& rng) {
  static const char* kTitles[] = {"corn yield",   "corn yeild",  "corn yields",
                                  "swamp dodder", "swamp doder", "dodder",
                                  "a",            "",            "ab"};
  if (rng.NextBelow(8) == 0) return Value();
  return Value(kTitles[rng.NextBelow(9)]);
}

// Columns K and Title, plus P on the right (the project-number role).
Table RandomRuleTable(size_t rows, bool with_project, uint64_t seed) {
  std::vector<Field> fields = {{"K", DataType::kString},
                               {"Title", DataType::kString}};
  if (with_project) fields.push_back({"P", DataType::kString});
  Table t{Schema(fields)};
  RandomEngine rng(seed);
  std::vector<Value> edge = EdgeKeys();
  for (size_t i = 0; i < rows; ++i) {
    std::vector<Value> row = {i < edge.size() ? edge[i] : RandomKey(rng),
                              RandomTitle(rng)};
    if (with_project) row.push_back(RandomKey(rng));
    EXPECT_TRUE(t.AppendRow(std::move(row)).ok());
  }
  return t;
}

TEST(MatchRulesJoinTest, RandomTablesMatchOracleForEveryKind) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    Table left = RandomRuleTable(60, /*with_project=*/false, seed);
    Table right = RandomRuleTable(70, /*with_project=*/true, seed + 100);
    std::vector<MatchRule> rules = {
        MakeEqualityRule("eq", "K", "K"),
        MakeM1AwardNumberRule("K", "K"),
        MakeAwardProjectNumberRule("K", "P"),
        MakeEqualityRule("eq_suffix_lower", "K", "K", AwardNumberSuffix,
                         AsciiToLower),
        MakeEqualityRule("eq_lower_suffix", "K", "P", AsciiToLower,
                         AwardNumberSuffix),
        MakeLevenshteinRule("lev50", "Title", "Title", 0.5),
        MakeLevenshteinRule("lev80", "Title", "Title", 0.8),
        MakeLevenshteinRule("lev100", "Title", "Title", 1.0),
        MakeLevenshteinRule("lev80_key", "K", "P", 0.8, AwardNumberSuffix,
                            AsciiToLower),
        MakeComparableMismatchRule("neg_kk", "K", "K", AwardNumberSuffix),
        MakeComparableMismatchRule("neg_kp", "K", "P", AwardNumberSuffix,
                                   AsciiToLower),
    };
    size_t fired = 0;
    for (const MatchRule& rule : rules) {
      std::string what = rule.name + " seed " + std::to_string(seed);
      ExpectCartesianEqualsOracle({rule}, left, right, what);
      fired += oracle::ApplyRulesCartesian({rule}, left, right)->size();
    }
    EXPECT_GT(fired, 0u);
    // Mixed lists: the union of the per-rule sets.
    ExpectCartesianEqualsOracle(rules, left, right,
                                "all seed " + std::to_string(seed));
    ExpectCartesianEqualsOracle({rules[1], rules[6], rules[10]}, left, right,
                                "mixed seed " + std::to_string(seed));
  }
}

TEST(MatchRulesJoinTest, CellWithoutKeyNeverFires) {
  // Null, empty, and an award number whose suffix is whitespace only: no
  // kind fires, not even against an identical cell.
  Table t{Schema({{"K", DataType::kString}, {"Title", DataType::kString}})};
  ASSERT_TRUE(t.AppendRow({Value(), Value()}).ok());
  ASSERT_TRUE(t.AppendRow({Value("10.200  "), Value("")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(""), Value("")}).ok());
  std::vector<MatchRule> rules = {
      MakeEqualityRule("eq", "K", "K", AwardNumberSuffix, AwardNumberSuffix),
      MakeEqualityRule("eq_title", "Title", "Title"),
      MakeLevenshteinRule("lev", "K", "K", 0.0, AwardNumberSuffix,
                          AwardNumberSuffix),
      MakeLevenshteinRule("lev_title", "Title", "Title", 1.0),
      MakeComparableMismatchRule("neg", "K", "K", AwardNumberSuffix,
                                 AwardNumberSuffix)};
  for (const MatchRule& rule : rules) {
    for (size_t l = 0; l < t.num_rows(); ++l) {
      EXPECT_EQ(rule.LeftKey(t, l), "") << rule.name;
      for (size_t r = 0; r < t.num_rows(); ++r) {
        EXPECT_FALSE(rule.fires(t, l, t, r)) << rule.name;
      }
    }
  }
  auto got = ApplyRulesCartesian(rules, t, t);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

TEST(MatchRulesJoinTest, MissingColumnYieldsNoPairsAndNoError) {
  Table l = RuleLeft(), r = RuleRight();
  MatchRule m1 = MakeM1AwardNumberRule("AwardNumber", "AwardNumber");
  std::vector<MatchRule> missing = {
      MakeEqualityRule("left_missing", "Nope", "AwardNumber"),
      MakeEqualityRule("right_missing", "AwardNumber", "Nope"),
      MakeLevenshteinRule("lev_missing", "Nope", "Title", 0.5),
      MakeComparableMismatchRule("neg_missing", "AwardNumber", "Nope")};
  for (const MatchRule& rule : missing) {
    ExpectCartesianEqualsOracle({rule}, l, r, rule.name);
    auto got = ApplyRulesCartesian({rule}, l, r);
    ASSERT_TRUE(got.ok()) << rule.name;
    EXPECT_TRUE(got->empty()) << rule.name;
    // Alongside a rule that fires, the missing one just adds nothing.
    auto mixed = ApplyRulesCartesian({rule, m1}, l, r);
    auto alone = ApplyRulesCartesian({m1}, l, r);
    ASSERT_TRUE(mixed.ok() && alone.ok());
    EXPECT_TRUE(*mixed == *alone) << rule.name;
  }
  // The blocker on the same input still reports the missing column.
  EXPECT_EQ(AttrEquivalenceBlocker("Nope", "AwardNumber")
                .Block(l, r)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(AttrEquivalenceBlocker("AwardNumber", "Nope")
                .Block(l, r)
                .status()
                .code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace emx
