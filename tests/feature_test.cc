#include <cmath>

#include <gtest/gtest.h>

#include "src/feature/attribute_type.h"
#include "src/feature/feature.h"
#include "src/feature/feature_gen.h"
#include "src/feature/vectorizer.h"
#include "src/table/csv.h"

namespace emx {
namespace {

// --- attribute type inference -------------------------------------------------

std::vector<Value> Col(std::initializer_list<Value> vs) { return vs; }

TEST(AttrKindTest, Numeric) {
  EXPECT_EQ(InferAttrKind(Col({Value(1.5), Value(int64_t{2}), Value::Null()})),
            AttrKind::kNumeric);
}

TEST(AttrKindTest, Boolean) {
  EXPECT_EQ(InferAttrKind(Col({Value(int64_t{0}), Value(int64_t{1})})),
            AttrKind::kBoolean);
  // 0/1 doubles count too.
  EXPECT_EQ(InferAttrKind(Col({Value(0.0), Value(1.0)})), AttrKind::kBoolean);
}

TEST(AttrKindTest, StringBucketsByWordCount) {
  EXPECT_EQ(InferAttrKind(Col({Value("WIS01040"), Value("WIS04059")})),
            AttrKind::kShortString);
  EXPECT_EQ(InferAttrKind(Col({Value("corn fungicide study")})),
            AttrKind::kMediumString);
  EXPECT_EQ(InferAttrKind(
                Col({Value("one two three four five six seven eight")})),
            AttrKind::kLongString);
  EXPECT_EQ(InferAttrKind(Col({Value(
                "a b c d e f g h i j k l m n o p q r s t u v w x y z")})),
            AttrKind::kVeryLongString);
}

TEST(AttrKindTest, EmptyOrAllNullDefaultsToShortString) {
  EXPECT_EQ(InferAttrKind({}), AttrKind::kShortString);
  EXPECT_EQ(InferAttrKind(Col({Value::Null(), Value::Null()})),
            AttrKind::kShortString);
}

TEST(AttrKindTest, MixedNumericAndStringIsString) {
  EXPECT_EQ(InferAttrKind(Col({Value(int64_t{3}), Value("abc")})),
            AttrKind::kShortString);
}

// --- individual features ----------------------------------------------------

// Scores one (a, b) pair through the production path: a 1x1
// VectorizePairsBatch over one-row tables holding a and b.
double Score(const Feature& f, const Value& a, const Value& b) {
  Table left(Schema({{f.left_attr, DataType::kAny}}));
  Table right(Schema({{f.right_attr, DataType::kAny}}));
  EXPECT_TRUE(left.AppendRow({a}).ok());
  EXPECT_TRUE(right.AppendRow({b}).ok());
  FeatureSet set;
  set.features.push_back(f);
  CandidateSet pair(std::vector<RecordPair>{{0, 0}});
  auto batch = VectorizePairsBatch(left, right, pair, set);
  EXPECT_TRUE(batch.ok());
  return batch.ok() ? batch->At(0, 0) : 0.0;
}

TEST(FeatureTest, NullInputsYieldNaN) {
  Feature f = MakeJaccardFeature("t", "t");
  EXPECT_TRUE(std::isnan(Score(f, Value::Null(), Value("x"))));
  EXPECT_TRUE(std::isnan(Score(f, Value("x"), Value::Null())));
  EXPECT_FALSE(std::isnan(Score(f, Value("x"), Value("x"))));
}

TEST(FeatureTest, ExactMatchRespectsCaseFlag) {
  Feature sensitive = MakeExactMatchFeature("t", "t", /*lowercase=*/false);
  Feature insensitive = MakeExactMatchFeature("t", "t", /*lowercase=*/true);
  EXPECT_DOUBLE_EQ(Score(sensitive, Value("ABC"), Value("abc")), 0.0);
  EXPECT_DOUBLE_EQ(Score(insensitive, Value("ABC"), Value("abc")), 1.0);
  EXPECT_EQ(sensitive.name, "t_exact");
  EXPECT_EQ(insensitive.name, "lc_t_exact");
}

TEST(FeatureTest, LowercaseTwinFixesCaseBlindness) {
  // The §9 debugging story in miniature: UPPERCASE vs Mixed Case titles.
  Value upper("CORN FUNGICIDE GUIDELINES");
  Value mixed("Corn Fungicide Guidelines");
  Feature plain = MakeJaccardFeature("t", "t", /*qgram=*/0);
  Feature fixed = MakeJaccardFeature("t", "t", /*qgram=*/0, /*lowercase=*/true);
  EXPECT_DOUBLE_EQ(Score(plain, upper, mixed), 0.0);
  EXPECT_DOUBLE_EQ(Score(fixed, upper, mixed), 1.0);
}

TEST(FeatureTest, NumericFeatures) {
  EXPECT_DOUBLE_EQ(
      Score(MakeAbsDiffFeature("n", "n"), Value(3.0), Value(8.0)), 5.0);
  EXPECT_DOUBLE_EQ(
      Score(MakeRelativeSimFeature("n", "n"), Value(5.0), Value(10.0)), 0.5);
  EXPECT_DOUBLE_EQ(
      Score(MakeNumericExactFeature("n", "n"), Value(int64_t{4}), Value(4.0)),
      1.0);
  // Strings are not coerced: NaN.
  EXPECT_TRUE(std::isnan(
      Score(MakeAbsDiffFeature("n", "n"), Value("3"), Value(3.0))));
}

TEST(FeatureTest, YearDiffParsesBothDateStyles) {
  Feature f = MakeYearDiffFeature("d", "d");
  // ISO vs paper's "M/D/YY" style.
  EXPECT_DOUBLE_EQ(Score(f, Value("2008-10-01"), Value("10/1/08")), 0.0);
  EXPECT_DOUBLE_EQ(
      Score(f, Value("2008-34103-19449"), Value("2011-09-30")), 3.0);
  EXPECT_TRUE(std::isnan(Score(f, Value("no year"), Value("2008-01-01"))));
}

TEST(FeatureTest, YearDiffRejectsOverlongDigitRunsWithoutThrowing) {
  Feature f = MakeYearDiffFeature("d", "d");
  // A slash-date whose "year" tail exceeds int range used to escape as
  // std::out_of_range from std::stoi; now it is simply not a year.
  EXPECT_TRUE(
      std::isnan(Score(f, Value("10/1/9999999999"), Value("2008-01-01"))));
  EXPECT_TRUE(std::isnan(Score(f, Value("1/1/123456789012345678901234567890"),
                               Value("2008-01-01"))));
  // 3-digit tails are not years either (neither YY nor YYYY).
  EXPECT_TRUE(std::isnan(Score(f, Value("10/1/200"), Value("2008-01-01"))));
  // Valid 2- and 4-digit tails still parse.
  EXPECT_DOUBLE_EQ(Score(f, Value("10/1/08"), Value("2008-01-01")), 0.0);
  EXPECT_DOUBLE_EQ(Score(f, Value("10/1/2009"), Value("2008-01-01")), 1.0);
}

TEST(FeatureTest, StringMeasureFamiliesAgreeWithCore) {
  Value a("swamp dodder ecology");
  Value b("swamp dodder applied ecology");
  EXPECT_GT(Score(MakeMongeElkanFeature("t", "t"), a, b), 0.8);
  EXPECT_GT(Score(MakeCosineFeature("t", "t"), a, b), 0.8);
  EXPECT_DOUBLE_EQ(Score(MakeOverlapCoefficientFeature("t", "t"), a, b),
                   1.0);
  EXPECT_GT(Score(MakeJaroWinklerFeature("t", "t"), a, b), 0.8);
  EXPECT_LT(Score(MakeLevenshteinFeature("t", "t"), a, b), 1.0);
  EXPECT_GT(Score(MakeSmithWatermanFeature("t", "t"), a, b), 0.6);
  EXPECT_GT(Score(MakeNeedlemanWunschFeature("t", "t"), a, b), 0.5);
  EXPECT_GT(Score(MakeDiceFeature("t", "t"), a, b), 0.8);
  EXPECT_GT(Score(MakeJaroFeature("t", "t"), a, b), 0.8);
}

// --- automatic generation ------------------------------------------------------

Table FeatLeft() {
  return *ReadCsvString(
      "RecordId,Code,Title,Amount\n"
      "0,WIS01,corn fungicide study,100\n"
      "1,WIS02,swamp dodder ecology plan,250\n");
}

Table FeatRight() {
  return *ReadCsvString(
      "RecordId,Code,Title,Amount,Extra\n"
      "0,WIS01,Corn Fungicide Study,100,x\n"
      "1,WIS09,other thing entirely,90,y\n");
}

TEST(FeatureGenTest, SharedAttributesOnly) {
  auto set = GenerateFeatures(FeatLeft(), FeatRight(),
                              {.exclude = {"RecordId"}, .lowercase_variants = {}});
  ASSERT_TRUE(set.ok());
  for (const Feature& f : set->features) {
    EXPECT_NE(f.left_attr, "RecordId");
    EXPECT_NE(f.left_attr, "Extra");  // not shared
  }
  EXPECT_FALSE(set->features.empty());
}

TEST(FeatureGenTest, KindsDriveMeasureSelection) {
  auto set = GenerateFeatures(FeatLeft(), FeatRight(),
                              {.exclude = {"RecordId"}, .lowercase_variants = {}});
  ASSERT_TRUE(set.ok());
  bool has_code_exact = false, has_title_jac = false, has_amount_absdiff = false;
  for (const auto& name : set->names()) {
    if (name == "Code_exact") has_code_exact = true;
    if (name == "Title_jac_ws") has_title_jac = true;
    if (name == "Amount_absdiff") has_amount_absdiff = true;
  }
  EXPECT_TRUE(has_code_exact);
  EXPECT_TRUE(has_title_jac);
  EXPECT_TRUE(has_amount_absdiff);
}

TEST(FeatureGenTest, LowercaseVariantsOnRequest) {
  auto plain = GenerateFeatures(FeatLeft(), FeatRight(),
                                {.exclude = {"RecordId"}, .lowercase_variants = {}});
  auto fixed = GenerateFeatures(
      FeatLeft(), FeatRight(),
      {.exclude = {"RecordId"}, .lowercase_variants = {"Title"}});
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(fixed.ok());
  EXPECT_GT(fixed->features.size(), plain->features.size());
  bool has_lc = false;
  for (const auto& name : fixed->names()) {
    if (name.rfind("lc_Title", 0) == 0) has_lc = true;
  }
  EXPECT_TRUE(has_lc);
}

TEST(FeatureGenTest, NoSharedAttributesIsError) {
  Table l = *ReadCsvString("A\nx\n");
  Table r = *ReadCsvString("B\ny\n");
  EXPECT_EQ(GenerateFeatures(l, r).status().code(),
            StatusCode::kInvalidArgument);
}

// --- vectorizer & imputer --------------------------------------------------------

TEST(VectorizerTest, RowsAlignWithPairs) {
  Table l = FeatLeft(), r = FeatRight();
  auto set = GenerateFeatures(l, r, {.exclude = {"RecordId"},
                                     .lowercase_variants = {"Title"}});
  ASSERT_TRUE(set.ok());
  CandidateSet pairs(std::vector<RecordPair>{{0, 0}, {1, 1}});
  auto m = VectorizePairs(l, r, pairs, *set);
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->num_rows(), 2u);
  EXPECT_EQ(m->num_features(), set->features.size());
  // Pair (0,0) is the same grant modulo case; its lc title jaccard is 1.
  int lc_idx = -1;
  for (size_t i = 0; i < m->feature_names.size(); ++i) {
    if (m->feature_names[i] == "lc_Title_jac_ws") lc_idx = static_cast<int>(i);
  }
  ASSERT_GE(lc_idx, 0);
  EXPECT_DOUBLE_EQ(m->rows[0][lc_idx], 1.0);
  EXPECT_LT(m->rows[1][lc_idx], 0.5);
}

TEST(VectorizerTest, UnknownFeatureAttrIsNotFound) {
  Table l = FeatLeft(), r = FeatRight();
  FeatureSet set;
  set.features.push_back(MakeJaccardFeature("Missing", "Missing"));
  CandidateSet pairs(std::vector<RecordPair>{{0, 0}});
  EXPECT_EQ(VectorizePairs(l, r, pairs, set).status().code(),
            StatusCode::kNotFound);
}

TEST(ImputerTest, FillsNaNWithTrainingMeans) {
  FeatureMatrix train;
  train.feature_names = {"f0", "f1"};
  double nan = std::numeric_limits<double>::quiet_NaN();
  train.rows = {{1.0, nan}, {3.0, 4.0}, {nan, 8.0}};
  MeanImputer imp;
  imp.Fit(train);
  EXPECT_DOUBLE_EQ(imp.means()[0], 2.0);
  EXPECT_DOUBLE_EQ(imp.means()[1], 6.0);
  ASSERT_TRUE(imp.Transform(train).ok());
  EXPECT_DOUBLE_EQ(train.rows[0][1], 6.0);
  EXPECT_DOUBLE_EQ(train.rows[2][0], 2.0);
  EXPECT_DOUBLE_EQ(train.rows[1][0], 3.0);  // untouched
}

TEST(ImputerTest, AllNaNColumnGetsZero) {
  FeatureMatrix m;
  m.feature_names = {"f"};
  double nan = std::numeric_limits<double>::quiet_NaN();
  m.rows = {{nan}, {nan}};
  MeanImputer imp;
  imp.Fit(m);
  ASSERT_TRUE(imp.Transform(m).ok());
  EXPECT_DOUBLE_EQ(m.rows[0][0], 0.0);
}

TEST(ImputerTest, WidthMismatchFails) {
  FeatureMatrix a, b;
  a.feature_names = {"x"};
  a.rows = {{1.0}};
  b.feature_names = {"x", "y"};
  b.rows = {{1.0, 2.0}};
  MeanImputer imp;
  imp.Fit(a);
  EXPECT_EQ(imp.Transform(b).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace emx
