// Equivalence suite for the sequence-kernel layer: the bit-parallel
// Levenshtein (single-word and blocked), the banded bounded variant, the
// threshold predicate, and every scratch-backed DP measure (Jaro,
// Jaro-Winkler, Needleman-Wunsch, Smith-Waterman, affine gap) must be
// BIT-IDENTICAL to the retained scalar oracles — on a randomized 10k-pair
// corpus covering empty, 1-char, >64-char, >512-char, equal, disjoint, and
// UTF-8-byte strings — at 1/2/8 threads (each thread owns a thread_local
// DpScratch). A grow-count hook (plus a global operator-new counter in
// unsanitized builds) proves the measures allocate nothing after warm-up.

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/feature/feature.h"
#include "src/prep/prepared_column.h"
#include "src/rules/match_rules.h"
#include "src/table/table.h"
#include "src/text/phonetic.h"
#include "src/text/sequence_kernel.h"
#include "src/text/sequence_similarity.h"
#include "tests/oracle/feature_oracle.h"

// ---------- allocation-counting hook (unsanitized builds only) ----------
//
// Global operator new replacement counting heap allocations made while a
// thread has armed the counter. Sanitizer builds keep their own allocator
// interposition, so the hook compiles away there; the plain CI job still
// runs it, which is what catches a reintroduced per-call std::vector.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__) && \
    !defined(ADDRESS_SANITIZER) && !defined(THREAD_SANITIZER)
#if defined(__has_feature)
#if !__has_feature(address_sanitizer) && !__has_feature(thread_sanitizer)
#define EMX_COUNT_ALLOCATIONS 1
#endif
#else
#define EMX_COUNT_ALLOCATIONS 1
#endif
#endif

namespace {
thread_local bool t_count_allocs = false;
thread_local size_t t_alloc_count = 0;
}  // namespace

#ifdef EMX_COUNT_ALLOCATIONS
// GCC's -Wmismatched-new-delete cannot see that this replacement operator
// new is malloc-backed, so the free() in operator delete is in fact matched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  if (t_count_allocs) ++t_alloc_count;
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace emx {
namespace {

// ---------- corpus ----------

// A pair with both sides drawn from one of the deliberate shape classes.
struct StringPair {
  std::string a;
  std::string b;
};

std::string RandomString(std::mt19937& rng, size_t len, char lo, char hi) {
  std::uniform_int_distribution<int> c(lo, hi);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) s += static_cast<char>(c(rng));
  return s;
}

std::string RandomUtf8(std::mt19937& rng, size_t chars) {
  static const char* kGlyphs[] = {"ü", "ß", "é", "λ", "文", "字", "🌽",
                                  "a", "n", " ", "Å", "ç"};
  std::uniform_int_distribution<size_t> pick(0, std::size(kGlyphs) - 1);
  std::string s;
  for (size_t i = 0; i < chars; ++i) s += kGlyphs[pick(rng)];
  return s;
}

// Mutates a few positions/edits so near-duplicates (the interesting regime
// for edit distance) are well represented.
std::string Mutate(std::mt19937& rng, std::string s) {
  if (s.empty()) return s;
  std::uniform_int_distribution<size_t> pos(0, s.size() - 1);
  std::uniform_int_distribution<int> kind(0, 2);
  std::uniform_int_distribution<int> c('a', 'z');
  std::uniform_int_distribution<int> edits(1, 4);
  int n = edits(rng);
  for (int e = 0; e < n && !s.empty(); ++e) {
    size_t p = pos(rng) % s.size();
    switch (kind(rng)) {
      case 0:
        s[p] = static_cast<char>(c(rng));
        break;
      case 1:
        s.erase(p, 1);
        break;
      default:
        s.insert(p, 1, static_cast<char>(c(rng)));
        break;
    }
  }
  return s;
}

std::vector<StringPair> BuildCorpus(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> klass(0, 99);
  std::uniform_int_distribution<size_t> tiny(1, 1);
  std::uniform_int_distribution<size_t> small(2, 64);
  std::uniform_int_distribution<size_t> medium(65, 128);
  std::uniform_int_distribution<size_t> xl(513, 700);
  std::vector<StringPair> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int k = klass(rng);
    StringPair p;
    if (k < 5) {  // empty on at least one side
      p.a = "";
      p.b = k < 2 ? "" : RandomString(rng, small(rng), 'a', 'z');
    } else if (k < 12) {  // 1-char
      p.a = RandomString(rng, tiny(rng), 'a', 'f');
      p.b = RandomString(rng, tiny(rng), 'a', 'f');
    } else if (k < 20) {  // equal
      p.a = RandomString(rng, small(rng), 'a', 'z');
      p.b = p.a;
    } else if (k < 28) {  // near-duplicates
      p.a = RandomString(rng, small(rng), 'a', 'j');
      p.b = Mutate(rng, p.a);
    } else if (k < 36) {  // disjoint alphabets: zero matches
      p.a = RandomString(rng, small(rng), 'a', 'm');
      p.b = RandomString(rng, small(rng), 'n', 'z');
    } else if (k < 44) {  // UTF-8 multi-byte sequences, compared bytewise
      p.a = RandomUtf8(rng, small(rng) / 2 + 1);
      p.b = k % 2 == 0 ? Mutate(rng, p.a) : RandomUtf8(rng, small(rng) / 2 + 1);
    } else if (k < 48) {  // crosses the single-word boundary (>64)
      p.a = RandomString(rng, medium(rng), 'a', 'h');
      p.b = k % 2 == 0 ? Mutate(rng, p.a) : RandomString(rng, medium(rng), 'a', 'h');
    } else if (k < 49) {  // blocked multi-word territory (>512)
      p.a = RandomString(rng, xl(rng), 'a', 'e');
      p.b = k % 2 == 0 ? Mutate(rng, p.a) : RandomString(rng, xl(rng), 'a', 'e');
    } else {  // generic short strings over the full lowercase alphabet
      p.a = RandomString(rng, small(rng), 'a', 'z');
      p.b = RandomString(rng, small(rng), 'a', 'z');
    }
    out.push_back(std::move(p));
  }
  return out;
}

// Bitwise double equality (the measures never produce NaN).
#define EXPECT_BITEQ(x, y, ctx)                                       \
  do {                                                                \
    double vx = (x), vy = (y);                                        \
    EXPECT_EQ(vx, vy) << ctx << " a=\"" << p.a.substr(0, 40) << "\""  \
                      << " b=\"" << p.b.substr(0, 40) << "\""         \
                      << " (lens " << p.a.size() << "/" << p.b.size() \
                      << ")";                                         \
  } while (0)

// Asserts every sequence measure agrees bit-exactly with its oracle on `p`.
// The affine-gap oracle materializes three full tables, so it is skipped on
// the XL class (a dedicated test covers XL affine gap).
void CheckPair(const StringPair& p) {
  EXPECT_EQ(LevenshteinDistance(p.a, p.b),
            oracle::LevenshteinDistance(p.a, p.b))
      << "lev distance a=" << p.a.substr(0, 40) << " b=" << p.b.substr(0, 40);
  EXPECT_BITEQ(LevenshteinSimilarity(p.a, p.b),
               oracle::LevenshteinSimilarity(p.a, p.b), "lev sim");
  EXPECT_BITEQ(JaroSimilarity(p.a, p.b), oracle::JaroSimilarity(p.a, p.b),
               "jaro");
  EXPECT_BITEQ(JaroWinklerSimilarity(p.a, p.b),
               oracle::JaroWinklerSimilarity(p.a, p.b), "jw");
  EXPECT_BITEQ(NeedlemanWunschScore(p.a, p.b),
               oracle::NeedlemanWunschScore(p.a, p.b), "nw score");
  EXPECT_BITEQ(NeedlemanWunschSimilarity(p.a, p.b),
               oracle::NeedlemanWunschSimilarity(p.a, p.b), "nw sim");
  EXPECT_BITEQ(SmithWatermanScore(p.a, p.b),
               oracle::SmithWatermanScore(p.a, p.b), "sw score");
  EXPECT_BITEQ(SmithWatermanSimilarity(p.a, p.b),
               oracle::SmithWatermanSimilarity(p.a, p.b), "sw sim");
  if (p.a.size() <= 256 && p.b.size() <= 256) {
    EXPECT_BITEQ(AffineGapSimilarity(p.a, p.b),
                 oracle::AffineGapSimilarity(p.a, p.b), "affine");
  }
}

// ---------- the randomized property suite, at 1/2/8 threads ----------

TEST(SequenceKernelTest, BitExactVsOracleOnRandomizedCorpusAt128Threads) {
  const std::vector<StringPair> corpus = BuildCorpus(10000, 1234);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        // Static partition: every thread exercises its own thread_local
        // DpScratch across the full length spectrum.
        for (size_t i = t; i < corpus.size(); i += threads) {
          CheckPair(corpus[i]);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
}

// ---------- scratch reuse: no allocations after warm-up ----------

TEST(DpScratchTest, SequenceMeasuresDoNotAllocateAfterWarmup) {
  std::mt19937 rng(99);
  // Warm-up at the high-water mark every later call stays under.
  const std::string big_a = RandomString(rng, 700, 'a', 'z');
  const std::string big_b = RandomString(rng, 700, 'a', 'z');
  const std::vector<StringPair> corpus = BuildCorpus(400, 4321);
  auto score_all = [&](const StringPair& p) {
    (void)LevenshteinDistance(p.a, p.b);
    (void)LevenshteinSimilarity(p.a, p.b);
    (void)JaroSimilarity(p.a, p.b);
    (void)JaroWinklerSimilarity(p.a, p.b);
    (void)NeedlemanWunschScore(p.a, p.b);
    (void)SmithWatermanScore(p.a, p.b);
    (void)AffineGapSimilarity(p.a, p.b);
    (void)LevenshteinSimilarityAtLeast(p.a, p.b, 0.7);
  };
  score_all({big_a, big_b});
  score_all({big_a, big_b});

  const size_t grows_before = DpScratch::Tls().grow_count();
#ifdef EMX_COUNT_ALLOCATIONS
  t_alloc_count = 0;
  t_count_allocs = true;
#endif
  for (const StringPair& p : corpus) score_all(p);
#ifdef EMX_COUNT_ALLOCATIONS
  t_count_allocs = false;
  EXPECT_EQ(t_alloc_count, 0u)
      << "a sequence measure heap-allocated after warm-up";
#endif
  EXPECT_EQ(DpScratch::Tls().grow_count(), grows_before)
      << "DpScratch grew after warm-up at the high-water mark";
}

TEST(DpScratchTest, GrowCountIsPerThread) {
  // A fresh thread starts with an empty scratch and grows it independently.
  std::thread([] {
    EXPECT_EQ(DpScratch::Tls().grow_count(), 0u);
    (void)LevenshteinDistance("kitten", "sitting");
    (void)JaroSimilarity("martha", "marhta");
    EXPECT_GT(DpScratch::Tls().grow_count(), 0u);
  }).join();
}

// ---------- bounded / threshold kernels ----------

TEST(BoundedLevenshteinTest, ExactCutoffMatchesOracle) {
  std::mt19937 rng(7);
  const std::vector<StringPair> corpus = BuildCorpus(2000, 777);
  std::uniform_int_distribution<int> limits(0, 40);
  for (const StringPair& p : corpus) {
    const int d = oracle::LevenshteinDistance(p.a, p.b);
    const int limit = limits(rng);
    const int want = d <= limit ? d : limit + 1;
    EXPECT_EQ(BoundedLevenshtein(p.a, p.b, limit, &DpScratch::Tls()), want)
        << "limit=" << limit << " true d=" << d;
  }
}

TEST(LevenshteinSimilarityAtLeastTest, DecisionMatchesFullScore) {
  std::mt19937 rng(13);
  const std::vector<StringPair> corpus = BuildCorpus(2000, 555);
  std::uniform_real_distribution<double> thresholds(0.0, 1.0);
  for (const StringPair& p : corpus) {
    const double sim = oracle::LevenshteinSimilarity(p.a, p.b);
    const double t = thresholds(rng);
    EXPECT_EQ(LevenshteinSimilarityAtLeast(p.a, p.b, t), sim >= t)
        << "t=" << t << " sim=" << sim;
    // Boundary thresholds: exactly the score (must pass) and one ulp above
    // (must fail) — the short-circuits may not blur the decision edge.
    EXPECT_TRUE(LevenshteinSimilarityAtLeast(p.a, p.b, sim));
    const double above = std::nextafter(sim, 2.0);
    EXPECT_EQ(LevenshteinSimilarityAtLeast(p.a, p.b, above), sim >= above);
  }
}

TEST(LevenshteinSimilarityUpperBoundTest, BoundsTheTrueSimilarity) {
  const std::vector<StringPair> corpus = BuildCorpus(500, 31);
  for (const StringPair& p : corpus) {
    EXPECT_LE(oracle::LevenshteinSimilarity(p.a, p.b),
              LevenshteinSimilarityUpperBound(p.a.size(), p.b.size()));
  }
}

// ---------- NW/SW orientation (loop-swap satellite) ----------

TEST(AlignmentOrientationTest, ScoresEqualOracleInBothArgumentOrders) {
  const std::vector<StringPair> corpus = BuildCorpus(600, 71);
  for (const StringPair& p : corpus) {
    // Non-default, asymmetric-looking parameters: the orientation swap must
    // hold for any (match, mismatch, gap), not just the defaults.
    EXPECT_EQ(NeedlemanWunschScore(p.a, p.b, 2.0, -1.0, -0.7),
              oracle::NeedlemanWunschScore(p.a, p.b, 2.0, -1.0, -0.7));
    EXPECT_EQ(NeedlemanWunschScore(p.b, p.a, 2.0, -1.0, -0.7),
              oracle::NeedlemanWunschScore(p.b, p.a, 2.0, -1.0, -0.7));
    EXPECT_EQ(SmithWatermanScore(p.a, p.b, 2.0, -1.0, -0.7),
              oracle::SmithWatermanScore(p.a, p.b, 2.0, -1.0, -0.7));
    EXPECT_EQ(SmithWatermanScore(p.b, p.a, 2.0, -1.0, -0.7),
              oracle::SmithWatermanScore(p.b, p.a, 2.0, -1.0, -0.7));
  }
}

// ---------- XL affine gap (skipped in the main sweep for oracle cost) ----

TEST(AffineGapTest, BitExactOnXlStrings) {
  std::mt19937 rng(3);
  for (int i = 0; i < 3; ++i) {
    std::string a = RandomString(rng, 520 + 30 * i, 'a', 'f');
    std::string b = i == 0 ? Mutate(rng, a) : RandomString(rng, 540, 'a', 'f');
    EXPECT_EQ(AffineGapSimilarity(a, b), oracle::AffineGapSimilarity(a, b));
  }
}

// ---------- wiring: feature + rule layers ----------

TEST(AffineGapFeatureTest, ScoresThroughKernelOnBothPaths) {
  Feature f = MakeAffineGapFeature("name", "name", /*lowercase=*/true);
  EXPECT_EQ(f.name, "lc_name_ag");
  ASSERT_TRUE(f.has_prep());
  const Value a(std::string("Smith, J"));
  const Value b(std::string("smith, john r"));
  const double want = AffineGapSimilarity("smith, j", "smith, john r");
  // The per-pair oracle path...
  EXPECT_EQ(oracle::ScorePair(f, a, b), want);
  EXPECT_TRUE(std::isnan(oracle::ScorePair(f, Value::Null(), b)));

  // ...and the production path: ScoreFeature over prepared columns.
  std::vector<Value> lcol{a, Value::Null()}, rcol{b, b};
  PrepCache cache;
  PrepOptions opts{/*lowercase=*/true, /*strip_punctuation=*/false};
  auto lprep = cache.Get(lcol, opts, nullptr);
  auto rprep = cache.Get(rcol, opts, nullptr);
  const uint32_t rows[] = {0, 1};
  double out[2];
  ScoreFeature(f, {lcol.data(), lprep.get(), rows},
               {rcol.data(), rprep.get(), rows}, 2, out);
  EXPECT_EQ(out[0], want);
  EXPECT_TRUE(std::isnan(out[1]));
}

TEST(LevenshteinRuleTest, ShortCircuitMatchesFullPredicate) {
  Schema schema({{"id", DataType::kInt64}, {"title", DataType::kString}});
  Table left(schema), right(schema);
  const char* lt[] = {"applied corn ecology", "swamp dodder study", "", "ab",
                      "a very long award title about maize genetics"};
  const char* rt[] = {"applied corn ecology", "swamp doder study", "x", "ba",
                      "short"};
  for (int i = 0; i < 5; ++i) {
    (void)left.AppendRow({Value(int64_t{i}), Value(std::string(lt[i]))});
    (void)right.AppendRow({Value(int64_t{i}), Value(std::string(rt[i]))});
  }
  for (double t : {0.5, 0.8, 0.95, 1.0}) {
    MatchRule rule = MakeLevenshteinRule("lev_rule", "title", "title", t);
    for (size_t l = 0; l < 5; ++l) {
      for (size_t r = 0; r < 5; ++r) {
        const Value& lv = left.at(l, "title");
        const Value& rv = right.at(r, "title");
        bool expect = !lv.AsString().empty() && !rv.AsString().empty() &&
                      LevenshteinSimilarity(lv.AsString(), rv.AsString()) >= t;
        EXPECT_EQ(rule.fires(left, l, right, r), expect)
            << "t=" << t << " l=" << l << " r=" << r;
      }
    }
  }
}

// ---------- known-value spot checks (kernel path) ----------

TEST(MyersLevenshteinTest, KnownDistancesThroughKernel) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2);
  // Exactly 64 / 65 chars: the single-word/blocked boundary.
  std::string s64(64, 'a'), s65(65, 'a');
  EXPECT_EQ(LevenshteinDistance(s64, s64), 0);
  EXPECT_EQ(LevenshteinDistance(s64, s65), 1);
  EXPECT_EQ(LevenshteinDistance(s65, s65 + "bc"), 2);
}

}  // namespace
}  // namespace emx
