#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace scoop {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "not_found: missing thing");
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto fails = [] { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    SCOOP_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto producer = [](bool ok) -> Result<std::string> {
    if (!ok) return Status::NotFound("nope");
    return std::string("yes");
  };
  auto consumer = [&](bool ok) -> Result<size_t> {
    SCOOP_ASSIGN_OR_RETURN(std::string v, producer(ok));
    return v.size();
  };
  EXPECT_EQ(*consumer(true), 3u);
  EXPECT_TRUE(consumer(false).status().IsNotFound());
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, JoinRoundtrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  a b \t\n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, ParseInt64) {
  EXPECT_EQ(*ParseInt64("123"), 123);
  EXPECT_EQ(*ParseInt64("-5"), -5);
  EXPECT_EQ(*ParseInt64(" 42 "), 42);
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2e3"), -2000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringsTest, FastParseDoubleMatchesParseDoubleBitForBit) {
  // Shapes the fast path accepts must be bit-identical to strtod.
  for (const char* s : {"0", "7", "-12", "3.25", "-0.1", "123456.789",
                        "999999999999999", "0.00000000000001", "42.0"}) {
    double fast = 0;
    ASSERT_TRUE(FastParseDouble(s, &fast)) << s;
    EXPECT_EQ(fast, *ParseDouble(s)) << s;
  }
  // Everything else must decline (fall back to the strict parser), not
  // guess: exponents, 16+ digits, whitespace, empty parts, non-numbers.
  double out = 0;
  for (const char* s : {"", "-", ".", "1.", ".5", "1e3", "-2E-1", " 7",
                        "7 ", "inf", "nan", "0x10", "1234567890123456",
                        "1.23456789012345678", "+5", "1,5"}) {
    EXPECT_FALSE(FastParseDouble(s, &out)) << s;
  }
}

struct LikeCase {
  const char* text;
  const char* pattern;
  bool expected;
};

class LikeMatchTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeMatchTest, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(LikeMatch(c.text, c.pattern), c.expected)
      << c.text << " LIKE " << c.pattern;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LikeMatchTest,
    ::testing::Values(
        LikeCase{"2015-01-15", "2015-01%", true},
        LikeCase{"2015-02-15", "2015-01%", false},
        LikeCase{"Rotterdam", "Rotterdam", true},
        LikeCase{"Rotterdam", "rotterdam", false},  // case-sensitive
        LikeCase{"UKR", "U%", true},
        LikeCase{"FRA", "U%", false},
        LikeCase{"abc", "a_c", true},
        LikeCase{"abbc", "a_c", false},
        LikeCase{"", "%", true},
        LikeCase{"", "_", false},
        LikeCase{"anything", "%", true},
        LikeCase{"ab", "%b", true},
        LikeCase{"ab", "%a", false},
        LikeCase{"aXbXc", "a%b%c", true},
        LikeCase{"abc", "a%b%c%d", false},
        LikeCase{"aaa", "a%a", true}));

TEST(StringsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.00 B");
  EXPECT_EQ(FormatBytes(1024.0 * 1024.0 * 1.5), "1.50 MiB");
}

TEST(HashTest, Deterministic) {
  EXPECT_EQ(Fnv1a64("hello"), Fnv1a64("hello"));
  EXPECT_NE(Fnv1a64("hello"), Fnv1a64("hellp"));
  EXPECT_NE(Mix64(1), Mix64(2));
}

TEST(HashTest, Xxh64KnownAnswers) {
  EXPECT_EQ(Xxh64(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(Xxh64(std::string_view()), 0xef46db3751d8e999ULL);
  EXPECT_EQ(Xxh64("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(Xxh64("abc"), 0x44bc2cf5ad770999ULL);
  // 39 bytes: one 32-byte stripe, then the 4- and 1-byte tails.
  EXPECT_EQ(Xxh64("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ULL);
}

TEST(HashTest, Xxh64EveryLengthThroughTheTailsHashesDifferently) {
  // Lengths 0..80 cross the 32-byte stripe loop and the 8-, 4- and 1-byte
  // tails; every prefix must hash differently.
  std::string bytes;
  for (int i = 0; i <= 80; ++i) bytes.push_back(static_cast<char>(i * 37));
  std::set<uint64_t> seen;
  for (size_t len = 0; len <= 80; ++len) {
    EXPECT_TRUE(seen.insert(Xxh64(std::string_view(bytes).substr(0, len)))
                    .second)
        << "length " << len;
  }
}

TEST(HashTest, Xxh64SeesEveryByteOfAChunk) {
  std::string chunk(64 * 1024, '\0');
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (char& c : chunk) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    c = static_cast<char>(x >> 56);
  }
  const uint64_t clean = Xxh64(chunk);
  auto flipped_differs = [&](size_t pos) {
    chunk[pos] ^= 0x01;
    bool differs = Xxh64(chunk) != clean;
    chunk[pos] ^= 0x01;
    return differs;
  };
  for (size_t pos = 0; pos < 64; ++pos) {
    EXPECT_TRUE(flipped_differs(pos)) << "byte " << pos;
    EXPECT_TRUE(flipped_differs(chunk.size() - 1 - pos))
        << "byte " << chunk.size() - 1 - pos;
  }
  for (size_t pos = 64; pos < chunk.size() - 64; pos += 97) {
    EXPECT_TRUE(flipped_differs(pos)) << "byte " << pos;
  }
}

TEST(RandomTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, BoundsRespected) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, ZipfSkewsTowardsLowRanks) {
  ZipfSampler zipf(100, 0.99, 3);
  int low = 0;
  const int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf.Next() < 10) ++low;
  }
  // The head must receive far more than its uniform 10% share.
  EXPECT_GT(low, kDraws / 4);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.Submit([&] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  ParallelFor(pool, 50, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(MetricsTest, CountersAccumulate) {
  MetricRegistry registry;
  registry.GetCounter("a")->Add(5);
  registry.GetCounter("a")->Increment();
  registry.GetCounter("b")->Increment();
  auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "a");
  EXPECT_EQ(snapshot[0].second, 6);
  registry.ResetAll();
  EXPECT_EQ(registry.GetCounter("a")->value(), 0);
}

TEST(MetricsTest, TimeSeriesMath) {
  TimeSeries series;
  series.Add(0, 0.0);
  series.Add(1, 10.0);
  series.Add(2, 10.0);
  EXPECT_DOUBLE_EQ(series.Max(), 10.0);
  EXPECT_DOUBLE_EQ(series.Integral(), 15.0);
  EXPECT_DOUBLE_EQ(series.Mean(), 7.5);
  EXPECT_DOUBLE_EQ(series.Duration(), 2.0);
}

}  // namespace
}  // namespace scoop
