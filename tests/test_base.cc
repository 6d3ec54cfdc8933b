/**
 * @file
 * Unit tests for base utilities: logging, RNG, statistics, bit helpers,
 * and the typed copy-on-write array.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "base/bits.hh"
#include "base/cow.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "base/rng.hh"
#include "base/statistics.hh"

namespace merlin
{
namespace
{

// ------------------------------------------------------- base::parse

TEST(Parse, AcceptsStrictUnsignedIntegers)
{
    EXPECT_EQ(base::tryParseU64("0"), 0u);
    EXPECT_EQ(base::tryParseU64("42"), 42u);
    EXPECT_EQ(base::tryParseU64("18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(base::tryParseU64("ff", 16), 255u);
    EXPECT_EQ(base::parseU64("7", "--x"), 7u);
}

TEST(Parse, RejectsWhatStrtoullSilentlyAccepts)
{
    // strtoull wraps "-1" to 2^64-1, skips leading whitespace,
    // accepts "+", saturates on overflow, and stops at trailing junk
    // — all of these must be errors for flag values.
    EXPECT_FALSE(base::tryParseU64("-1"));
    EXPECT_FALSE(base::tryParseU64("+1"));
    EXPECT_FALSE(base::tryParseU64(" 1"));
    EXPECT_FALSE(base::tryParseU64("1 "));
    EXPECT_FALSE(base::tryParseU64("1x"));
    EXPECT_FALSE(base::tryParseU64(""));
    EXPECT_FALSE(base::tryParseU64("18446744073709551616")); // 2^64
    EXPECT_FALSE(base::tryParseU64("99999999999999999999999"));
    EXPECT_FALSE(base::tryParseU64("0x10")); // base 10: junk
    EXPECT_THROW(base::parseU64("-1", "--x"), FatalError);
    EXPECT_THROW(base::parseU64("2kb", "--x"), FatalError);
}

TEST(Parse, U32RangeCheckCatchesTruncation)
{
    EXPECT_EQ(base::parseU32("4294967295", "--jobs"), 4294967295u);
    // 2^32 would truncate to 0 — for --jobs, "all hardware threads".
    EXPECT_THROW(base::parseU32("4294967296", "--jobs"), FatalError);
    EXPECT_THROW(base::parseU32("-1", "--jobs"), FatalError);
}

TEST(Parse, DoublesAreFiniteAndFullyConsumed)
{
    EXPECT_DOUBLE_EQ(*base::tryParseDouble("0.5"), 0.5);
    EXPECT_DOUBLE_EQ(*base::tryParseDouble("-2.5e3"), -2500.0);
    EXPECT_FALSE(base::tryParseDouble(""));
    EXPECT_FALSE(base::tryParseDouble(" 1.0"));
    EXPECT_FALSE(base::tryParseDouble("+1.0"));
    EXPECT_FALSE(base::tryParseDouble("1.0x"));
    EXPECT_FALSE(base::tryParseDouble("nan"));
    EXPECT_FALSE(base::tryParseDouble("inf"));
    EXPECT_FALSE(base::tryParseDouble("1e999"));
    EXPECT_THROW(base::parseDouble("abc", "--m"), FatalError);
}

TEST(Logging, PanicThrowsSimAssertError)
{
    EXPECT_THROW(panic("boom ", 42), SimAssertError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("user error"), FatalError);
}

TEST(Logging, AssertMacroPassesAndFails)
{
    EXPECT_NO_THROW(MERLIN_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(MERLIN_ASSERT(false, "must fire"), SimAssertError);
}

TEST(Logging, AssertMessageContainsContext)
{
    try {
        MERLIN_ASSERT(false, "ctx ", 7);
        FAIL() << "should have thrown";
    } catch (const SimAssertError &e) {
        EXPECT_NE(std::string(e.what()).find("ctx 7"), std::string::npos);
    }
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversAllResidues)
{
    Rng r(99);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(r.nextBelow(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInRangeInclusive)
{
    Rng r(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i) {
        auto v = r.nextInRange(10, 12);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 12u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ForkIndependent)
{
    Rng parent(42);
    Rng child = parent.fork();
    EXPECT_NE(parent.next(), child.next());
}

TEST(Rng, ShufflePreservesElements)
{
    Rng r(3);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Stats, ZValuesMatchTables)
{
    // Classic two-sided z-scores.
    EXPECT_NEAR(stats::zForConfidence(0.95), 1.9600, 1e-3);
    EXPECT_NEAR(stats::zForConfidence(0.99), 2.5758, 1e-3);
    EXPECT_NEAR(stats::zForConfidence(0.998), 3.0902, 1e-3);
}

TEST(Stats, PaperSampleSizes)
{
    // The paper's 2,000-fault campaign: e=2.88%, c=99%, large population.
    const double huge = 1e13;
    auto n2000 = stats::sampleSize(huge, 0.0288, 0.99);
    EXPECT_NEAR(static_cast<double>(n2000), 2000.0, 20.0);

    // The 60,000-fault baseline: e=0.63%, c=99.8%.
    auto n60k = stats::sampleSize(huge, 0.0063, 0.998);
    EXPECT_NEAR(static_cast<double>(n60k), 60000.0, 400.0);
}

TEST(Stats, SampleSizeSmallPopulationIsBounded)
{
    // With a small finite population the sample cannot exceed it.
    auto n = stats::sampleSize(1000.0, 0.01, 0.99);
    EXPECT_LE(n, 1000u);
    EXPECT_GT(n, 900u); // tight margins need nearly the whole population
}

TEST(Stats, ErrorMarginInvertsSampleSize)
{
    const double population = 1e12;
    const double conf = 0.998;
    auto n = stats::sampleSize(population, 0.0063, conf);
    double e = stats::errorMargin(population, static_cast<double>(n), conf);
    EXPECT_NEAR(e, 0.0063, 1e-4);
}

TEST(Stats, MeanAndVariance)
{
    std::vector<double> v{1, 2, 3, 4};
    EXPECT_DOUBLE_EQ(stats::mean(v), 2.5);
    EXPECT_DOUBLE_EQ(stats::variance(v), 1.25);
    EXPECT_DOUBLE_EQ(stats::mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stats::variance({}), 0.0);
}

TEST(Bits, SignExtend)
{
    EXPECT_EQ(signExtend(0xff, 8), -1);
    EXPECT_EQ(signExtend(0x7f, 8), 127);
    EXPECT_EQ(signExtend(0x8000, 16), -32768);
    EXPECT_EQ(signExtend(0x1234, 16), 0x1234);
}

TEST(Bits, BitsOf)
{
    EXPECT_EQ(bitsOf(0xabcd, 4, 8), 0xbcu);
    EXPECT_EQ(bitsOf(~0ULL, 0, 64), ~0ULL);
}

TEST(Bits, LoadStoreLERoundTrip)
{
    std::uint8_t buf[8] = {};
    storeLE(buf, 0x1122334455667788ULL, 8);
    EXPECT_EQ(loadLE(buf, 8), 0x1122334455667788ULL);
    EXPECT_EQ(loadLE(buf, 4), 0x55667788ULL);
    EXPECT_EQ(buf[0], 0x88);
}

TEST(Bits, Alignment)
{
    EXPECT_TRUE(isAligned(0x1000, 8));
    EXPECT_FALSE(isAligned(0x1001, 2));
    EXPECT_TRUE(isAligned(0x1001, 1));
}

// -------------------------------------------------------- base::CowArray

struct Pair
{
    std::uint32_t a = 7;
    std::uint64_t b = 0;

    bool operator==(const Pair &) const = default;
};

TEST(CowArray, CopySharesEveryChunk)
{
    base::CowArray<Pair> a(64, 16);
    EXPECT_EQ(a.numChunks(), 4u);
    EXPECT_EQ(a[63].a, 7u); // filled with the default value
    const base::CowArray<Pair> b = a;
    EXPECT_EQ(b.sharedChunksWith(a), 4u);
    EXPECT_EQ(a.exclusiveChunks(), 0u);
    EXPECT_EQ(a.tableBytes(), b.tableBytes());
    EXPECT_EQ(a.bytes(), 64 * sizeof(Pair));
}

TEST(CowArray, MutDetachesOnlyItsChunkAndLeavesTheDonorAlone)
{
    base::CowArray<Pair> a(64, 16, Pair{1, 2});
    base::CowArray<Pair> b = a;
    b.mut(20).b = 99;
    EXPECT_EQ(b.sharedChunksWith(a), 3u);
    EXPECT_EQ(b.bytesDetached() - a.bytesDetached(), 16 * sizeof(Pair));
    EXPECT_EQ(b[20].b, 99u);
    EXPECT_EQ(a[20].b, 2u); // the donor never sees the write
    // A second write into the now-private chunk copies nothing.
    const auto detached = b.bytesDetached();
    b.mut(21).a = 5;
    EXPECT_EQ(b.bytesDetached(), detached);
    EXPECT_EQ(a[21].a, 1u);
}

TEST(CowArray, EqualityByIdentityAndByValue)
{
    base::CowArray<Pair> a(40, 8);
    base::CowArray<Pair> b = a;
    EXPECT_TRUE(a == b); // every chunk shared
    b.mut(3) = Pair{};   // detached, same value
    EXPECT_EQ(b.sharedChunksWith(a), a.numChunks() - 1);
    EXPECT_TRUE(a == b);
    b.mut(3).b = 1;
    EXPECT_FALSE(a == b);
    a.mut(3).b = 1; // independent arrays, equal values
    EXPECT_TRUE(a == b);
    // Arrays built separately share nothing but still compare by value.
    EXPECT_TRUE(base::CowArray<Pair>(40, 8) == base::CowArray<Pair>(40, 8));
    EXPECT_FALSE(base::CowArray<Pair>(40, 8) == base::CowArray<Pair>(41, 8));
}

TEST(CowArray, SizeNotAChunkMultiple)
{
    base::CowArray<std::uint16_t> a(37, 16, 3);
    EXPECT_EQ(a.size(), 37u);
    EXPECT_EQ(a.numChunks(), 3u);
    for (std::size_t i = 0; i < a.size(); ++i)
        a.mut(i) = static_cast<std::uint16_t>(i);
    base::CowArray<std::uint16_t> b = a;
    b.mut(36) = 500; // last, partial chunk
    EXPECT_EQ(b.sharedChunksWith(a), 2u);
    EXPECT_EQ(a[36], 36u);
    EXPECT_FALSE(a == b);
    b.mut(36) = 36;
    EXPECT_TRUE(a == b);
}

TEST(CowArray, FillSharesOneChunkUntilWritten)
{
    base::CowArray<Pair> a(64, 16, Pair{1, 2});
    EXPECT_EQ(a.numChunks(), 4u);
    EXPECT_EQ(a.exclusiveChunks(), 0u); // one fill chunk in every slot
    a.mut(20).b = 99;
    EXPECT_EQ(a.bytesDetached(), 16 * sizeof(Pair));
    EXPECT_EQ(a.exclusiveChunks(), 1u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], (Pair{1, i == 20 ? 99u : 2u})) << i;
}

TEST(CowArray, DetachAllPrivatizesEveryChunk)
{
    base::CowArray<Pair> a(50, 16);
    // A value per chunk: every chunk of `a` is its own.
    for (std::size_t c = 0; c < a.numChunks(); ++c)
        a.mut(c * 16).b = c + 1;
    base::CowArray<Pair> b = a;
    b.detachAll();
    EXPECT_EQ(b.sharedChunksWith(a), 0u);
    EXPECT_EQ(b.exclusiveChunks(), b.numChunks());
    EXPECT_EQ(a.exclusiveChunks(), a.numChunks());
    EXPECT_TRUE(a == b);
}

TEST(CowArray, RejectsNonPowerOfTwoChunks)
{
    EXPECT_THROW((base::CowArray<Pair>(10, 12)), SimAssertError);
}

} // namespace
} // namespace merlin
