#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hh"

namespace hp
{
namespace
{

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(RngTest, NextUintRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextUint(bound), bound);
    }
}

TEST(RngTest, NextUintBoundOneAlwaysZero)
{
    Rng rng(9);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.nextUint(1), 0u);
}

TEST(RngTest, NextRangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(RngTest, NextBoolExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(RngTest, NextBoolApproximatesProbability)
{
    Rng rng(19);
    int heads = 0;
    constexpr int kTrials = 20000;
    for (int i = 0; i < kTrials; ++i)
        heads += rng.nextBool(0.3);
    double rate = double(heads) / kTrials;
    EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(RngTest, NextSkewedStaysInRangeAndSkewsLow)
{
    Rng rng(23);
    double sum = 0.0;
    constexpr int kTrials = 10000;
    for (int i = 0; i < kTrials; ++i) {
        std::uint64_t v = rng.nextSkewed(10, 100);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 100u);
        sum += double(v);
    }
    // Mean must be clearly below the midpoint (55) for a skewed draw.
    EXPECT_LT(sum / kTrials, 45.0);
}

TEST(RngTest, NextSkewedDegenerateRange)
{
    Rng rng(29);
    EXPECT_EQ(rng.nextSkewed(5, 5), 5u);
}

TEST(RngTest, ForkIsIndependent)
{
    Rng a(31);
    Rng child = a.fork();
    // The child must not replay the parent's stream.
    Rng b(31);
    b.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (child.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(ZipfSamplerTest, UniformWhenThetaZero)
{
    Rng rng(37);
    ZipfSampler sampler(4, 0.0);
    std::vector<int> counts(4, 0);
    constexpr int kTrials = 40000;
    for (int i = 0; i < kTrials; ++i)
        ++counts[sampler.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(double(c) / kTrials, 0.25, 0.02);
}

TEST(ZipfSamplerTest, SkewFavorsLowRanks)
{
    Rng rng(41);
    ZipfSampler sampler(10, 0.99);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[sampler.sample(rng)];
    EXPECT_GT(counts[0], counts[4]);
    EXPECT_GT(counts[0], counts[9] * 3);
}

TEST(ZipfSamplerTest, SampleAlwaysInRange)
{
    Rng rng(43);
    ZipfSampler sampler(7, 0.5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(sampler.sample(rng), 7u);
}

TEST(RngDeathTest, NextUintRejectsZeroBound)
{
    Rng rng(1);
    EXPECT_DEATH((void)rng.nextUint(0), "Rng::nextUint with zero bound");
}

TEST(RngDeathTest, NextRangeRejectsInvertedRange)
{
    Rng rng(1);
    EXPECT_DEATH((void)rng.nextRange(5, 4), "Rng::nextRange with lo > hi");
}

TEST(RngDeathTest, NextSkewedRejectsInvertedRange)
{
    Rng rng(1);
    EXPECT_DEATH((void)rng.nextSkewed(5, 4), "Rng::nextSkewed with lo > hi");
}

} // namespace
} // namespace hp
