/**
 * Pins the detailed kernel's segment protocol: how the run entry
 * points (run, runWarmup, finishRun, advanceDetailed, measureWindow,
 * fastForward) compose at segment boundaries, down to the cycle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/simulator.hh"
#include "util/hash.hh"

namespace hp
{
namespace
{

SimConfig
caddyConfig(PrefetcherKind kind, std::uint64_t warmup,
            std::uint64_t measure)
{
    SimConfig config;
    config.workload = "caddy";
    config.prefetcher = kind;
    config.warmupInsts = warmup;
    config.measureInsts = measure;
    return config;
}

void
expectSameStats(const StatsSnapshot &a, const StatsSnapshot &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a.entries()[i], b.entries()[i]);
}

/** runWarmup() then one measurement window up to the run's total. */
SimMetrics
composedRun(const SimConfig &config)
{
    Simulator sim(config);
    sim.runWarmup();
    const std::uint64_t total = config.warmupInsts + config.measureInsts;
    return sim.measureWindow(total - sim.committedInsts());
}

struct CompositionCase
{
    PrefetcherKind kind;
    std::uint64_t warmup;
    std::uint64_t measure;
    std::uint64_t cycles; ///< Measured cycles of the plain run().
};

TEST(SegmentTest, RunEqualsWarmupPlusMeasureWindow)
{
    const CompositionCase cases[] = {
        {PrefetcherKind::None, 150'000, 300'000, 818'881},
        {PrefetcherKind::Hierarchical, 150'000, 300'000, 818'776},
        {PrefetcherKind::None, 0, 300'000, 0},
        {PrefetcherKind::Hierarchical, 0, 300'000, 0},
        {PrefetcherKind::None, 0, 0, 0},
        {PrefetcherKind::Hierarchical, 0, 0, 0},
    };
    for (const CompositionCase &c : cases) {
        SCOPED_TRACE(std::string(prefetcherName(c.kind)) + " " +
                     std::to_string(c.warmup) + "+" +
                     std::to_string(c.measure));
        const SimConfig config = caddyConfig(c.kind, c.warmup, c.measure);
        const SimMetrics plain = Simulator(config).run();
        const SimMetrics composed = composedRun(config);
        expectSameStats(plain.stats, composed.stats);
        EXPECT_EQ(plain.cycles, composed.cycles);
        if (c.cycles != 0) {
            EXPECT_EQ(plain.cycles, c.cycles);
        }
        if (c.measure == 0) {
            EXPECT_EQ(plain.stats.value("sim.cycles"), 0u);
        }
    }
}

TEST(SegmentTest, EmptyMeasurementAfterWarmupKeepsItsCycleConvention)
{
    // The one place the two measurement entry points differ: a run
    // with a warmup but no measurement still closes the boundary
    // iteration (one cycle), while an empty window closes nothing.
    const SimConfig config =
        caddyConfig(PrefetcherKind::None, 150'000, 0);
    const SimMetrics plain = Simulator(config).run();
    EXPECT_EQ(plain.stats.value("sim.cycles"), 1u);
    EXPECT_EQ(plain.stats.value("sim.instructions"), 0u);

    Simulator sim(config);
    sim.runWarmup();
    const SimMetrics window = sim.measureWindow(0);
    EXPECT_EQ(window.stats.value("sim.cycles"), 0u);
    EXPECT_EQ(window.stats.value("sim.instructions"), 0u);
}

/** Order-sensitive digest of a checkpoint payload. */
std::uint64_t
payloadDigest(const std::vector<std::uint8_t> &payload)
{
    std::uint64_t h = 0;
    for (std::uint8_t byte : payload)
        h = hashCombine(h, byte);
    return h;
}

struct FastForwardGolden
{
    PrefetcherKind kind;
    std::size_t bytes;
    std::uint64_t digest;
};

TEST(SegmentTest, FastForwardStateMatchesGolden)
{
    // Warmup, a few detailed cycles to leave the front end mid-flight,
    // then a long fast-forward that drains the window and pulls from
    // the stream: the captured state pins every structure the
    // functional path trains.
    const FastForwardGolden goldens[] = {
        {PrefetcherKind::None, 806'636, 0x2b74d3a96e5abbf2ULL},
        {PrefetcherKind::Hierarchical, 863'842, 0x10bba32bb3bece73ULL},
    };
    for (const FastForwardGolden &g : goldens) {
        SCOPED_TRACE(prefetcherName(g.kind));
        Simulator sim(caddyConfig(g.kind, 150'000, 300'000));
        sim.runWarmup();
        sim.advanceDetailed(7);
        sim.fastForward(200'000);
        const Checkpoint ckpt = Checkpoint::capture(sim, "ff-golden");
        EXPECT_EQ(ckpt.payload().size(), g.bytes);
        EXPECT_EQ(payloadDigest(ckpt.payload()), g.digest)
            << std::hex << "0x" << payloadDigest(ckpt.payload());
    }
}

} // namespace
} // namespace hp
