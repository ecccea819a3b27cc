#include <gtest/gtest.h>

#include "sim/runner.hh"

namespace hp
{
namespace
{

SimConfig
quickConfig(PrefetcherKind kind = PrefetcherKind::None)
{
    SimConfig config;
    config.workload = "caddy";
    config.warmupInsts = 100'000;
    config.measureInsts = 200'000;
    config.prefetcher = kind;
    return config;
}

TEST(RunnerTest, MemoizesIdenticalConfigs)
{
    std::size_t before = ExperimentRunner::simulationsRun();
    SimMetrics a = ExperimentRunner::run(quickConfig());
    std::size_t after_first = ExperimentRunner::simulationsRun();
    SimMetrics b = ExperimentRunner::run(quickConfig());
    std::size_t after_second = ExperimentRunner::simulationsRun();
    EXPECT_GE(after_first, before); // may have been cached already
    EXPECT_EQ(after_second, after_first);
    // run() returns by value (the cache is shared across threads),
    // but both calls report the one cached simulation.
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(RunnerTest, ConfigHashDistinguishesKnobsAndMatchesEquality)
{
    SimConfig base = quickConfig();
    EXPECT_EQ(configHash(base), configHash(quickConfig()));
    EXPECT_TRUE(base == quickConfig());

    SimConfig tweaked = base;
    tweaked.hier.aheadSegments = 7;
    EXPECT_NE(configHash(tweaked), configHash(base));
    EXPECT_FALSE(tweaked == base);

    SimConfig other_workload = base;
    other_workload.workload = "gin";
    EXPECT_NE(configHash(other_workload), configHash(base));
}

TEST(RunnerTest, ConfigKeyDistinguishesEveryKnob)
{
    SimConfig base = quickConfig();
    std::string base_key = ExperimentRunner::configKey(base);

    SimConfig c1 = base;
    c1.prefetcher = PrefetcherKind::Hierarchical;
    EXPECT_NE(ExperimentRunner::configKey(c1), base_key);

    SimConfig c2 = base;
    c2.mem.l1iBytes *= 2;
    EXPECT_NE(ExperimentRunner::configKey(c2), base_key);

    SimConfig c3 = base;
    c3.hier.matEntries = 1024;
    EXPECT_NE(ExperimentRunner::configKey(c3), base_key);

    SimConfig c4 = base;
    c4.mana.lookahead = 7;
    EXPECT_NE(ExperimentRunner::configKey(c4), base_key);

    SimConfig c5 = base;
    c5.extPrefetchToL2 = true;
    EXPECT_NE(ExperimentRunner::configKey(c5), base_key);

    SimConfig c6 = base;
    c6.btbEntries = 0;
    EXPECT_NE(ExperimentRunner::configKey(c6), base_key);

    SimConfig c7 = base;
    c7.workload = "gin";
    EXPECT_NE(ExperimentRunner::configKey(c7), base_key);

    // Doubles must not be rounded to a few digits: a blob keyed for
    // one fraction would otherwise serve a nearby one.
    SimConfig c8 = base;
    c8.mem.l2InstFraction = 0.650000001;
    EXPECT_NE(ExperimentRunner::configKey(c8), base_key);
}

TEST(RunnerTest, MeasurementConfigPinsOnlyUnreadFields)
{
    // Fields the configured prefetcher never reads are normalized...
    SimConfig none = quickConfig(PrefetcherKind::None);
    none.eip.maxTargets = 7;
    none.hier.aheadSegments = 9;
    none.mana.indexEntries = 123;
    EXPECT_EQ(measurementConfig(none),
              measurementConfig(quickConfig(PrefetcherKind::None)));

    // ...but fields the simulation does read must survive untouched.
    SimConfig hier = quickConfig(PrefetcherKind::Hierarchical);
    hier.hier.aheadSegments = 9;
    EXPECT_NE(measurementConfig(hier),
              measurementConfig(quickConfig(PrefetcherKind::Hierarchical)));
    EXPECT_EQ(measurementConfig(hier).hier.aheadSegments, 9u);

    SimConfig eip = quickConfig(PrefetcherKind::Eip);
    eip.eip.maxTargets = 5; // actually-read sweep knob
    EXPECT_NE(measurementConfig(eip),
              measurementConfig(quickConfig(PrefetcherKind::Eip)));
}

TEST(RunnerTest, CacheDoesNotRerunConfigsDifferingOnlyInUnreadFields)
{
    // Regression: a sweep over a prefetcher knob must not re-simulate
    // grid points whose configured prefetcher never reads that knob.
    SimConfig a = quickConfig(PrefetcherKind::None);
    a.warmupInsts = 110'000; // unique class within the test binary
    SimConfig b = a;
    b.eip.maxTargets = 99;
    ASSERT_FALSE(a == b); // configKey still tells them apart
    ASSERT_NE(ExperimentRunner::configKey(a),
              ExperimentRunner::configKey(b));

    SimMetrics ma = ExperimentRunner::run(a);
    std::size_t after_a = ExperimentRunner::simulationsRun();
    SimMetrics mb = ExperimentRunner::run(b);
    EXPECT_EQ(ExperimentRunner::simulationsRun(), after_a);
    EXPECT_EQ(ma.cycles, mb.cycles);
}

TEST(RunnerTest, CacheDoesNotAliasConfigsDifferingInReadFields)
{
    // The inverse guard: two configs that differ in a field the
    // simulation reads must stay distinct cache entries.
    SimConfig a = quickConfig(PrefetcherKind::Hierarchical);
    a.warmupInsts = 130'000;
    SimConfig b = a;
    b.hier.aheadSegments = a.hier.aheadSegments + 2;

    ExperimentRunner::run(a);
    std::size_t after_a = ExperimentRunner::simulationsRun();
    ExperimentRunner::run(b);
    EXPECT_EQ(ExperimentRunner::simulationsRun(), after_a + 1);
}

TEST(RunnerTest, RunPairBaselineIsFdipOnly)
{
    SimConfig config = quickConfig(PrefetcherKind::Hierarchical);
    // Bundles must recur for replays to happen: give this test a
    // window long enough for several requests.
    config.warmupInsts = 800'000;
    config.measureInsts = 1'200'000;
    RunPair pair = ExperimentRunner::runPair(config);
    // The baseline has no Ext prefetches.
    EXPECT_EQ(pair.base.mem.ext.issued, 0u);
    EXPECT_GT(pair.run.mem.ext.issued, 0u);
    // Paired metrics are consistent with the two runs.
    EXPECT_NEAR(pair.paired.speedup,
                pair.run.ipc() / pair.base.ipc() - 1.0, 1e-12);
}

TEST(RunnerTest, DefaultConfigMatchesTableOne)
{
    SimConfig config = defaultConfig("tidb-tpcc");
    EXPECT_EQ(config.ftqEntries, 24u);
    EXPECT_EQ(config.btbEntries, 8192u);
    EXPECT_EQ(config.mem.l1iBytes, 32u * 1024);
    EXPECT_EQ(config.mem.l1iWays, 8u);
    EXPECT_EQ(config.mem.l1iLatency, 2u);
    EXPECT_EQ(config.mem.l2Latency, 14u);
    EXPECT_EQ(config.mem.llcLatency, 50u);
    EXPECT_EQ(config.mem.l1iMshrs, 16u);
    EXPECT_EQ(config.robEntries, 352u);
    EXPECT_EQ(config.commitWidth, 6u);
    EXPECT_EQ(config.hier.matEntries, 512u);
    EXPECT_EQ(config.hier.metadataBufferBytes, 512u * 1024);
}

TEST(RunnerTest, DefaultConfigEnablesBundleStatsForHp)
{
    SimConfig hp_config =
        defaultConfig("caddy", PrefetcherKind::Hierarchical);
    EXPECT_TRUE(hp_config.hier.trackBundleStats);
    SimConfig base = defaultConfig("caddy");
    EXPECT_EQ(base.prefetcher, PrefetcherKind::None);
}

} // namespace
} // namespace hp
