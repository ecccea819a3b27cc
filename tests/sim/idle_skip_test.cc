/**
 * @file
 * Differential test of the detailed kernel's idle-cycle skip: a
 * reference run steps every cycle and checks that each cycle
 * nextActiveCycle() calls idle changes no state, and its counters
 * and cycle count must equal the skipping kernel's, both through
 * run() and through a one-core runLockstep.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/obs.hh"
#include "util/rng.hh"

#include "simulator_probe.hh"

namespace hp
{
namespace
{

const PrefetcherKind kKinds[] = {
    PrefetcherKind::None, PrefetcherKind::EFetch, PrefetcherKind::Mana,
    PrefetcherKind::Eip, PrefetcherKind::Rdip,
    PrefetcherKind::Hierarchical, PrefetcherKind::PerfectL1I,
};

/**
 * A short run with a seeded front-end and memory shape. The L2, LLC,
 * BTB and Metadata Buffer are small so that misses stay frequent and
 * the full-state digest stays cheap.
 */
SimConfig
seededConfig(PrefetcherKind kind, std::uint64_t seed)
{
    static const char *const kWorkloads[] = {"caddy", "tidb-tpcc", "gin",
                                             "mysql-ycsb"};
    Rng rng(seed);
    SimConfig cfg;
    cfg.prefetcher = kind;
    cfg.workload = kWorkloads[rng.nextUint(4)];
    cfg.warmupInsts = 3'000 + rng.nextUint(3'000);
    cfg.measureInsts = 6'000 + rng.nextUint(4'000);
    cfg.mem.l1iMshrs = unsigned(rng.nextRange(2, 16));
    cfg.mem.mshrsReservedForDemand =
        unsigned(rng.nextUint(cfg.mem.l1iMshrs));
    cfg.mem.l1iBytes = rng.nextBool(0.5) ? 8 * 1024 : 32 * 1024;
    cfg.mem.l2Bytes = 32 * 1024;
    cfg.mem.llcBytes = 64 * 1024;
    cfg.ftqEntries = unsigned(rng.nextRange(2, 32));
    cfg.bpBlocksPerCycle = unsigned(rng.nextRange(1, 2));
    cfg.backendStallPermille = unsigned(rng.nextUint(80));
    cfg.backendStallCycles = unsigned(rng.nextRange(1, 40));
    cfg.extPrefetchToL2 = rng.nextBool(0.5);
    cfg.extPrefetchesPerCycle = unsigned(rng.nextRange(1, 4));
    cfg.btbEntries = 512;
    cfg.hier.metadataBufferBytes = 16 * 1024;
    return cfg;
}

void
expectSameRun(const SimMetrics &want, const SimMetrics &got,
              const char *what)
{
    EXPECT_EQ(want.cycles, got.cycles) << what;
    EXPECT_EQ(want.stats.value("sim.cycles"), got.stats.value("sim.cycles"))
        << what;
    ASSERT_EQ(want.stats.size(), got.stats.size()) << what;
    for (std::size_t i = 0; i < want.stats.entries().size(); ++i) {
        const auto &[path, value] = want.stats.entries()[i];
        EXPECT_EQ(path, got.stats.entries()[i].first) << what;
        EXPECT_EQ(value, got.stats.entries()[i].second)
            << what << ": " << path;
    }
}

std::vector<std::unique_ptr<Simulator>>
oneCore(const SimConfig &cfg, const CoreInit &init)
{
    std::vector<std::unique_ptr<Simulator>> cores;
    cores.push_back(std::make_unique<Simulator>(cfg, init));
    return cores;
}

/** Every-cycle reference run vs run() vs a one-core runLockstep. */
void
checkConfig(const SimConfig &cfg, const CoreInit &init = CoreInit{})
{
    SimulatorProbe::IdleTally tally;
    const SimMetrics stepped =
        SimulatorProbe::runSteppingEveryCycle(oneCore(cfg, init), tally)
            .front();
    EXPECT_EQ(tally.violations, 0u)
        << "of " << tally.idle << " idle cycles";
    // The rule must actually fire for the comparison to mean anything.
    EXPECT_GT(tally.idle, 0u);

    const SimMetrics skipped = Simulator(cfg, init).run();
    expectSameRun(stepped, skipped, "run()");
    const SimMetrics lockstep = runLockstep(oneCore(cfg, init)).front();
    expectSameRun(stepped, lockstep, "runLockstep");
}

class IdleSkipTest : public ::testing::TestWithParam<PrefetcherKind>
{};

TEST_P(IdleSkipTest, SkippedCyclesChangeNothing)
{
    const std::uint64_t base = 0x1d1e0 + std::uint64_t(GetParam()) * 16;
    for (std::uint64_t seed = base; seed < base + 3; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        checkConfig(seededConfig(GetParam(), seed));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, IdleSkipTest, ::testing::ValuesIn(kKinds),
    [](const auto &info) { return std::string(prefetcherName(info.param)); });

TEST(IdleSkipTest, HierarchicalReplayGate)
{
    // Bundles recur only after about a million instructions, so the
    // kernel warms up and the every-cycle run covers a measurement
    // with replays in flight: their metadata arrives mid-stall.
    SimConfig cfg = seededConfig(PrefetcherKind::Hierarchical, 3);
    cfg.workload = "tidb-tpcc";
    cfg.warmupInsts = 1'000'000;
    cfg.measureInsts = 60'000;
    std::vector<std::unique_ptr<Simulator>> cores =
        oneCore(cfg, CoreInit{});
    cores.front()->runWarmup();
    SimulatorProbe::IdleTally tally;
    const SimMetrics stepped =
        SimulatorProbe::runSteppingEveryCycle(cores, tally).front();
    EXPECT_EQ(tally.violations, 0u) << "of " << tally.idle << " idle cycles";
    EXPECT_GT(stepped.stats.value("hier.replay_prefetches"), 0u);
    expectSameRun(stepped, Simulator(cfg).run(), "run()");
}

TEST(IdleSkipTest, TwoTenantSwitchQuantum)
{
    for (bool partition : {false, true}) {
        SCOPED_TRACE(partition ? "partitioned" : "shared metadata");
        SimConfig cfg = seededConfig(PrefetcherKind::Hierarchical, 7);
        CoreInit init;
        init.tenants = {"gin", "mysql-ycsb"};
        init.switchQuantum = 2'500;
        init.partitionMetadata = partition;
        checkConfig(cfg, init);
    }
}

TEST(IdleSkipTest, WithIntervalSamplerAndTrace)
{
    const obs::ObsConfig saved = obs::config();
    obs::config() = obs::ObsConfig{};
    // Captured in memory only: nothing writes these paths.
    obs::config().timeseriesPath = "unwritten.csv";
    obs::config().tracePath = "unwritten.json";
    obs::config().intervalInsts = 1'000;
    for (PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::Hierarchical}) {
        SCOPED_TRACE(prefetcherName(kind));
        checkConfig(seededConfig(kind, 11));
    }
    obs::config() = saved;
}

TEST(IdleSkipTest, SharedLevelsKeepTheirAccessOrder)
{
    // Two cores contending for the L2/LLC, the DRAM fill port and the
    // metadata read port: skipping must not reorder their accesses.
    const SimConfig cfg = seededConfig(PrefetcherKind::Hierarchical, 5);
    auto cores = [&cfg] {
        auto shared = std::make_shared<SharedLevels>(cfg.mem, 8, 4);
        std::vector<std::unique_ptr<Simulator>> v;
        for (unsigned i = 0; i < 2; ++i) {
            CoreInit init;
            init.coreId = i;
            init.shared = shared;
            init.tenants = {i == 0 ? "gin" : "caddy"};
            v.push_back(std::make_unique<Simulator>(cfg, init));
        }
        return v;
    };
    SimulatorProbe::IdleTally tally;
    const std::vector<SimMetrics> stepped =
        SimulatorProbe::runSteppingEveryCycle(cores(), tally);
    EXPECT_EQ(tally.violations, 0u);
    EXPECT_GT(tally.idle, 0u);
    const std::vector<SimMetrics> skipped = runLockstep(cores());
    for (unsigned i = 0; i < 2; ++i) {
        SCOPED_TRACE("core " + std::to_string(i));
        expectSameRun(stepped[i], skipped[i], "runLockstep");
    }
}

} // namespace
} // namespace hp
