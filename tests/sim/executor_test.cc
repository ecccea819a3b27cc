#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "sim/executor.hh"
#include "sim/run_report.hh"
#include "workload/program_builder.hh"

namespace hp
{
namespace
{

/** Small config; the odd instruction counts keep it unique within the
 *  test binary so cache state from other tests cannot mask runs. */
SimConfig
tinyConfig(const std::string &workload, PrefetcherKind kind,
           std::uint64_t warmup, std::uint64_t measure)
{
    SimConfig config;
    config.workload = workload;
    config.prefetcher = kind;
    config.warmupInsts = warmup;
    config.measureInsts = measure;
    return config;
}

TEST(ExecutorTest, HpJobsOverridesDefaultThreads)
{
    const char *saved = std::getenv("HP_JOBS");
    std::string saved_value = saved ? saved : "";

    setenv("HP_JOBS", "3", 1);
    EXPECT_EQ(Executor::defaultThreads(), 3u);
    setenv("HP_JOBS", "not-a-number", 1);
    EXPECT_GE(Executor::defaultThreads(), 1u);

    if (saved)
        setenv("HP_JOBS", saved_value.c_str(), 1);
    else
        unsetenv("HP_JOBS");
}

TEST(ExecutorTest, SubmitDeduplicatesIdenticalConfigs)
{
    SimConfig config = tinyConfig("caddy", PrefetcherKind::None,
                                  101'000, 201'000);
    Executor executor(2);

    std::size_t before = ExperimentRunner::simulationsRun();
    auto f1 = executor.submit(config);
    auto f2 = executor.submit(config);
    SimMetrics a = f1.get();
    SimMetrics b = f2.get();
    std::size_t after = ExperimentRunner::simulationsRun();

    EXPECT_EQ(after - before, 1u);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(ExecutorTest, ConcurrentRunPairPerformsOneSimulationPerConfig)
{
    SimConfig config = tinyConfig("gin", PrefetcherKind::EFetch,
                                  103'000, 203'000);

    std::size_t before = ExperimentRunner::simulationsRun();

    constexpr unsigned kThreads = 4;
    std::vector<RunPair> results(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            results[t] = ExperimentRunner::runPair(config);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    std::size_t after = ExperimentRunner::simulationsRun();

    // Exactly one simulation for the run and one for its baseline, no
    // matter how many threads raced on the same config.
    EXPECT_EQ(after - before, 2u);
    for (unsigned t = 1; t < kThreads; ++t) {
        EXPECT_EQ(results[t].run.cycles, results[0].run.cycles);
        EXPECT_EQ(results[t].base.cycles, results[0].base.cycles);
        EXPECT_DOUBLE_EQ(results[t].paired.speedup,
                         results[0].paired.speedup);
    }
}

TEST(ExecutorTest, ParallelGridMatchesSerialRun)
{
    const std::vector<std::string> workloads = {"echo", "gorm"};
    const std::vector<PrefetcherKind> kinds = {PrefetcherKind::EFetch,
                                               PrefetcherKind::Eip};
    SimConfig base = tinyConfig("echo", PrefetcherKind::None, 107'000,
                                207'000);

    // Serial reference: fresh Simulator per grid point, bypassing the
    // cache entirely.
    std::vector<RunPair> serial;
    for (const std::string &workload : workloads) {
        for (PrefetcherKind kind : kinds) {
            SimConfig config = base;
            config.workload = workload;
            config.prefetcher = kind;
            Simulator run_sim(config);
            Simulator base_sim(fdipBaseline(config));
            serial.push_back(
                makeRunPair(run_sim.run(), base_sim.run()));
        }
    }

    Executor executor(4);
    std::vector<RunPair> parallel =
        executor.runGrid(workloads, kinds, base);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].run.cycles, serial[i].run.cycles);
        EXPECT_EQ(parallel[i].run.instructions,
                  serial[i].run.instructions);
        EXPECT_EQ(parallel[i].base.cycles, serial[i].base.cycles);
        EXPECT_EQ(parallel[i].run.mem.ext.issued,
                  serial[i].run.mem.ext.issued);
        EXPECT_DOUBLE_EQ(parallel[i].paired.speedup,
                         serial[i].paired.speedup);
    }
}

TEST(ExecutorTest, RunAllPreservesSubmissionOrder)
{
    std::vector<SimConfig> configs;
    for (const char *workload : {"beego", "caddy", "echo"}) {
        configs.push_back(tinyConfig(workload, PrefetcherKind::None,
                                     109'000, 209'000));
    }

    Executor executor(3);
    std::vector<SimMetrics> results = executor.runAll(configs);

    ASSERT_EQ(results.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SimMetrics direct = ExperimentRunner::run(configs[i]);
        EXPECT_EQ(results[i].cycles, direct.cycles);
        EXPECT_EQ(results[i].instructions, direct.instructions);
    }
}

TEST(ExecutorTest, ReportListsRunsInSubmissionOrder)
{
    // Two workers, a long simulation submitted before a short one: the
    // short one finishes first, but the report follows submission.
    const SimConfig long_cfg =
        tinyConfig("caddy", PrefetcherKind::None, 103'000, 607'000);
    const SimConfig short_cfg =
        tinyConfig("caddy", PrefetcherKind::None, 101'000, 3'000);
    ProgramBuilder::cached(appProfile("caddy")); // keep builds out of it

    RunReportLog::enable();
    RunReportLog::clear();
    {
        Executor executor(2);
        std::shared_future<SimMetrics> first = executor.submit(long_cfg);
        std::shared_future<SimMetrics> second =
            executor.submit(short_cfg);
        first.get();
        second.get();
    }
    const std::string doc = RunReportLog::documentJson();
    RunReportLog::clear();

    const std::size_t long_at =
        doc.find('"' + ExperimentRunner::configKey(long_cfg) + '"');
    const std::size_t short_at =
        doc.find('"' + ExperimentRunner::configKey(short_cfg) + '"');
    ASSERT_NE(long_at, std::string::npos);
    ASSERT_NE(short_at, std::string::npos);
    EXPECT_LT(long_at, short_at);
}

} // namespace
} // namespace hp
