/**
 * @file
 * Simulator throughput microbenchmark: single-thread simulated MIPS
 * and wall-clock scaling of a fig09-style grid at 1, 2 and N worker
 * threads. Emits one JSON line so the perf trajectory can be tracked
 * across PRs and CI runs.
 *
 * single_thread_mips and the scaling rounds time simulation only: the
 * program builds and the MIPS Simulator's construction are reported
 * apart as setup_s, and no round reuses an earlier round's results or
 * warmup checkpoints.
 *
 * `--quick` shrinks the grid and instruction counts for CI; the
 * default exercises the full fig09 workload x prefetcher grid.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "workload/program_builder.hh"

namespace
{

using namespace hp;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    hpbench::JsonReportScope report(argc, argv,
                                    "micro_sim_throughput");
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }

    const std::uint64_t warmup = quick ? 100'000 : 1'500'000;
    const std::uint64_t measure = quick ? 300'000 : 3'000'000;

    std::vector<std::string> workloads;
    std::vector<PrefetcherKind> kinds;
    if (quick) {
        workloads = {"caddy", "gin"};
        kinds = {PrefetcherKind::EFetch, PrefetcherKind::Hierarchical};
    } else {
        workloads = allWorkloads();
        kinds = hpbench::comparedPrefetchers();
        kinds.push_back(PrefetcherKind::PerfectL1I);
    }

    // ---- Single-thread MIPS: one uncached simulation, timed. ----
    SimConfig mips_cfg = defaultConfig(workloads.front());
    mips_cfg.warmupInsts = warmup;
    mips_cfg.measureInsts = measure;
    // Build every program the bench simulates up front, so neither the
    // MIPS timer nor scaling round 1 pays for a build that later runs
    // take from the program cache.
    auto start = std::chrono::steady_clock::now();
    for (const std::string &workload : workloads)
        ProgramBuilder::cached(appProfile(workload));
    Simulator sim(mips_cfg);
    const double setup_secs = secondsSince(start);
    start = std::chrono::steady_clock::now();
    SimMetrics m = sim.run();
    double mips_secs = secondsSince(start);
    double mips = double(warmup + measure) / 1e6 / mips_secs;
    (void)m;

    // ---- Grid scaling: same grid at 1, 2 and N threads. ----
    std::vector<unsigned> rounds = {1};
    unsigned hw = Executor::defaultThreads();
    if (hw >= 2 || !quick)
        rounds.push_back(2);
    if (hw > 2)
        rounds.push_back(hw);

    std::vector<double> walls;
    unsigned round_tag = 0;
    for (unsigned threads : rounds) {
        // Perturb both instruction budgets per round so neither the
        // experiment cache nor the warmup checkpoint store can serve
        // this round from a previous one: every round simulates its
        // full grid, warmup included.
        ++round_tag;
        std::vector<SimConfig> grid;
        for (const std::string &workload : workloads) {
            for (PrefetcherKind kind : kinds) {
                SimConfig config = defaultConfig(workload, kind);
                config.warmupInsts = warmup + round_tag;
                config.measureInsts = measure + round_tag;
                grid.push_back(std::move(config));
            }
        }

        Executor executor(threads);
        start = std::chrono::steady_clock::now();
        std::vector<RunPair> pairs = executor.runPairs(grid);
        walls.push_back(secondsSince(start));
        (void)pairs;
    }

    std::printf("{\"bench\":\"micro_sim_throughput\","
                "\"quick\":%s,"
                "\"grid_points\":%zu,"
                "\"insts_per_sim\":%llu,"
                "\"setup_s\":%.2f,"
                "\"single_thread_mips\":%.2f",
                quick ? "true" : "false",
                workloads.size() * kinds.size(),
                static_cast<unsigned long long>(warmup + measure),
                setup_secs, mips);
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        std::printf(",\"wall_s_at_%u_threads\":%.2f", rounds[i],
                    walls[i]);
        if (i > 0 && walls[i] > 0.0) {
            std::printf(",\"speedup_at_%u_threads\":%.2f", rounds[i],
                        walls[0] / walls[i]);
        }
    }
    std::printf("}\n");

    // Host-perf trajectory: with HP_BENCH_JSON set, append this run's
    // wall-clock figures to the tracked JSON array so MIPS regressions
    // show up in review alongside the simulated counters. The record
    // names its mode and top thread count, so a --quick run is never
    // read as a full one.
    double suite_secs = setup_secs + mips_secs;
    for (double w : walls)
        suite_secs += w;
    hpbench::appendBenchRecord(
        "micro_sim_throughput",
        {{"quick", quick ? 1.0 : 0.0},
         {"setup_s", setup_secs},
         {"single_thread_mips", mips},
         {"suite_seconds", suite_secs},
         {"max_threads", double(rounds.back())}});
    return 0;
}
