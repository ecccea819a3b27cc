/**
 * @file
 * Miss-attribution breakdown — where the remaining L1-I demand misses
 * of the measurement phase come from, per workload, with the
 * Hierarchical prefetcher active (pass --prefetcher=efetch|mana|eip|
 * hierarchical|fdip to inspect another one). The cause classes are the
 * observability layer's partition of `l1i.demand_misses` (see
 * DESIGN.md Section 9): a strong prefetcher should leave mostly
 * never_prefetched cold misses and a small late/evicted tail, while a
 * weaker one shifts weight into prefetch_late and prefetched_evicted.
 */

#include <cstdio>
#include <cstring>

#include "bench_util.hh"
#include "obs/miss_attribution.hh"
#include "util/logging.hh"

namespace
{

using namespace hp;

std::string
fmtShare(std::uint64_t part, std::uint64_t total)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%",
                  total ? 100.0 * double(part) / double(total) : 0.0);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    hpbench::JsonReportScope report(argc, argv,
                                    "miss_attribution_breakdown");
    using namespace hp;

    PrefetcherKind kind = PrefetcherKind::Hierarchical;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--prefetcher=", 13) != 0)
            continue;
        const char *name = argv[i] + 13;
        if (std::strcmp(name, "fdip") == 0)
            kind = PrefetcherKind::None;
        else if (std::strcmp(name, "efetch") == 0)
            kind = PrefetcherKind::EFetch;
        else if (std::strcmp(name, "mana") == 0)
            kind = PrefetcherKind::Mana;
        else if (std::strcmp(name, "eip") == 0)
            kind = PrefetcherKind::Eip;
        else if (std::strcmp(name, "hierarchical") == 0)
            kind = PrefetcherKind::Hierarchical;
        else
            fatal(std::string("unknown --prefetcher value: ") + name);
    }

    // The whole point of this bench is the attribution subtree, so
    // turn the tracker on before any simulation is constructed.
    obs::config().attribution = true;

    AsciiTable table(std::string("L1-I miss attribution (") +
                     prefetcherName(kind) + ")");
    table.setHeader({"workload", "misses", "never_pf", "late",
                     "pf_evicted", "dem_evicted", "contention"});

    std::vector<SimConfig> grid;
    for (const std::string &workload : allWorkloads()) {
        SimConfig config;
        config.workload = workload;
        config.prefetcher = kind;
        grid.push_back(config);
    }
    std::vector<SimMetrics> runs = hpbench::runAll(grid);

    std::vector<double> late_shares;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const StatsSnapshot &stats = runs[i].stats;
        std::uint64_t causes[kNumMissCauses];
        std::uint64_t total = 0;
        for (unsigned c = 0; c < kNumMissCauses; ++c) {
            causes[c] = stats.value(
                std::string("missAttribution.") +
                missCauseName(static_cast<MissCause>(c)));
            total += causes[c];
        }
        if (total != stats.value("l1i.demand_misses")) {
            fatal(grid[i].workload +
                  ": attribution does not partition the misses");
        }

        auto share = [&](MissCause cause) {
            return fmtShare(causes[unsigned(cause)], total);
        };
        table.addRow({grid[i].workload, std::to_string(total),
                      share(MissCause::NeverPrefetched),
                      share(MissCause::PrefetchLate),
                      share(MissCause::PrefetchedEvicted),
                      share(MissCause::DemandEvicted),
                      share(MissCause::ResourceContention)});
        if (total)
            late_shares.push_back(
                double(causes[unsigned(MissCause::PrefetchLate)]) /
                double(total));
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\nmean late share: %.1f%%\n",
                100.0 * hpbench::mean(late_shares));

    hpbench::paperFooter(
        "MissAttr",
        "no direct figure; complements Fig10 (late prefetches) and "
        "Fig11 (miss latency) with a full causal breakdown",
        "the cause columns of each row sum to 100% of that row's "
        "misses (enforced above)");
    return 0;
}
