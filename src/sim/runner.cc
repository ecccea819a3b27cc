#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstddef>
#include <type_traits>

#include "sim/checkpoint.hh"
#include "sim/executor.hh"
#include "sim/multicore.hh"
#include "sim/sampling.hh"
#include "sim/run_report.hh"
#include "util/hash.hh"
#include "util/once_map.hh"
#include "workload/scenario.hh"

namespace hp
{

namespace
{

/** Buckets the result cache on configHash; the map resolves
 *  collisions with SimConfig::operator==. */
struct ConfigHasher
{
    std::size_t operator()(const SimConfig &c) const { return configHash(c); }
};

/** Simulation results keyed by measurementConfig(), so grid points
 *  differing only in fields the simulation never reads share one run. */
OnceMap<SimConfig, SimMetrics, ConfigHasher> g_cache;
std::atomic<std::size_t> g_runs{0};

/**
 * Converts to any type, so brace-initializing an aggregate with N of
 * these compiles exactly when the aggregate has at least N fields.
 */
struct AnyField
{
    template <class T> operator T() const;
};

template <class T, class... Fields>
consteval std::size_t
fieldCount()
{
    if constexpr (requires { T{Fields{}..., AnyField{}}; })
        return fieldCount<T, Fields..., AnyField>();
    else
        return sizeof...(Fields);
}

// configKey is the only list of config fields; these trip whenever a
// field is added or removed without it (a base class counts as one).
static_assert(fieldCount<CoreConfig>() == 13, "update configKey");
static_assert(fieldCount<HierarchyParams>() == 17, "update configKey");
static_assert(fieldCount<EFetchConfig>() == 5, "update configKey");
static_assert(fieldCount<ManaConfig>() == 4, "update configKey");
static_assert(fieldCount<EipConfig>() == 5, "update configKey");
static_assert(fieldCount<RdipConfig>() == 3, "update configKey");
static_assert(fieldCount<HierarchicalConfig>() == 10, "update configKey");
static_assert(fieldCount<SampleConfig>() == 4, "update configKey");
static_assert(fieldCount<MultiTenantConfig>() == 7, "update configKey");
static_assert(fieldCount<SimConfig>() == 18, "update configKey");

/** Appends @p v to a config key: integers in decimal, bools as 0/1,
 *  doubles in shortest round-trip form, strings verbatim. */
template <class T>
void
appendField(std::string &key, const T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        key += v;
    } else if constexpr (std::is_same_v<T, bool>) {
        key += v ? '1' : '0';
    } else {
        char buf[32];
        key.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    }
}

/** Appends @p lead, then @p fields separated by @p sep. */
template <class... Fields>
void
appendFields(std::string &key, const char *lead, char sep,
             const Fields &...fields)
{
    key += lead;
    ((appendField(key, fields), key += sep), ...);
    key.pop_back();
}

} // namespace

std::uint64_t
configHash(const SimConfig &c)
{
    return hashString(ExperimentRunner::configKey(c));
}

std::string
ExperimentRunner::configKey(const SimConfig &c)
{
    std::string key;
    auto core = [&key](const char *lead, char sep, const CoreConfig &cc) {
        appendFields(key, lead, sep, cc.ftqEntries, cc.fetchBytesPerCycle,
                     cc.bpBlocksPerCycle, cc.btbEntries, cc.btbWays,
                     cc.rasDepth, cc.btbMissPenalty, cc.mispredictPenalty,
                     cc.pipelineDepth, cc.commitWidth, cc.robEntries,
                     cc.backendStallPermille, cc.backendStallCycles);
    };
    appendFields(key, "", '|', c.workload, c.warmupInsts, c.measureInsts);
    core("|", '|', c);

    const HierarchyParams &m = c.mem;
    appendFields(key, "|", ',', m.l1iBytes, m.l1iWays, m.l1iLatency,
                 m.l1iMshrs, m.l2Bytes, m.l2Ways, m.l2Latency,
                 m.l2InstFraction, m.llcBytes, m.llcWays, m.llcLatency,
                 m.llcInstFraction, m.memLatency, m.itlbEntries,
                 m.itlbWalkLatency, m.mshrsReservedForDemand,
                 m.metadataDramEvery);

    appendFields(key, "|", '|', int(c.prefetcher));
    appendFields(key, "|", ',', c.efetch.tableEntries,
                 c.efetch.signatureDepth, c.efetch.calleesPerEntry,
                 c.efetch.lookahead, c.efetch.footprintEntries);
    appendFields(key, "|", ',', c.mana.regionBlocks,
                 c.mana.historyRegions, c.mana.indexEntries,
                 c.mana.lookahead);
    appendFields(key, "|", ',', c.eip.tableEntries, c.eip.tableWays,
                 c.eip.historyEntries, c.eip.maxTargets,
                 c.eip.targetRunBlocks);
    appendFields(key, "|", ',', c.rdip.tableEntries,
                 c.rdip.signatureDepth, c.rdip.blocksPerEntry);
    appendFields(key, "|", ',', c.hier.compressionEntries,
                 c.hier.metadataBufferBytes, c.hier.matEntries,
                 c.hier.matWays, c.hier.maxSegmentsPerBundle,
                 c.hier.aheadSegments, c.hier.replayDedup,
                 c.hier.subSegmentPacing, c.hier.supersedeRecords,
                 c.hier.trackBundleStats);
    appendFields(key, "|", '|', c.extPrefetchToL2, c.extPrefetchesPerCycle,
                 c.trackReuse, c.longRangePercentile);
    // Appendix-style suffix: only present when sampling is on, so
    // every key from a non-sampled config (including the warmup key
    // embedded in the golden checkpoint blob) is byte-stable.
    if (c.sample.enabled()) {
        appendFields(key, "|sample=", ',', c.sample.intervals,
                     c.sample.windowInsts, c.sample.detailWarmupInsts,
                     c.sample.seed);
    }
    // The scenario text can be kilobytes with newlines; key on its
    // content hash instead of embedding it (operator== still resolves
    // any collision). Absent entirely for scenario-less configs.
    if (!c.scenario.empty()) {
        char hex[16];
        key += "|scenario=";
        key.append(hex, std::to_chars(hex, hex + sizeof(hex),
                                      hashString(c.scenario), 16).ptr);
    }
    // Multi-tenant suffix, same appendix style: absent for every
    // single-core config.
    if (c.mt.enabled()) {
        key += "|mt=";
        for (std::size_t i = 0; i < c.mt.tenants.size(); ++i)
            key += (i ? "+" : "") + c.mt.tenants[i];
        appendFields(key, ";", ',', c.mt.cores, c.mt.switchQuantum,
                     c.mt.partitionMetadata, c.mt.metadataReadBytesPerCycle,
                     c.mt.dramFillGapCycles);
        for (const CoreConfig &cc : c.mt.coreOverrides)
            core(";ov=", ',', cc);
    }
    return key;
}

SimConfig
measurementConfig(const SimConfig &config)
{
    // Fold a degenerate one-tenant consolidation into the classic
    // single-core config first, so its dedup identity — and any
    // checkpoint it shares — is the classic one's.
    SimConfig m = normalizeTenants(config);
    const PrefetcherKind kind = m.prefetcher;

    if (m.mt.enabled()) {
        // A true consolidation takes its streams from the tenant
        // list: the top-level workload is only a label, the scenario
        // text is read only through an "@scenario" tenant, and
        // interval sampling is not modeled.
        m.workload = SimConfig{}.workload;
        if (std::find(m.mt.tenants.begin(), m.mt.tenants.end(),
                      "@scenario") == m.mt.tenants.end())
            m.scenario.clear();
        m.sample = SampleConfig{};
    }

    // Sub-configs of prefetchers other than the one under test are
    // never read by the simulation.
    if (kind != PrefetcherKind::EFetch)
        m.efetch = EFetchConfig{};
    if (kind != PrefetcherKind::Mana)
        m.mana = ManaConfig{};
    if (kind != PrefetcherKind::Eip)
        m.eip = EipConfig{};
    if (kind != PrefetcherKind::Rdip)
        m.rdip = RdipConfig{};
    if (kind != PrefetcherKind::Hierarchical) {
        m.hier = HierarchicalConfig{};
        // Metadata DRAM traffic accounting only exists for the
        // hierarchical prefetcher's off-chip metadata.
        m.mem.metadataDramEvery = HierarchyParams{}.metadataDramEvery;
    }

    // Without an Ext prefetcher there is nothing the ext knobs gate.
    if (kind == PrefetcherKind::None || kind == PrefetcherKind::PerfectL1I) {
        m.extPrefetchToL2 = false;
        m.extPrefetchesPerCycle = SimConfig{}.extPrefetchesPerCycle;
    }

    // A perfect L1-I never consults the hierarchy or the reuse probe.
    if (kind == PrefetcherKind::PerfectL1I) {
        m.mem = HierarchyParams{};
        m.trackReuse = false;
        m.longRangePercentile = SimConfig{}.longRangePercentile;
    }
    if (!m.trackReuse)
        m.longRangePercentile = SimConfig{}.longRangePercentile;

    // With sampling off the window/warmup/seed knobs are never read,
    // so sweeps that only toggle them share one full run. With it on,
    // every (intervals, window, warmup, seed) combination is a
    // distinct measurement and must never alias.
    if (!m.sample.enabled())
        m.sample = SampleConfig{};
    return m;
}

namespace
{

/**
 * The producer of @p config's cache entry. Its report position is
 * taken now, at submission, so the report lists runs in submission
 * order whatever order the workers finish them in; a deduplicated
 * submission leaves its position unused. The full original config
 * reaches the simulation and the report log.
 */
auto
simulation(const SimConfig &config)
{
    return [config, position = RunReportLog::reserve()] {
        SimMetrics metrics = runMaybeSampled(config);
        g_runs.fetch_add(1, std::memory_order_relaxed);
        RunReportLog::record(config, metrics, position);
        return metrics;
    };
}

} // namespace

namespace detail
{

std::shared_future<SimMetrics>
acquireSimulation(const SimConfig &config,
                  std::packaged_task<SimMetrics()> *task)
{
    return g_cache.acquire(measurementConfig(config), simulation(config),
                           task);
}

} // namespace detail

SimMetrics
ExperimentRunner::run(const SimConfig &config)
{
    return g_cache.get(measurementConfig(config), simulation(config));
}

SimConfig
fdipBaseline(const SimConfig &config)
{
    SimConfig base = config;
    base.prefetcher = PrefetcherKind::None;
    base.extPrefetchToL2 = false;
    return base;
}

RunPair
makeRunPair(SimMetrics run, SimMetrics base)
{
    RunPair pair;
    pair.run = std::move(run);
    pair.base = std::move(base);
    pair.paired = pairedMetrics(pair.run, pair.base);
    return pair;
}

RunPair
ExperimentRunner::runPair(const SimConfig &config)
{
    // Submit both halves before waiting so they can overlap on the
    // executor's workers.
    Executor &ex = Executor::global();
    std::shared_future<SimMetrics> run = ex.submit(config);
    std::shared_future<SimMetrics> base =
        ex.submit(fdipBaseline(config));
    return makeRunPair(run.get(), base.get());
}

std::size_t
ExperimentRunner::simulationsRun()
{
    return g_runs.load(std::memory_order_relaxed);
}

SimConfig
defaultConfig(const std::string &workload, PrefetcherKind kind)
{
    SimConfig config;
    config.workload = workload;
    config.prefetcher = kind;
    if (kind == PrefetcherKind::Hierarchical)
        config.hier.trackBundleStats = true;
    // Opt-in sampling (HP_SAMPLE or a bench's --sample flag) applies
    // to every default-configured experiment; benches and tests that
    // construct their SimConfig directly stay unaffected.
    config.sample = defaultSampling();
    // Same opt-in rule for scenarios (HP_SCENARIO or --scenario=).
    config.scenario = defaultScenario();
    return config;
}

} // namespace hp
