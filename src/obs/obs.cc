#include "obs/obs.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>

#include "obs/perfetto_export.hh"
#include "sim/runtime_options.hh"
#include "util/logging.hh"

namespace hp::obs
{

namespace
{

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = runtimeEnv(name);
    if (v == nullptr || *v == '\0')
        return fallback;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0')
        fatal(std::string(name) + " must be a positive integer, got: " + v);
    return parsed;
}

ObsConfig
configFromEnv()
{
    ObsConfig cfg;
    if (const char *v = runtimeEnv("HP_TRACE_JSON"))
        cfg.tracePath = v;
    if (const char *v = runtimeEnv("HP_TIMESERIES"))
        cfg.timeseriesPath = v;
    if (const char *v = runtimeEnv("HP_MISS_ATTR"))
        cfg.attribution = (*v != '\0' && *v != '0');
    if (const char *v = runtimeEnv("HP_SPANS"))
        cfg.spans = (*v != '\0' && *v != '0');
    cfg.spanReservoir = static_cast<std::size_t>(
        envU64("HP_SPAN_TOPK", cfg.spanReservoir));
    if (cfg.spanReservoir == 0)
        cfg.spanReservoir = 1;
    cfg.intervalInsts = envU64("HP_TS_INTERVAL", cfg.intervalInsts);
    if (cfg.intervalInsts == 0)
        cfg.intervalInsts = 1;
    cfg.traceCapacity = static_cast<std::size_t>(
        envU64("HP_TRACE_CAP", cfg.traceCapacity));
    if (cfg.traceCapacity == 0)
        cfg.traceCapacity = 1;
    return cfg;
}

std::mutex &
collectorMutex()
{
    static std::mutex m;
    return m;
}

std::vector<RunCapture> &
collectedRuns()
{
    static std::vector<RunCapture> runs;
    return runs;
}

} // namespace

ObsConfig &
config()
{
    static ObsConfig cfg = configFromEnv();
    return cfg;
}

void
Collector::addRun(RunCapture capture)
{
    std::lock_guard<std::mutex> lock(collectorMutex());
    collectedRuns().push_back(std::move(capture));
}

std::size_t
Collector::runCount()
{
    std::lock_guard<std::mutex> lock(collectorMutex());
    return collectedRuns().size();
}

void
Collector::writeOutputs()
{
    std::vector<RunCapture> runs;
    {
        std::lock_guard<std::mutex> lock(collectorMutex());
        runs = collectedRuns();
    }
    if (runs.empty())
        return;
    const ObsConfig &cfg = config();
    if (cfg.traceEnabled())
        writePerfettoJson(cfg.tracePath, runs);
    if (cfg.timeseriesEnabled())
        writeTimeseriesCsv(cfg.timeseriesPath, runs);
}

void
Collector::clear()
{
    std::lock_guard<std::mutex> lock(collectorMutex());
    collectedRuns().clear();
}

void
writeTimeseriesCsv(const std::string &path,
                   const std::vector<RunCapture> &runs)
{
    std::ostringstream out;
    out << "run,label,interval_insts,phase,insts,cycles,d_insts,"
           "d_cycles,d_l1i_accesses,d_l1i_misses,d_dram_bytes,"
           "d_metadata_bytes,ipc,l1i_mpki\n";
    unsigned run_idx = 0;
    for (const RunCapture &run : runs) {
        for (const SampleRow &row : run.samples) {
            out << run_idx << ',' << run.label << ','
                << run.tsInterval << ','
                << (row.measuring ? "measure" : "warmup") << ','
                << row.insts << ',' << row.cycles << ',' << row.dInsts
                << ',' << row.dCycles << ',' << row.dL1iAccesses << ','
                << row.dL1iMisses << ',' << row.dDramBytes << ','
                << row.dMetadataBytes << ',';
            char buf[32];
            const double ipc = row.dCycles
                ? static_cast<double>(row.dInsts) / row.dCycles : 0.0;
            const double mpki = row.dInsts
                ? 1000.0 * row.dL1iMisses / row.dInsts : 0.0;
            std::snprintf(buf, sizeof(buf), "%.4f", ipc);
            out << buf << ',';
            std::snprintf(buf, sizeof(buf), "%.4f", mpki);
            out << buf << '\n';
        }
        ++run_idx;
    }
    const std::string doc = out.str();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot open time-series CSV for writing: " + path);
    const std::size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
    if (n != doc.size()) {
        std::fclose(f);
        fatal("short write to time-series CSV: " + path);
    }
    if (std::fclose(f) != 0)
        fatal("error closing time-series CSV: " + path);
}

} // namespace hp::obs
