/**
 * @file
 * One repetition of one host-throughput benchmark workload.
 *
 * Every repetition runs in a fresh process (perfbench/run.py starts
 * one per repetition), so no process-wide cache of the library — the
 * program-builder cache, the runner's result cache, the global
 * checkpoint store, the scenario parse cache — can serve one
 * repetition from another. The process prints one JSON record on its
 * last stdout line: host timings, the simulated-counter digests, and
 * (with --trace) the in-memory spans' per-layer roll-up.
 *
 * Usage:
 *   hpbench --workload exact-detailed|sampled-grid|consolidated
 *           --seed N --scenario FILE [--trace --spans OUT.json]
 *
 * Host time is what the simulator takes to run; simulated time is what
 * the modelled core would take. Fields ending in _s are host seconds;
 * cycle and count fields are simulated.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/loader.hh"
#include "sim/checkpoint.hh"
#include "sim/executor.hh"
#include "sim/multicore.hh"
#include "sim/runner.hh"
#include "sim/sampling.hh"
#include "sim/simulator.hh"
#include "workload/app_profile.hh"
#include "workload/latency_tracker.hh"
#include "workload/program_builder.hh"
#include "workload/request_engine.hh"
#include "workload/scenario.hh"
#include "workload/scenario_engine.hh"

extern char **environ;

namespace
{

using namespace hp;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

/** Host nanoseconds since process start. */
std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kEpoch)
        .count();
}

double
seconds(std::int64_t ns)
{
    return double(ns) * 1e-9;
}

/** Process CPU seconds (user + system, all threads). */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// ---- Spans ------------------------------------------------------------

/** One timed interval around a call into the library. */
struct Span
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
};

/**
 * In-memory span recorder. Disabled, every operation is a no-op, so
 * the untraced repetitions that produce the end-to-end numbers pay
 * nothing for it. Spans are recorded from one thread; executor jobs,
 * which run on worker threads, are added after the fact (add()).
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** RAII span around a scope; nests under the innermost open one. */
    class Scope
    {
      public:
        Scope(Tracer &t, std::string name) : t_(t)
        {
            if (!t_.enabled_)
                return;
            id_ = int(t_.spans_.size());
            t_.spans_.push_back({std::move(name), nowNs(), 0, t_.open_});
            t_.open_ = id_;
        }
        ~Scope()
        {
            if (id_ < 0)
                return;
            t_.spans_[id_].end = nowNs();
            t_.open_ = t_.spans_[id_].parent;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int id_ = -1;
    };

    /** Adds a finished span under the innermost open one. */
    void
    add(std::string name, std::int64_t start, std::int64_t end)
    {
        if (enabled_)
            spans_.push_back({std::move(name), start, end, open_});
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    int open_ = -1;
};

/** Length of the union of [start, end) intervals, clipped to [lo, hi). */
std::int64_t
unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
            std::int64_t lo, std::int64_t hi)
{
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur = lo;
    for (auto [s, e] : iv) {
        s = std::max(s, cur);
        e = std::min(e, hi);
        if (e > s) {
            covered += e - s;
            cur = e;
        }
    }
    return covered;
}

/** Per-name self time: each span minus the part its children cover. */
std::map<std::string, double>
selfSeconds(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[s.parent].push_back({s.start, s.end});
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        self[s.name] += seconds(s.end - s.start -
                                unionLength(kids[i], s.start, s.end));
    }
    return self;
}

// ---- Digests ----------------------------------------------------------

struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    }
    void str(const std::string &s) { bytes(s.data(), s.size() + 1); }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

/** Digest of every simulated counter a run reports. */
std::string
digestOf(const SimMetrics &m)
{
    Fnv f;
    for (const auto &[path, value] : m.stats.entries()) {
        f.str(path);
        f.u64(value);
    }
    if (m.latency) {
        f.str("latency");
        for (std::uint64_t v : m.latency->latencySamples)
            f.u64(v);
    }
    if (m.sampling) {
        f.str("sampling");
        for (const SamplingInfo::Interval &iv : m.sampling->intervals) {
            f.u64(iv.startInst);
            f.u64(iv.instructions);
            f.u64(iv.cycles);
        }
    }
    return hex(f.h);
}

// ---- One simulation's record -----------------------------------------

struct SimRecord
{
    std::string name;
    SimConfig config;
    SimMetrics metrics;
    double wallS = 0.0;        ///< Host seconds for this simulation.
    std::uint64_t insts = 0;   ///< Simulated warmup + measure insts.
    std::uint64_t cores = 1;
    std::string error;         ///< Non-empty: failed a check.
    // exact-detailed only: the two phases and the warmup cycles.
    double warmupS = 0.0;
    double measureS = 0.0;
    std::uint64_t warmupCycles = 0;
};

const char *
kindTag(PrefetcherKind kind)
{
    switch (kind) {
      case PrefetcherKind::None: return "fdip";
      case PrefetcherKind::EFetch: return "efetch";
      case PrefetcherKind::Mana: return "mana";
      case PrefetcherKind::Eip: return "eip";
      case PrefetcherKind::Hierarchical: return "hp";
      default: return "other";
    }
}

/** Correctness checks every simulated result must pass. */
void
checkResult(SimRecord &r, bool sampled)
{
    const SimMetrics &m = r.metrics;
    const double ipc = m.ipc();
    const double width = double(r.config.commitWidth) * double(r.cores);
    if (m.instructions == 0 || m.cycles == 0 || !(ipc > 0.0) ||
        ipc > width) {
        r.error = "implausible IPC " + std::to_string(ipc);
        return;
    }
    if (sampled) {
        // A sampled run that fell back to the exact path (restore
        // failure, degenerate windows) carries no SamplingInfo.
        if (!m.sampling ||
            m.sampling->intervals.size() != r.config.sample.intervals)
            r.error = "sampled run fell back to exact simulation";
        return;
    }
    // The warmup boundary falls inside a commit group, so the
    // measured count may miss the target by up to one group per core.
    const std::uint64_t want = r.config.measureInsts * r.cores;
    const std::uint64_t slack = r.config.commitWidth * r.cores;
    if (m.instructions + slack < want || m.instructions > want + slack)
        r.error = "measured " + std::to_string(m.instructions) +
                  " instructions, expected " + std::to_string(want);
}

// ---- The benchmark context -------------------------------------------

struct Bench
{
    std::string workload;
    std::uint64_t seed = 1;
    bool trace = false;
    std::string scenarioText;
    unsigned threads = 1;
    std::string mode; ///< Simulation mode and sample spec (provenance).

    Tracer tracer{false};

    double setupS = 0.0;
    std::int64_t wallStart = 0, wallEnd = 0;
    std::vector<SimRecord> sims;
    std::map<std::string, double> layers;
    std::vector<std::string> probeErrors;

    // Setup bookkeeping for the per-layer roll-up.
    std::vector<std::shared_ptr<const BuiltApp>> apps;
};

/**
 * Builds, links and tags every binary @p profiles need, cold, through
 * the process-wide cache the simulator reads, so no simulation below
 * pays for a build.
 */
void
setup(Bench &b, const std::vector<std::string> &profiles)
{
    std::vector<std::string> binaries;
    std::int64_t t0 = nowNs();
    {
        Tracer::Scope s(b.tracer, "setup");
        for (const std::string &name : profiles) {
            const AppProfile &p = appProfile(name);
            if (std::find(binaries.begin(), binaries.end(), p.binary) !=
                binaries.end())
                continue;
            binaries.push_back(p.binary);
            Tracer::Scope c(b.tracer, "ProgramBuilder::cached");
            b.apps.push_back(ProgramBuilder::cached(p));
        }
    }
    b.setupS = seconds(nowNs() - t0);
}

// ---- Probes (traced repetitions only, after the timed wall) ----------

/** Standalone link+tag of every built binary (build_s = setup - it). */
void
probeSetup(Bench &b)
{
    Tracer::Scope s(b.tracer, "probe.link");
    double link = 0.0;
    double functions = 0.0, code = 0.0;
    for (const auto &app : b.apps) {
        std::int64_t t0 = nowNs();
        {
            Tracer::Scope c(b.tracer, "linkAndTag");
            LinkedImage image = linkAndTag(app->program);
            if (image.section.taggedInstructions !=
                app->image.section.taggedInstructions)
                b.probeErrors.push_back("relink of " +
                                        app->profile->binary +
                                        " tagged different instructions");
        }
        link += seconds(nowNs() - t0);
        functions += double(app->program.numFunctions());
        code += double(app->program.totalCodeBytes());
    }
    b.layers["core.loader.link_and_tag_s"] = link;
    b.layers["workload.program_builder.build_s"] =
        std::max(0.0, b.setupS - link);
    b.layers["binary.functions"] = functions;
    b.layers["binary.code_bytes"] = code;
}

/** Host seconds to pull @p insts instructions out of @p stream. */
double
timeStream(Bench &b, InstStream &stream, std::uint64_t insts,
           const char *span)
{
    DynInst inst{};
    std::uint64_t sink = 0;
    std::int64_t t0 = nowNs();
    {
        Tracer::Scope s(b.tracer, span);
        for (std::uint64_t i = 0; i < insts; ++i) {
            stream.next(inst);
            sink += inst.pc;
        }
    }
    double t = seconds(nowNs() - t0);
    if (sink == 0)
        b.probeErrors.push_back(std::string(span) + " produced no code");
    return t;
}

/**
 * Standalone RequestEngine rate over each single-workload simulation's
 * own instruction count, and the share of simulation host time that
 * stream generation would take at that rate.
 */
void
probeRequestEngine(Bench &b)
{
    Tracer::Scope s(b.tracer, "probe.request_engine");
    std::map<std::string, double> nsPerInst;
    double insts = 0.0, secs = 0.0;
    for (const SimRecord &r : b.sims) {
        if (nsPerInst.count(r.config.workload))
            continue;
        const AppProfile &p = appProfile(r.config.workload);
        RequestEngine engine(ProgramBuilder::cached(p), p);
        double t = timeStream(b, engine, r.insts, "RequestEngine::next");
        nsPerInst[r.config.workload] = t * 1e9 / double(r.insts);
        insts += double(r.insts);
        secs += t;
    }
    double streamS = 0.0, simS = 0.0;
    for (const SimRecord &r : b.sims) {
        auto it = nsPerInst.find(r.config.workload);
        if (it == nsPerInst.end())
            continue;
        streamS += it->second * 1e-9 * double(r.insts);
        simS += r.wallS;
    }
    b.layers["workload.request_engine.mips"] =
        secs > 0.0 ? insts / secs * 1e-6 : 0.0;
    b.layers["workload.request_engine.share"] =
        simS > 0.0 ? streamS / simS : 0.0;
}

/**
 * Simulated per-kilo-instruction counters over every simulation, and
 * the host cost of HP over FDIP.
 */
void
counterLayers(Bench &b)
{
    auto sum = [&](const std::string &path, bool hpOnly) {
        double v = 0.0, insts = 0.0;
        for (const SimRecord &r : b.sims) {
            if (hpOnly && r.config.prefetcher != PrefetcherKind::Hierarchical)
                continue;
            if (r.metrics.stats.has(path))
                v += double(r.metrics.stats.value(path));
            insts += double(r.metrics.instructions);
        }
        return std::make_pair(v, insts);
    };
    auto pki = [&](const std::string &metric, const std::string &path,
                   bool hpOnly = false) {
        auto [v, insts] = sum(path, hpOnly);
        b.layers[metric] = insts > 0.0 ? v * 1000.0 / insts : 0.0;
    };
    pki("frontend.btb.lookups_pki", "btb.lookups");
    pki("frontend.cond.predictions_pki", "cond.predictions");
    pki("frontend.cond.mispredicts_pki", "cond.mispredicts");
    pki("cache.l1i.demand_accesses_pki", "l1i.demand_accesses");
    pki("cache.l1i.demand_misses_pki", "l1i.demand_misses");
    pki("cache.l2i.demand_misses_pki", "l2i.demand_misses");
    pki("cache.llc.demand_misses_pki", "llc.demand_misses");
    pki("sim.fetch_stall_cycles_pki", "sim.fetch_stall_cycles");
    pki("core.hier.replay_prefetches_pki", "hier.replay_prefetches", true);
    pki("core.hier.metadata_read_bytes_pki", "hier.metadata_read_bytes",
        true);
    pki("core.hier.mat_hits_pki", "hier.mat_hits", true);
    pki("core.hier.mat_misses_pki", "hier.mat_misses", true);
    double useful = sum("ext.useful_l1", true).first +
                    sum("ext.useful_l2", true).first;
    double issued = sum("ext.issued", true).first;
    b.layers["core.hier.useful_per_issued"] =
        issued > 0.0 ? useful / issued : 0.0;

    // Host ns per simulated instruction, HP minus its FDIP twins.
    double t[2] = {0.0, 0.0}, n[2] = {0.0, 0.0};
    for (const SimRecord &r : b.sims) {
        int k = r.config.prefetcher == PrefetcherKind::None ? 0
              : r.config.prefetcher == PrefetcherKind::Hierarchical ? 1
              : -1;
        if (k >= 0) {
            t[k] += r.wallS;
            n[k] += double(r.insts);
        }
    }
    if (n[0] > 0.0 && n[1] > 0.0)
        b.layers["core.hierarchical_prefetcher.ns_per_inst"] =
            (t[1] / n[1] - t[0] / n[0]) * 1e9;
}

// ---- Workloads --------------------------------------------------------

const std::vector<PrefetcherKind> kExactKinds = {
    PrefetcherKind::None, PrefetcherKind::Hierarchical};

/**
 * exact-detailed: one thread drives the Simulator directly — no runner
 * cache, no checkpoints, no sampling — over the smallest and largest
 * binaries, FDIP and HP, at Table 1 instruction counts.
 */
void
runExactDetailed(Bench &b)
{
    const std::vector<std::string> profiles = {"caddy", "tidb-tpcc"};
    b.mode = "exact";
    setup(b, profiles);

    b.wallStart = nowNs();
    {
        Tracer::Scope w(b.tracer, "wall");
        for (const std::string &name : profiles) {
            for (PrefetcherKind kind : kExactKinds) {
                SimRecord r;
                r.name = name + "/" + kindTag(kind);
                r.config = defaultConfig(name, kind);
                r.config.sample = SampleConfig{};
                r.insts = r.config.warmupInsts + r.config.measureInsts;
                std::int64_t t0 = nowNs();
                {
                    Tracer::Scope s(b.tracer, "sim");
                    std::unique_ptr<Simulator> sim;
                    {
                        Tracer::Scope c(b.tracer, "Simulator::Simulator");
                        sim = std::make_unique<Simulator>(r.config);
                    }
                    std::int64_t w0 = nowNs();
                    {
                        Tracer::Scope c(b.tracer, "Simulator::runWarmup");
                        sim->runWarmup();
                    }
                    std::int64_t w1 = nowNs();
                    r.warmupCycles = sim->stats().value("sim.cycles");
                    {
                        Tracer::Scope c(b.tracer, "Simulator::finishRun");
                        r.metrics = sim->finishRun();
                    }
                    r.warmupS = seconds(w1 - w0);
                    r.measureS = seconds(nowNs() - w1);
                    Tracer::Scope c(b.tracer, "Simulator::~Simulator");
                    sim.reset();
                }
                r.wallS = seconds(nowNs() - t0);
                checkResult(r, false);
                b.sims.push_back(std::move(r));
            }
        }
    }
    b.wallEnd = nowNs();

    if (!b.trace)
        return;
    probeSetup(b);
    probeRequestEngine(b);
    counterLayers(b);
    // Per prefetcher kind, summed over both profiles.
    for (PrefetcherKind kind : kExactKinds) {
        const std::string tag = kindTag(kind);
        double warm = 0.0, meas = 0.0, insts = 0.0, cycles = 0.0;
        for (const SimRecord &r : b.sims) {
            if (r.config.prefetcher != kind)
                continue;
            warm += r.warmupS;
            meas += r.measureS;
            insts += double(r.insts);
            cycles += double(r.warmupCycles + r.metrics.cycles);
        }
        b.layers["sim.simulator.warmup_s." + tag] = warm;
        b.layers["sim.simulator.measure_s." + tag] = meas;
        b.layers["sim.simulator.ns_per_inst." + tag] =
            (warm + meas) * 1e9 / insts;
        b.layers["sim.simulator.ns_per_cycle." + tag] =
            (warm + meas) * 1e9 / cycles;
    }
}

/**
 * sampled-grid: the fig09 grid (11 workloads x {EFetch, MANA, EIP, HP}
 * plus the FDIP twins) sampled at 12 windows of 30k instructions after
 * 10k of detailed warmup, on an Executor of min(nproc, 4) threads with
 * the in-memory checkpoint store.
 *
 * The body of Executor::runPairs (submitPair for every config, then
 * collect in order) is inlined so the main thread can poll each job's
 * future. The executor is FIFO, so from the completion times alone
 * each job's start is exact: a worker takes the next queued job the
 * moment its previous one completes.
 */
void
runSampledGrid(Bench &b)
{
    const std::vector<PrefetcherKind> kinds = {
        PrefetcherKind::EFetch, PrefetcherKind::Mana, PrefetcherKind::Eip,
        PrefetcherKind::Hierarchical};
    const SampleConfig sample{12, 30'000, 10'000, b.seed};
    b.mode = "sampled " + std::to_string(sample.intervals) + "," +
             std::to_string(sample.windowInsts) + "," +
             std::to_string(sample.detailWarmupInsts) + "," +
             std::to_string(sample.seed);
    setup(b, allWorkloads());

    std::vector<SimConfig> grid;
    for (const std::string &w : allWorkloads())
        for (PrefetcherKind kind : kinds) {
            SimConfig c = defaultConfig(w, kind);
            c.sample = sample;
            grid.push_back(c);
        }

    Executor ex(b.threads);
    struct Job
    {
        std::shared_future<SimMetrics> future;
        std::int64_t done = -1;
        std::size_t sim = 0;
    };
    std::vector<Job> jobs;
    std::vector<RunPair> pairs;
    std::vector<std::string> seenBase;
    std::vector<std::size_t> runSim;
    double cpu0 = 0.0, cpu1 = 0.0;
    std::uint64_t simsBefore = ExperimentRunner::simulationsRun();

    b.wallStart = nowNs();
    {
        Tracer::Scope w(b.tracer, "wall");
        Tracer::Scope rp(b.tracer, "Executor::runPairs");
        cpu0 = cpuSeconds();
        std::vector<PairFutures> futures;
        {
            Tracer::Scope s(b.tracer, "Executor::submitPair");
            for (const SimConfig &c : grid) {
                futures.push_back(ex.submitPair(c));
                // Queue order: the run, then its FDIP twin unless an
                // earlier config of the workload already queued it.
                SimRecord r;
                r.config = c;
                r.name = c.workload + "/" + kindTag(c.prefetcher);
                runSim.push_back(b.sims.size());
                jobs.push_back({futures.back().run, -1, b.sims.size()});
                b.sims.push_back(r);
                if (std::find(seenBase.begin(), seenBase.end(),
                              c.workload) == seenBase.end()) {
                    seenBase.push_back(c.workload);
                    r.config = fdipBaseline(c);
                    r.name = c.workload + "/fdip";
                    jobs.push_back({futures.back().base, -1,
                                    b.sims.size()});
                    b.sims.push_back(r);
                }
            }
        }
        std::size_t pending = jobs.size();
        while (pending > 0) {
            for (Job &j : jobs) {
                if (j.done < 0 &&
                    j.future.wait_for(std::chrono::seconds(0)) ==
                        std::future_status::ready) {
                    j.done = nowNs();
                    --pending;
                }
            }
            if (pending > 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        {
            Tracer::Scope s(b.tracer, "PairFutures::collect");
            for (const PairFutures &f : futures)
                pairs.push_back(f.collect());
        }
        cpu1 = cpuSeconds();

        // FIFO reconstruction of every job's start on its worker.
        std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                            std::greater<>>
            free;
        for (unsigned i = 0; i < b.threads; ++i)
            free.push(b.wallStart);
        for (Job &j : jobs) {
            std::int64_t start = free.top();
            free.pop();
            start = std::min(start, j.done);
            free.push(j.done);
            SimRecord &r = b.sims[j.sim];
            r.metrics = j.future.get();
            r.wallS = seconds(j.done - start);
            r.insts = r.config.warmupInsts + r.config.measureInsts;
            b.tracer.add("runSampled", start, j.done);
            checkResult(r, true);
        }
    }
    b.wallEnd = nowNs();

    const std::uint64_t ran = ExperimentRunner::simulationsRun() - simsBefore;
    if (ran != jobs.size())
        for (SimRecord &r : b.sims)
            r.error = "executor ran " + std::to_string(ran) +
                      " simulations for " + std::to_string(jobs.size()) +
                      " distinct configs";

    // Collected pairs must be the very results polled above.
    for (std::size_t i = 0; i < pairs.size(); ++i)
        if (digestOf(pairs[i].run) != digestOf(b.sims[runSim[i]].metrics))
            b.probeErrors.push_back("collected pair " + std::to_string(i) +
                                    " differs from its polled result");

    if (!b.trace)
        return;
    const double wall = seconds(b.wallEnd - b.wallStart);
    probeSetup(b);
    probeRequestEngine(b);
    counterLayers(b);

    double runS = 0.0;
    std::uint64_t forks = 0;
    for (const SimRecord &r : b.sims) {
        runS += r.wallS;
        if (r.metrics.sampling)
            forks += r.metrics.sampling->intervals.size();
    }
    b.layers["sim.sampling.run_s"] = runS;
    b.layers["sim.checkpoint.forks"] = double(forks);
    b.layers["sim.checkpoint.classes"] =
        double(CheckpointStore::global().size());
    b.layers["sim.executor.cpu_util"] =
        (cpu1 - cpu0) / (double(b.threads) * wall);
    b.layers["sim.runner.simulations"] = double(jobs.size());
    b.layers["sim.runner.dedup_ratio"] =
        double(2 * grid.size()) / double(jobs.size());

    // Every warmup class's blob, as the grid left it in the store:
    // encode, decode, restore into a fresh simulator, and capture it
    // again — the recaptured payload must equal the original.
    Tracer::Scope s(b.tracer, "probe.checkpoint");
    double cap = 0.0, enc = 0.0, dec = 0.0, res = 0.0, bytes = 0.0;
    double ffInsts = 0.0, ffS = 0.0;
    for (const SimRecord &r : b.sims) {
        auto ckpt = acquireWarmedCheckpoint(r.config);
        Simulator sim(r.config);
        std::int64_t t0 = nowNs();
        std::vector<std::uint8_t> blob;
        {
            Tracer::Scope c(b.tracer, "Checkpoint::encode");
            blob = ckpt->encode();
        }
        std::int64_t t1 = nowNs();
        std::string err;
        std::shared_ptr<const Checkpoint> back;
        {
            Tracer::Scope c(b.tracer, "Checkpoint::decode");
            back = Checkpoint::decode(blob, &err);
        }
        std::int64_t t2 = nowNs();
        bool ok = false;
        if (back) {
            Tracer::Scope c(b.tracer, "Checkpoint::restoreInto");
            ok = back->restoreInto(sim, &err);
        }
        std::int64_t t3 = nowNs();
        if (!ok) {
            b.probeErrors.push_back(r.name + ": restore failed: " + err);
            continue;
        }
        {
            Tracer::Scope c(b.tracer, "Checkpoint::capture");
            Checkpoint again = Checkpoint::capture(sim, ckpt->warmupKey());
            if (again.payload() != ckpt->payload())
                b.probeErrors.push_back(r.name +
                                        ": recaptured state differs");
        }
        std::int64_t t4 = nowNs();
        enc += seconds(t1 - t0);
        dec += seconds(t2 - t1);
        res += seconds(t3 - t2);
        cap += seconds(t4 - t3);
        bytes += double(blob.size());
        // Functional fast-forward rate, timed on every FDIP class.
        if (r.config.prefetcher == PrefetcherKind::None) {
            constexpr std::uint64_t kFf = 1'000'000;
            std::int64_t f0 = nowNs();
            {
                Tracer::Scope c(b.tracer, "Simulator::fastForward");
                sim.fastForward(kFf);
            }
            ffS += seconds(nowNs() - f0);
            ffInsts += double(kFf);
        }
    }
    b.layers["sim.checkpoint.capture_s"] = cap;
    b.layers["sim.checkpoint.encode_s"] = enc;
    b.layers["sim.checkpoint.decode_s"] = dec;
    b.layers["sim.checkpoint.restore_s"] = res;
    b.layers["sim.checkpoint.blob_bytes"] = bytes;
    b.layers["sim.sampling.ff_mips"] = ffS > 0.0 ? ffInsts / ffS * 1e-6 : 0.0;
}

/**
 * consolidated: two cores sharing the L2/LLC, one thread. Core 0
 * context-switches gin <-> beego with partitioned metadata; core 1
 * runs the microservice-chain scenario. HP and its FDIP twin.
 */
void
runConsolidated(Bench &b)
{
    auto scen = cachedScenario(b.scenarioText);
    b.mode = "exact multicore";
    std::vector<std::string> profiles = {"gin", "beego"};
    for (const ServiceSpec &svc : scen->services)
        profiles.push_back(svc.profile);
    setup(b, profiles);

    SimConfig hpCfg;
    hpCfg.prefetcher = PrefetcherKind::Hierarchical;
    hpCfg.scenario = b.scenarioText;
    hpCfg.mt.tenants = {"gin", "@scenario", "beego"};
    hpCfg.mt.cores = 2;
    hpCfg.mt.partitionMetadata = true;
    hpCfg.mt.metadataReadBytesPerCycle = 8;
    hpCfg.mt.dramFillGapCycles = 4;
    SimConfig fdipCfg = hpCfg;
    fdipCfg.prefetcher = PrefetcherKind::None;

    b.wallStart = nowNs();
    {
        Tracer::Scope w(b.tracer, "wall");
        for (const SimConfig *c : {&hpCfg, &fdipCfg}) {
            SimRecord r;
            r.config = *c;
            r.name = std::string("consolidated/") + kindTag(c->prefetcher);
            r.cores = c->mt.coreCount();
            r.insts = (c->warmupInsts + c->measureInsts) * r.cores;
            std::int64_t t0 = nowNs();
            {
                Tracer::Scope s(b.tracer, "runMultiTenant");
                r.metrics = runMultiTenant(r.config);
            }
            r.wallS = seconds(nowNs() - t0);
            checkResult(r, false);
            if (r.error.empty() &&
                (!r.metrics.latency || r.metrics.latency->completed == 0))
                r.error = "scenario completed no requests";
            b.sims.push_back(std::move(r));
        }
    }
    b.wallEnd = nowNs();

    if (!b.trace)
        return;
    probeSetup(b);
    counterLayers(b);
    // Stream generation for one simulation: core 1's scenario stream
    // plus core 0's two request-engine tenants, which share core 0's
    // instruction budget across their quanta.
    const std::uint64_t perCore = b.sims[0].insts / b.sims[0].cores;
    double scenS = 0.0, reqS = 0.0;
    {
        ScenarioEngine engine(scen);
        scenS = timeStream(b, engine, perCore, "ScenarioEngine::next");
    }
    for (const char *name : {"gin", "beego"}) {
        const AppProfile &p = appProfile(name);
        RequestEngine engine(ProgramBuilder::cached(p), p);
        reqS += timeStream(b, engine, perCore / 2, "RequestEngine::next");
    }
    b.layers["workload.scenario_engine.mips"] = double(perCore) / scenS * 1e-6;
    b.layers["workload.request_engine.mips"] = double(perCore) / reqS * 1e-6;

    const SimRecord &hpRun = b.sims[0];
    double runS = 0.0, insts = 0.0;
    for (const SimRecord &r : b.sims) {
        runS += r.wallS;
        insts += double(r.insts);
    }
    b.layers["workload.request_engine.share"] =
        double(b.sims.size()) * (scenS + reqS) / runS;
    b.layers["sim.multicore.run_s"] = runS;
    b.layers["sim.multicore.mips"] = insts / runS * 1e-6;
    const StatsSnapshot &st = hpRun.metrics.stats;
    auto val = [&](const std::string &p) {
        return st.has(p) ? double(st.value(p)) : 0.0;
    };
    b.layers["sim.context_switches"] = val("sim.context_switches");
    b.layers["mt.metadata_arbiter_stall_cycles"] =
        val("mt.metadata_arbiter_stall_cycles");
    for (unsigned c = 0; c < hpRun.cores; ++c) {
        const std::string pre = "core" + std::to_string(c) + ".";
        double cyc = val(pre + "sim.cycles");
        b.layers["sim.multicore.core" + std::to_string(c) + "_ipc"] =
            cyc > 0.0 ? val(pre + "sim.instructions") / cyc : 0.0;
    }
    const LatencyReport &lat = *hpRun.metrics.latency;
    b.layers["workload.latency_tracker.completed"] = double(lat.completed);
    b.layers["workload.latency_tracker.dropped"] = double(lat.dropped);
    b.layers["workload.latency_tracker.mean_queue_depth"] =
        lat.queueDepthMean();
    b.layers["workload.latency_tracker.req_p99_cycles"] = double(lat.p99());
}

// ---- Output -----------------------------------------------------------

/** Geomean HP IPC over FDIP on matching workloads, in percent. */
double
hpSpeedupPct(const Bench &b)
{
    std::map<std::string, double> fdip, hp;
    for (const SimRecord &r : b.sims) {
        const std::string key =
            r.config.mt.enabled() ? "consolidated" : r.config.workload;
        if (r.config.prefetcher == PrefetcherKind::None)
            fdip[key] = r.metrics.ipc();
        else if (r.config.prefetcher == PrefetcherKind::Hierarchical)
            hp[key] = r.metrics.ipc();
    }
    double logSum = 0.0;
    int n = 0;
    for (const auto &[key, ipc] : hp) {
        auto it = fdip.find(key);
        if (it == fdip.end() || it->second <= 0.0)
            continue;
        logSum += std::log(ipc / it->second);
        ++n;
    }
    return n ? (std::exp(logSum / n) - 1.0) * 100.0 : 0.0;
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out + "\"";
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
writeSpans(const Bench &b, const std::string &path)
{
    std::ofstream out(path);
    out << "{\"workload\": " << jsonStr(b.workload)
        << ", \"seed\": " << b.seed << ", \"spans\": [\n";
    const auto &spans = b.tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "  {\"id\": " << i << ", \"name\": " << jsonStr(s.name)
            << ", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
            << ", \"parent\": " << s.parent << "}"
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out)
        throw std::runtime_error("cannot write spans to " + path);
}

void
printRecord(Bench &b)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double wall = seconds(b.wallEnd - b.wallStart);
    std::uint64_t insts = 0;
    for (const SimRecord &r : b.sims)
        insts += r.insts;

    Fnv all;
    std::ostringstream sims;
    for (std::size_t i = 0; i < b.sims.size(); ++i) {
        const SimRecord &r = b.sims[i];
        const std::string d = digestOf(r.metrics);
        all.str(d);
        sims << (i ? ", " : "") << "{\"name\": " << jsonStr(r.name)
             << ", \"wall_s\": " << jsonNum(r.wallS)
             << ", \"ipc\": " << jsonNum(r.metrics.ipc())
             << ", \"digest\": \"" << d << "\""
             << ", \"error\": " << jsonStr(r.error) << "}";
    }

    double p99 = 0.0;
    for (const SimRecord &r : b.sims)
        if (r.config.prefetcher == PrefetcherKind::Hierarchical &&
            r.metrics.latency)
            p99 = double(r.metrics.latency->p99());

    std::ostringstream o;
    o << "{\"workload\": " << jsonStr(b.workload) << ", \"seed\": " << b.seed
      << ", \"traced\": " << (b.trace ? "true" : "false")
      << ", \"threads\": " << b.threads
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"mode\": " << jsonStr(b.mode)
      << ", \"build\": " << jsonStr(HPB_BUILD_FLAGS)
      << ", \"setup_s\": " << jsonNum(b.setupS)
      << ", \"wall_s\": " << jsonNum(wall)
      << ", \"sim_insts\": " << insts
      << ", \"peak_rss_mb\": " << jsonNum(double(ru.ru_maxrss) / 1024.0)
      << ", \"hp_speedup_pct\": " << jsonNum(hpSpeedupPct(b))
      << ", \"req_p99_cycles\": " << jsonNum(p99)
      << ", \"digest\": \"" << hex(all.h) << "\""
      << ", \"sims\": [" << sims.str() << "]";

    o << ", \"probe_errors\": [";
    for (std::size_t i = 0; i < b.probeErrors.size(); ++i)
        o << (i ? ", " : "") << jsonStr(b.probeErrors[i]);
    o << "]";

    if (b.trace) {
        // Leaf spans (the library calls) must account for the wall.
        std::vector<std::pair<std::int64_t, std::int64_t>> leaves;
        const auto &spans = b.tracer.spans();
        std::vector<bool> hasKid(spans.size(), false);
        for (const Span &s : spans)
            if (s.parent >= 0)
                hasKid[s.parent] = true;
        for (std::size_t i = 0; i < spans.size(); ++i)
            if (!hasKid[i])
                leaves.push_back({spans[i].start, spans[i].end});
        b.layers["bench.span_coverage"] =
            double(unionLength(leaves, b.wallStart, b.wallEnd)) /
            double(b.wallEnd - b.wallStart);
        o << ", \"layers\": {";
        bool first = true;
        for (const auto &[k, v] : b.layers) {
            o << (first ? "" : ", ") << jsonStr(k) << ": " << jsonNum(v);
            first = false;
        }
        o << "}, \"self_s\": {";
        first = true;
        for (const auto &[k, v] : selfSeconds(spans)) {
            o << (first ? "" : ", ") << jsonStr(k) << ": " << jsonNum(v);
            first = false;
        }
        o << "}";
    }
    o << "}";
    std::printf("%s\n", o.str().c_str());
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "hpbench: %s\nusage: hpbench --workload "
                 "exact-detailed|sampled-grid|consolidated --seed N "
                 "--scenario FILE [--trace --spans OUT]\n",
                 msg);
    std::exit(2);
}

/** Reads @p path and replaces its `seed` line with @p seed. */
std::string
seededScenario(const std::string &path, std::uint64_t seed)
{
    std::ifstream in(path);
    if (!in)
        usage(("cannot read scenario " + path).c_str());
    std::string line, text;
    bool replaced = false;
    while (std::getline(in, line)) {
        std::size_t i = line.find_first_not_of(" \t");
        if (i != std::string::npos && line.compare(i, 5, "seed ") == 0) {
            line = "seed " + std::to_string(seed);
            replaced = true;
        }
        text += line + "\n";
    }
    if (!replaced)
        usage(("scenario " + path + " has no seed line").c_str());
    return text;
}

} // namespace

int
main(int argc, char **argv)
{
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
    std::fprintf(stderr, "hpbench: refusing to time an unoptimized or "
                         "sanitizer build (%s)\n", HPB_BUILD_FLAGS);
    return 2;
#endif
    if (std::strstr(HPB_BUILD_FLAGS, "-fsanitize") ||
        std::strstr(HPB_BUILD_FLAGS, "-O0")) {
        std::fprintf(stderr, "hpbench: refusing to time build flags %s\n",
                     HPB_BUILD_FLAGS);
        return 2;
    }
    // HP_* variables would change what the library simulates or where
    // it keeps checkpoints; the benchmark defines every input itself.
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "HP_", 3) == 0) {
            std::fprintf(stderr, "hpbench: refusing to run with %s set\n",
                         *e);
            return 2;
        }

    Bench b;
    std::string scenarioPath, spansPath;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            b.workload = value();
        else if (a == "--seed") {
            std::string v = value();
            char *end = nullptr;
            b.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || v[0] == '-')
                usage(("bad seed " + v).c_str());
        }
        else if (a == "--scenario")
            scenarioPath = value();
        else if (a == "--spans")
            spansPath = value();
        else if (a == "--trace")
            b.trace = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (b.trace && spansPath.empty())
        usage("--trace needs --spans");
    b.tracer = Tracer(b.trace);
    b.threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));

    if (b.workload == "exact-detailed") {
        b.threads = 1;
        runExactDetailed(b);
    } else if (b.workload == "sampled-grid") {
        runSampledGrid(b);
    } else if (b.workload == "consolidated") {
        if (scenarioPath.empty())
            usage("consolidated needs --scenario");
        b.threads = 1;
        b.scenarioText = seededScenario(scenarioPath, b.seed);
        runConsolidated(b);
    } else {
        usage(("unknown workload '" + b.workload + "'").c_str());
    }

    if (b.trace)
        writeSpans(b, spansPath);
    printRecord(b);
    return 0;
}
