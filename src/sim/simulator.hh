/**
 * @file
 * The cycle-level front-end simulator.
 *
 * The modeled core has a decoupled FDIP front end: a branch-prediction
 * unit walks ahead of fetch along the program path, pushing fetch
 * blocks into the FTQ and prefetching them into the L1-I. Run-ahead is
 * structurally gated — a BTB miss on a taken branch stalls prediction
 * until the branch is fetched and decoded, and a direction/indirect/RAS
 * mispredict stalls it until the branch commits — reproducing FDIP's
 * real limitations without simulating wrong-path fetch (see DESIGN.md).
 * Fetch consumes FTQ blocks through the I-TLB and L1-I; the back end is
 * an idealized commit stage with a calibrated long-latency stall
 * component.
 */

#ifndef HP_SIM_SIMULATOR_HH
#define HP_SIM_SIMULATOR_HH

#include <memory>
#include <vector>

#include "cache/reuse_distance.hh"
#include "frontend/btb.hh"
#include "obs/obs.hh"
#include "obs/request_span.hh"
#include "frontend/cond_predictor.hh"
#include "frontend/indirect_predictor.hh"
#include "frontend/ras.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"
#include "stats/histogram.hh"
#include "stats/registry.hh"
#include "util/ring_buffer.hh"
#include "workload/program_builder.hh"
#include "workload/request_engine.hh"
#include "workload/scenario_engine.hh"

namespace hp
{

/** Creates the configured prefetcher (nullptr for None/PerfectL1I). */
std::unique_ptr<Prefetcher> makePrefetcher(const SimConfig &config,
                                           MetadataMemory &memory);

/**
 * Execution mode of the simulation engine (see DESIGN.md §10).
 * FastForward updates architectural warm state (caches, predictors,
 * prefetcher metadata) without any per-cycle timing; the two detailed
 * modes run the full cycle loop and differ only in whether the
 * measurement counters accumulate.
 */
enum class SimMode : std::uint8_t
{
    FastForward,
    DetailedWarmup,
    DetailedMeasure,
};

/**
 * Per-core construction parameters for consolidated multi-core runs
 * (DESIGN.md §12). Default-constructed it describes the classic
 * single-core simulation.
 */
struct CoreInit
{
    /** Index of this core in the consolidation (stats labeling). */
    unsigned coreId = 0;

    /** Shared L2/LLC plus DRAM/metadata arbitration state; nullptr =
     *  core-private levels (the single-core default). */
    std::shared_ptr<SharedLevels> shared;

    /**
     * Tenants co-scheduled on this core: AppProfile names, or the
     * literal "@scenario" for the config's scenario spec (allowed
     * only as the core's sole tenant — the latency tracker's
     * begin/end pairing does not survive a context-switch squash).
     * Empty = the config's own workload/scenario.
     */
    std::vector<std::string> tenants;

    /** Round-robin context-switch quantum in committed instructions
     *  (0 = never switch). */
    std::uint64_t switchQuantum = 0;

    /** Partition the Metadata Buffer quota ranges and MAT ways per
     *  tenant instead of flushing the MAT on every switch. */
    bool partitionMetadata = false;
};

/** One simulated core. */
class Simulator
{
  public:
    explicit Simulator(const SimConfig &config);

    /** Multi-tenant core inside a consolidated run (DESIGN.md §12). */
    Simulator(const SimConfig &config, const CoreInit &init);

    /** Flushes any pending observability capture (see flushObs). */
    ~Simulator();

    /**
     * Runs warmup + measurement and returns the measured metrics.
     * A Simulator instance is single-use. Equivalent to runWarmup()
     * followed by finishRun().
     */
    SimMetrics run();

    /**
     * Runs the warmup phase only, stopping at the exact measurement
     * boundary: after the commit that crossed warmupInsts, before
     * beginMeasurement() and the boundary iteration's cycle advance.
     * The stopped state is what Checkpoint::capture serializes.
     */
    void runWarmup();

    /**
     * Runs the measurement phase from the warmup boundary and returns
     * the metrics. After runWarmup() on this instance, or after a
     * checkpoint restore into a freshly constructed instance, the
     * result is bit-identical to a plain run(); on a fresh instance
     * it runs the warmup first.
     */
    SimMetrics finishRun();

    /**
     * Serializes (StateWriter) or restores (StateLoader) the complete
     * microarchitectural state at the warmup boundary: caches, I-TLB,
     * BTB, predictors, RAS, request engine, prefetcher, and the
     * FTQ/window front-end state. Restore mutates components in place
     * — the stats registry holds reader closures over their fields —
     * and leaves the engine at a pre-measurement segment boundary, so
     * one instance can be restored and replayed repeatedly (the
     * sampled-simulation interval loop relies on this).
     */
    template <class Ar> void serializeState(Ar &ar);

    // ---- Segmented execution (the sampled-simulation building
    // blocks; see sim/sampling.hh). Every entry point stops at the
    // same segment boundary, after the commit that crossed its target
    // and before that cycle's advance, so any sequence composes. ----

    /**
     * Functionally fast-forwards @p insts commits: the architectural
     * instruction stream updates caches, I-TLB, branch predictors and
     * prefetcher metadata, but no FTQ/fetch/commit timing is modeled
     * and no stall cycles accrue. Outstanding fills are completed
     * eagerly and the decoupled front end is resynchronized to the
     * commit point on exit. Far cheaper per instruction than the
     * detailed modes; only valid before measurement begins.
     */
    void fastForward(std::uint64_t insts);

    /** Runs @p insts commits of detailed, non-measuring simulation
     *  (per-interval warmup after a fast-forward). */
    void advanceDetailed(std::uint64_t insts);

    /**
     * Runs one detailed measurement window of @p insts commits and
     * returns its metrics (the same extraction as finishRun, over the
     * window's registry delta).
     */
    SimMetrics measureWindow(std::uint64_t insts);

    /** Commits so far (warmup + any segments). */
    std::uint64_t committedInsts() const { return committed_; }

    /** Current engine mode. */
    SimMode mode() const { return mode_; }

    /** The built application (for inspection by examples/tests). */
    const BuiltApp &app() const { return *app_; }

    /**
     * The unified stats registry: every component's counters under
     * dotted paths (l1i.*, btb.*, cond.*, indirect.*, ras.*, itlb.*,
     * fdip.*, ext.*, dram.*, engine.*, sim.*, and "pf."/"hier."
     * prefixes for the prefetcher under test). Snapshot/delta over
     * this registry is the warmup machinery; run() also embeds the
     * measurement-phase delta into SimMetrics::stats.
     */
    const StatsRegistry &stats() const { return registry_; }

  private:
    friend std::vector<SimMetrics>
    runLockstep(const std::vector<std::unique_ptr<Simulator>> &cores);
    friend class SimulatorProbe;

    /** Sentinel fetch cycle for window slots fetch has not reached. */
    static constexpr Cycle kNotFetched = ~Cycle(0);

    /** Cycle budget of a kernel call that runs to its target. */
    static constexpr std::uint64_t kUnbounded = ~std::uint64_t(0);

    /**
     * One co-scheduled tenant's runtime: its profile, built app, and
     * instruction engine. Exactly one of engine/scenEngine is set.
     * The single-core run is the degenerate one-tenant case, so the
     * classic path stays bit-identical by construction.
     */
    struct TenantRt
    {
        const AppProfile *profile = nullptr;
        std::shared_ptr<const BuiltApp> app;
        std::unique_ptr<RequestEngine> engine;
        std::shared_ptr<const Scenario> scenario;
        std::unique_ptr<ScenarioEngine> scenEngine;
    };

    struct FtqEntry
    {
        Addr block = 0;
        std::uint64_t startSeq = 0;
        std::uint64_t endSeq = 0; // exclusive
        bool translated = false;
        bool accessed = false;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(block);
            ar.value(startSeq);
            ar.value(endSeq);
            ar.value(translated);
            ar.value(accessed);
        }
    };

    enum class FeBlock : std::uint8_t
    {
        None,
        BtbMiss,    ///< Resolved at fetch + decode of the branch.
        Mispredict, ///< Resolved at commit of the branch.
    };

    /** Pulls instructions from the engine until @p up_to_seq exists. */
    void ensureWindow(std::uint64_t up_to_seq);

    /** Window instruction access with an inline bounds check; the
     *  common case (already materialized) costs one compare. */
    DynInst &
    at(std::uint64_t seq)
    {
        if (seq - windowBase_ >= window_.size())
            ensureWindow(seq);
        return window_[seq - windowBase_];
    }

    /** Unchecked fetch-cycle slot access for spans covered by a prior
     *  ensureWindow. */
    Cycle &fetchCycleAt(std::uint64_t seq)
    {
        return windowFetch_[seq - windowBase_];
    }

    /**
     * Trains the conditional and indirect predictors and the RAS on
     * @p inst's architectural outcome — the one training routine of
     * both the prediction unit and fast-forward. @return true when
     * the direction or target was mispredicted.
     */
    bool trainPredictors(const DynInst &inst);

    // The per-cycle stages. Next to each, its wake condition: the
    // first cycle from which the stage can change state (kNever when
    // another stage must act first; one not after cycle_ means the
    // next cycle).
    void stepPredict();
    bool predictCanAct() const;
    void stepExtPrefetch();
    bool extPrefetchCanAct() const;
    void stepFetch();
    Cycle fetchWakeAt() const;
    void stepCommit();
    Cycle commitWakeAt() const;
    void beginMeasurement();

    /** Feeds a committed instruction's Request{Begin,End} marker to
     *  the latency tracker (scenario runs only; @p detailed is false
     *  when the commit happened under the fast-forward clock). */
    void noteCommitMarker(const DynInst &inst, bool detailed);

    /** Snapshot of the cause-level counters the request-span tracker
     *  deltas at every span edge (obs/request_span.hh). */
    obs::SpanCounters spanCountersNow();

    /** One iteration of the main loop (every per-cycle step). */
    void stepCycle(bool has_pf);

    /**
     * The first cycle after cycle_ at which stepCycle can change any
     * state: the earliest of every stage's wake condition, the
     * outstanding fills and the prefetcher's replay gate (DESIGN.md
     * §8). Every cycle before it is idle and the kernel skips it.
     */
    Cycle nextActiveCycle() const;

    /** Builds tenant runtime state for @p name (ctor helper). */
    TenantRt makeTenant(const std::string &name);

    /** Points the hot-path aliases at tenant @p i. */
    void bindTenant(unsigned i);

    /**
     * OS-style round-robin switch to the next tenant: squashes the
     * decoupled front end and pollutes the core-private state (L1-I,
     * I-TLB, prefetch queue, and — unpartitioned — the MAT).
     */
    void contextSwitch();

    /** True while the measurement counters accumulate. */
    bool measuring() const { return mode_ == SimMode::DetailedMeasure; }

    /**
     * The detailed kernel (DESIGN.md §8): completes the pending cycle
     * advance, then steps cycles until the commit that crosses
     * @p target, leaving that cycle's advance pending. Advances at
     * most @p budget cycles, deducting them; idle cycles are counted
     * but not stepped. @return true at the target.
     */
    bool detailedTo(std::uint64_t target, std::uint64_t &budget);

    /**
     * A measurement phase: the warmup→measure transition (on first
     * entry), the kernel to @p target, the closing cycle advance when
     * @p close, and metrics_ from the registry delta. @return true
     * once metrics_ holds the result.
     */
    bool measureTo(std::uint64_t target, bool close,
                   std::uint64_t &budget);

    /** run()'s protocol — kernel to the warmup boundary, then (unless
     *  @p warmup_only) measureTo the end — resuming where the last
     *  call stopped, at most @p budget cycles. @return true if done. */
    bool runFor(std::uint64_t budget, bool warmup_only);

    /** Resynchronizes the decoupled front end to the commit point
     *  after a fast-forward segment. */
    void resyncFrontEnd();

    /** Serializes the SoA window in the interleaved (AoS) byte layout
     *  the golden checkpoint blob pins. */
    template <class Ar> void serializeWindow(Ar &ar);

    /** Registers every component's counters (constructor helper). */
    void registerStats();

    /**
     * Hands the collected trace events and time-series rows to the
     * process-global obs::Collector (once; no-op when observability
     * is off). Called from finishRun and, as a fallback for runs torn
     * down early, from the destructor.
     */
    void flushObs();

    SimConfig cfg_;

    // Tenant runtimes (owners) and the hot-path aliases bindTenant
    // keeps pointed at the active one. engine_/scenEngine_/stream_
    // are non-owning; exactly one of engine_/scenEngine_ is non-null
    // and stream_ is the one the per-cycle paths pull from.
    std::vector<TenantRt> tenants_;
    unsigned activeTenant_ = 0;
    const AppProfile *profile_ = nullptr;
    std::shared_ptr<const BuiltApp> app_;
    RequestEngine *engine_ = nullptr;
    ScenarioEngine *scenEngine_ = nullptr;
    InstStream *stream_ = nullptr;

    // Multi-tenant scheduling (inert in single-tenant runs:
    // nextSwitchAt_ stays 0 and the quantum check never fires).
    unsigned coreId_ = 0;
    std::uint64_t switchQuantum_ = 0;
    std::uint64_t nextSwitchAt_ = 0;
    std::uint64_t contextSwitches_ = 0;
    bool partitionMetadata_ = false;

    CacheHierarchy hier_;
    Btb btb_;
    CondPredictor condPred_;
    IndirectPredictor indirectPred_;
    Ras ras_;
    std::unique_ptr<Prefetcher> pf_;
    HierarchicalPrefetcher *hierPf_ = nullptr;

    bool perfect_ = false;

    Cycle cycle_ = 0;

    // SoA in-flight window: the instruction stream and the per-slot
    // fetch cycles live in two parallel rings. The hot loops touch
    // them asymmetrically — prediction reads only instructions, fetch
    // writes only fetch cycles, commit reads one of each at the front
    // — so splitting them keeps each loop's working set dense.
    RingBuffer<DynInst> window_{512};
    RingBuffer<Cycle> windowFetch_{512};
    std::uint64_t windowBase_ = 0; ///< Seq of window_.front().
    std::uint64_t bpSeq_ = 0;      ///< Next inst for the BP unit.
    std::uint64_t fetchSeq_ = 0;   ///< Next inst for fetch.

    RingBuffer<FtqEntry> ftq_{64};

    FeBlock feBlock_ = FeBlock::None;
    std::uint64_t feBlockSeq_ = 0;
    Cycle feResumeAt_ = 0;
    bool feResumeScheduled_ = false;
    /** Cycle the current front-end block began (trace spans only;
     *  deliberately not checkpointed — it never affects simulation). */
    Cycle feBlockStart_ = 0;

    Cycle fetchStalledUntil_ = 0;
    Cycle commitBlockedUntil_ = 0;

    /** Cycles before this one are idle (nextActiveCycle after the
     *  last stepped cycle). Derived state: reset by a restore, a
     *  fast-forward and a front-end resync, never serialized. */
    Cycle idleUntil_ = 0;

    std::uint64_t committed_ = 0;
    SimMode mode_ = SimMode::DetailedWarmup;
    /** The last stepped cycle's advance is still due (false before
     *  cycle 0 runs). Control state like mode_: set by a restore,
     *  never serialized. */
    bool cyclePending_ = false;

    // Reuse-distance probe (Figure 12).
    ReuseDistanceTracker reuse_;
    std::unique_ptr<Histogram> reuseHist_;
    double longRangeThreshold_ = 0.0;

    // Measurement-phase counters. Components keep plain fields the
    // hot path increments; the registry holds reader closures over
    // them, and the warmup boundary is one generic snapshot instead
    // of a hand-maintained shadow field per counter.
    SimMetrics metrics_;
    std::uint64_t rasMispredicts_ = 0;
    StatsRegistry registry_;
    StatsSnapshot warmupSnapshot_;

    // Observability (null/absent unless requested via obs::config()).
    std::unique_ptr<EventSink> obs_;
    std::unique_ptr<IntervalSampler> sampler_;
    /** Request spans + tail attribution; created only for scenario
     *  runs with HP_SPANS on (never under -DHP_NO_OBS). */
    std::unique_ptr<obs::RequestSpanTracker> spanTracker_;
    bool obsFlushed_ = false;
};

/**
 * Runs @p cores to completion in cycle-interleaved lockstep and
 * returns each core's run() metrics (DESIGN.md §12). Every pass gives
 * each unfinished core one cycle of its own run() in fixed core
 * order, so contention on shared levels resolves deterministically
 * and a one-core lockstep is the single-core run exactly.
 */
std::vector<SimMetrics>
runLockstep(const std::vector<std::unique_ptr<Simulator>> &cores);

} // namespace hp

#endif // HP_SIM_SIMULATOR_HH
