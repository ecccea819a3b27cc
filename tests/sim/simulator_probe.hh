/**
 * @file
 * White-box access to a Simulator for the kernel tests: the MSHR
 * file, and a reference run that steps every cycle.
 */

#ifndef HP_TESTS_SIM_SIMULATOR_PROBE_HH
#define HP_TESTS_SIM_SIMULATOR_PROBE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.hh"
#include "util/hash.hh"
#include "util/serialize.hh"

namespace hp
{

class SimulatorProbe
{
  public:
    /** Fills outstanding in @p sim's MSHR file. */
    static unsigned
    inFlightFills(const Simulator &sim)
    {
        return sim.hier_.params().l1iMshrs - sim.hier_.freeMshrs();
    }

    /**
     * Digest of the state a cycle could touch that the per-cycle
     * check reads cheaply: front-end positions and stalls, the MSHR
     * file and the demand/prefetch counters, the prefetch queue, the
     * measured counters and what observability has captured.
     */
    static std::uint64_t
    quickDigest(const Simulator &sim)
    {
        const HierarchyStats &hs = sim.hier_.stats();
        std::uint64_t h = 0;
        for (std::uint64_t v :
             {sim.windowBase_, std::uint64_t(sim.window_.size()),
              sim.bpSeq_, sim.fetchSeq_, std::uint64_t(sim.ftq_.size()),
              std::uint64_t(sim.feBlock_),
              std::uint64_t(sim.feResumeScheduled_),
              sim.fetchStalledUntil_, sim.commitBlockedUntil_,
              sim.committed_, sim.contextSwitches_,
              std::uint64_t(sim.activeTenant_),
              std::uint64_t(sim.hier_.freeMshrs()),
              sim.hier_.nextFillAt(), hs.demandAccesses,
              hs.fdip.issued, hs.ext.issued, hs.ext.inserted,
              sim.pf_ ? std::uint64_t(sim.pf_->queueDepth()) : 0,
              sim.hierPf_ ? sim.hierPf_->nextTickAt() : 0,
              sim.metrics_.instructions, sim.metrics_.fetchStallCycles,
              sim.metrics_.backendStallCycles,
              sim.obs_ ? sim.obs_->emitted() : 0,
              sim.sampler_ ? std::uint64_t(sim.sampler_->rows().size())
                           : 0}) {
            h = hashCombine(h, v);
        }
        return h;
    }

    /**
     * The whole checkpointed state but the clock (the blob's first
     * field), then every registered counter but sim.cycles: equal
     * images mean a cycle changed nothing.
     */
    static std::vector<std::uint8_t>
    stateImage(Simulator &sim)
    {
        StateWriter w;
        sim.serializeState(w);
        std::vector<std::uint8_t> image = w.take();
        image.erase(image.begin(), image.begin() + sizeof(Cycle));
        const StatsSnapshot counters = sim.registry_.snapshot();
        for (const auto &[path, value] : counters.entries()) {
            if (path != "sim.cycles") {
                const auto *p = reinterpret_cast<const std::uint8_t *>(&value);
                image.insert(image.end(), p, p + sizeof(value));
            }
        }
        return image;
    }

    /** What a reference run saw of the idle-cycle rule. */
    struct IdleTally
    {
        std::uint64_t cycles = 0;     ///< Cycles stepped.
        std::uint64_t idle = 0;       ///< Of those, called idle.
        std::uint64_t violations = 0; ///< Idle cycles that changed state.
    };

    /**
     * Runs @p cores to completion in lockstep as runLockstep does, but
     * steps every cycle: each core's one-cycle turn first clears its
     * idle horizon. Each cycle the kernel would have skipped must
     * leave the quick digest unchanged, and every @p full_every-th
     * one the whole state image too (compared within the core's own
     * turn: in a consolidation the other cores move the shared levels
     * between turns). @return each core's metrics.
     */
    static std::vector<SimMetrics>
    runSteppingEveryCycle(const std::vector<std::unique_ptr<Simulator>> &cores,
                          IdleTally &tally, unsigned full_every = 256)
    {
        std::vector<Cycle> idle_until(cores.size(), 0);
        std::vector<SimMetrics> results(cores.size());
        std::vector<bool> done(cores.size(), false);
        for (std::size_t live = cores.size(); live > 0;) {
            for (std::size_t i = 0; i < cores.size(); ++i) {
                if (done[i])
                    continue;
                Simulator &sim = *cores[i];
                const Cycle now = sim.cyclePending_ ? sim.cycle_ + 1
                                                    : sim.cycle_;
                const bool idle = now < idle_until[i];
                const bool full = idle && tally.idle % full_every == 0;
                const std::uint64_t quick = idle ? quickDigest(sim) : 0;
                std::vector<std::uint8_t> image;
                if (full)
                    image = stateImage(sim);

                sim.idleUntil_ = 0;
                const bool finished = sim.runFor(1, /*warmup_only=*/false);
                ++tally.cycles;

                if (idle) {
                    ++tally.idle;
                    if (quickDigest(sim) != quick ||
                        (full && stateImage(sim) != image)) {
                        ++tally.violations;
                    }
                } else {
                    // 0 after the cycle that reached a target: the
                    // kernel computes no horizon there.
                    idle_until[i] = sim.idleUntil_;
                }
                if (finished) {
                    results[i] = sim.metrics_;
                    done[i] = true;
                    --live;
                }
            }
        }
        return results;
    }
};

} // namespace hp

#endif // HP_TESTS_SIM_SIMULATOR_PROBE_HH
