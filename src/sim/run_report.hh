/**
 * @file
 * Machine-readable run reports.
 *
 * When enabled, every simulation the ExperimentRunner completes is
 * recorded as (config, metrics); documentJson() renders the collected
 * runs as one JSON document — the registry's full measurement-phase
 * counter snapshot per run plus a few derived values. Bench binaries
 * enable this through hpbench::JsonReportScope (`--json` flag or the
 * HP_STATS_JSON environment variable) without touching their text
 * output. Schema: DESIGN.md "Machine-readable run reports".
 */

#ifndef HP_SIM_RUN_REPORT_HH
#define HP_SIM_RUN_REPORT_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/config.hh"
#include "sim/metrics.hh"

namespace hp
{

/**
 * Process-wide log of finished simulation runs. Recording is off by
 * default so the hot path of report-less invocations is unchanged;
 * record() is called from executor worker threads and is thread-safe.
 * Runs are listed by position, not by completion: a simulation takes
 * its position when it is submitted (reserve()), so a parallel run
 * reports in the same order as a serial one.
 */
class RunReportLog
{
  public:
    /** Starts recording every simulation completed from now on. */
    static void enable();

    static bool enabled();

    /** Takes the next report position for a run recorded later. */
    static std::uint64_t reserve();

    /** Records one finished run at @p position — by default the next
     *  one, so direct callers list in call order (no-op unless
     *  enabled). */
    static void record(const SimConfig &config, const SimMetrics &m,
                       std::uint64_t position = reserve());

    /** Number of runs recorded so far. */
    static std::size_t size();

    /** The full JSON document over every recorded run. */
    static std::string documentJson();

    /** Drops all recorded runs (testing aid; leaves enabled state). */
    static void clear();
};

} // namespace hp

#endif // HP_SIM_RUN_REPORT_HH
