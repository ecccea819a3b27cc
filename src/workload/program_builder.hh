/**
 * @file
 * Synthetic server-application builder.
 *
 * Constructs a Program whose static shape mimics a real server binary:
 * a request driver, per-stage dispatchers that diverge into
 * per-request-type functionality routines (each a call tree of
 * dedicated functions plus shared runtime utilities), kernel noise
 * routines, and a large body of cold library code that only the static
 * call graph sees. The built image is then linked and tagged with the
 * paper's Bundle algorithm.
 */

#ifndef HP_WORKLOAD_PROGRAM_BUILDER_HH
#define HP_WORKLOAD_PROGRAM_BUILDER_HH

#include <memory>
#include <vector>

#include "binary/program.hh"
#include "core/loader.hh"
#include "workload/app_profile.hh"

namespace hp
{

/** A fully built, linked and tagged application image. */
struct BuiltApp
{
    const AppProfile *profile = nullptr;

    Program program;
    LinkedImage image;

    /** Per-request root function (calls every stage dispatcher). */
    FuncId requestDriver = kNoFunc;

    /** Stage dispatcher functions, one per pipeline stage. */
    std::vector<FuncId> dispatchers;

    /** Routine roots per stage (dispatcher call candidates). */
    std::vector<std::vector<FuncId>> stageRoutines;

    /** Kernel/OS noise routine roots. */
    std::vector<FuncId> irqRoutines;
};

/**
 * Builds (and caches) the application for a workload profile.
 * Programs are deterministic in profile.binarySeed, so workloads that
 * share a binary (e.g. tidb-tpcc / tidb-sysbench) share the image.
 */
class ProgramBuilder
{
  public:
    /** Builds a fresh image for @p profile. */
    static std::shared_ptr<const BuiltApp> build(const AppProfile &profile);

    /** Process-wide cache keyed by binary name (a OnceMap: one build
     *  per binary, concurrent requesters wait for it). */
    static std::shared_ptr<const BuiltApp> cached(const AppProfile &profile);
};

} // namespace hp

#endif // HP_WORKLOAD_PROGRAM_BUILDER_HH
