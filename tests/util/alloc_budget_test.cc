/**
 * @file
 * Heap-allocation budgets for the two hot paths that must not build
 * strings or other garbage per element: Program::validate() over a
 * whole built binary, and the detailed simulation loop.
 *
 * This file replaces the global operator new/delete with counting
 * versions for its whole binary, so it is a test executable of its
 * own and nothing else links into it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/simulator.hh"
#include "workload/app_profile.hh"
#include "workload/program_builder.hh"

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (size + a - 1) / a * a;
    return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

// Out of line, so the compiler does not inline a free() into a caller
// that it sees pairing it with operator new and warn of a mismatch.
[[gnu::noinline]] void
release(void *p) noexcept
{
    std::free(p);
}

} // namespace

void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    if (void *p = countedAlignedAlloc(size, align))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, align);
}

void
operator delete(void *p) noexcept
{
    release(p);
}

void
operator delete[](void *p) noexcept
{
    release(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    release(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    release(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    release(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    release(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    release(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    release(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}

namespace hp
{
namespace
{

std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

TEST(AllocBudgetTest, ValidateAllocatesNothing)
{
    const auto app = ProgramBuilder::cached(appProfile("caddy"));
    ASSERT_GT(app->program.numFunctions(), 1000u);
    const std::uint64_t before = allocCount();
    app->program.validate();
    EXPECT_EQ(allocCount() - before, 0u);
}

class DetailedAllocBudget : public ::testing::TestWithParam<PrefetcherKind>
{};

TEST_P(DetailedAllocBudget, AtMostOneFifthPerInstruction)
{
    SimConfig config;
    config.workload = "caddy";
    config.prefetcher = GetParam();
    config.hier.trackBundleStats =
        GetParam() == PrefetcherKind::Hierarchical;
    config.warmupInsts = 100'000;
    config.measureInsts = 300'000;
    Simulator sim(config);

    const std::uint64_t before = allocCount();
    sim.runWarmup();
    const SimMetrics m = sim.finishRun();
    const std::uint64_t allocs = allocCount() - before;

    // Every instruction committed since construction, warmup included.
    const double insts = double(sim.stats().value("sim.committed"));
    ASSERT_GE(insts, 0.99 * double(config.warmupInsts + config.measureInsts));
    ASSERT_GT(m.instructions, 0u);
    // About 0.004 (FDIP) and 0.005 (HP) per instruction with the flat
    // MSHR file; a node allocation per miss would read about 0.1. The
    // test's name predates this bound, which was one fifth.
    EXPECT_LE(double(allocs) / insts, 0.01)
        << allocs << " allocations over " << insts << " instructions";
}

INSTANTIATE_TEST_SUITE_P(Caddy, DetailedAllocBudget,
                         ::testing::Values(PrefetcherKind::None,
                                           PrefetcherKind::Hierarchical),
                         [](const auto &info) {
                             return std::string(prefetcherName(info.param));
                         });

} // namespace
} // namespace hp
