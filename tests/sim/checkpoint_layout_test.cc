/**
 * @file
 * Checkpoint identity covers the blob layout: miss attribution
 * appends its state to every blob, so attribution-off and
 * attribution-on runs sharing one HP_CKPT_DIR must keep separate
 * blobs side by side and each restore only its own.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

#include <unistd.h>

#include "obs/obs.hh"
#include "sim/checkpoint.hh"
#include "sim/sampling.hh"

namespace hp
{
namespace
{

namespace fs = std::filesystem;

SimConfig
sampledConfig()
{
    SimConfig config;
    config.workload = "caddy";
    config.warmupInsts = 140'000; // unique class within the test binary
    config.measureInsts = 200'000;
    config.sample.intervals = 4;
    config.sample.windowInsts = 10'000;
    config.sample.detailWarmupInsts = 5'000;
    config.sample.seed = 1;
    return config;
}

/** Restores the obs config and HP_CKPT_DIR a test changed. */
class CheckpointLayoutTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saved_ = obs::config();
        obs::config() = obs::ObsConfig{};
        if (const char *dir = std::getenv("HP_CKPT_DIR"))
            savedDir_ = dir;
        root_ = fs::temp_directory_path() /
                ("hp_ckpt_layout_" + std::to_string(::getpid()));
        fs::remove_all(root_);
    }

    void
    TearDown() override
    {
        obs::config() = saved_;
        if (savedDir_)
            ::setenv("HP_CKPT_DIR", savedDir_->c_str(), 1);
        else
            ::unsetenv("HP_CKPT_DIR");
        fs::remove_all(root_);
    }

    /** One sampled run with the given attribution flag and blob dir. */
    static SimMetrics
    run(bool attribution, const fs::path &dir)
    {
        obs::config().attribution = attribution;
        ::setenv("HP_CKPT_DIR", dir.c_str(), 1);
        return runMaybeSampled(sampledConfig());
    }

    static std::string
    warmupBlobName(bool attribution)
    {
        obs::config().attribution = attribution;
        return checkpointFileName(checkpointKey(sampledConfig()));
    }

    fs::path root_;

  private:
    obs::ObsConfig saved_;
    std::optional<std::string> savedDir_;
};

TEST_F(CheckpointLayoutTest, AttributionToggleKeepsSeparateBlobs)
{
    const fs::path shared = root_ / "shared";
    run(false, shared);
    const SimMetrics toggled = run(true, shared);
    const SimMetrics warm = run(true, shared); // from interval blobs
    const SimMetrics fresh = run(true, root_ / "fresh");

    // No restore of an attribution-off blob was attempted, so the run
    // stayed sampled instead of falling back to the full run.
    ASSERT_NE(toggled.sampling, nullptr);
    ASSERT_NE(warm.sampling, nullptr);
    ASSERT_NE(fresh.sampling, nullptr);
    for (const SimMetrics *m : {&toggled, &warm}) {
        EXPECT_EQ(m->cycles, fresh.cycles);
        EXPECT_EQ(m->instructions, fresh.instructions);
        EXPECT_EQ(m->stats.entries(), fresh.stats.entries());
    }

    const std::string off = warmupBlobName(false);
    const std::string on = warmupBlobName(true);
    EXPECT_NE(off, on);
    EXPECT_TRUE(fs::exists(shared / off)) << off;
    EXPECT_TRUE(fs::exists(shared / on)) << on;
}

} // namespace
} // namespace hp
