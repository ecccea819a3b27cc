#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "trace/trace.hh"
#include "workload/request_engine.hh"

namespace hp
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

DynInst
sample(unsigned i)
{
    DynInst inst;
    inst.pc = 0x400000 + i * 4;
    inst.target = (i % 3 == 0) ? 0x500000 + i : 0;
    inst.func = i * 7;
    inst.kind = static_cast<InstKind>(i % 7);
    inst.taken = (i % 2) != 0;
    inst.tagged = (i % 5) == 0;
    inst.marker = static_cast<StreamMarker>(i % 3);
    inst.markerArg = static_cast<std::uint16_t>(i % 11);
    return inst;
}

TEST(TraceTest, RoundTripPreservesEveryField)
{
    std::string path = tempPath("roundtrip.hpt");
    constexpr unsigned kCount = 1000;
    {
        TraceWriter writer(path);
        for (unsigned i = 0; i < kCount; ++i)
            writer.write(sample(i));
        writer.close();
        EXPECT_EQ(writer.written(), kCount);
    }

    TraceReader reader(path);
    EXPECT_EQ(reader.total(), kCount);
    DynInst inst;
    for (unsigned i = 0; i < kCount; ++i) {
        ASSERT_TRUE(reader.next(inst));
        DynInst expect = sample(i);
        EXPECT_EQ(inst.pc, expect.pc);
        EXPECT_EQ(inst.target, expect.target);
        EXPECT_EQ(inst.func, expect.func);
        EXPECT_EQ(static_cast<int>(inst.kind),
                  static_cast<int>(expect.kind));
        EXPECT_EQ(inst.taken, expect.taken);
        EXPECT_EQ(inst.tagged, expect.tagged);
        EXPECT_EQ(static_cast<int>(inst.marker),
                  static_cast<int>(expect.marker));
        EXPECT_EQ(inst.markerArg, expect.markerArg);
    }
    EXPECT_FALSE(reader.next(inst));
    std::remove(path.c_str());
}

TEST(TraceTest, EmptyTrace)
{
    std::string path = tempPath("empty.hpt");
    {
        TraceWriter writer(path);
        writer.close();
    }
    TraceReader reader(path);
    EXPECT_EQ(reader.total(), 0u);
    DynInst inst;
    EXPECT_FALSE(reader.next(inst));
    std::remove(path.c_str());
}

TEST(TraceTest, DestructorFinalizesHeader)
{
    std::string path = tempPath("dtor.hpt");
    {
        TraceWriter writer(path);
        writer.write(sample(0));
        // No explicit close: the destructor must finalize the count.
    }
    TraceReader reader(path);
    EXPECT_EQ(reader.total(), 1u);
    std::remove(path.c_str());
}

TEST(TraceDeathTest, RejectsGarbageFile)
{
    std::string path = tempPath("garbage.hpt");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "this is not a trace file at all......";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
    EXPECT_DEATH({ TraceReader reader(path); }, "not a trace file");
    std::remove(path.c_str());
}

TEST(TraceDeathTest, TruncatedTraceIsAnError)
{
    // A trace cut short (interrupted copy, full disk) must not replay
    // as a shorter stream: the header promises more records than the
    // file holds, so reading past the cut is fatal.
    const std::string empty_path = tempPath("truncated-empty.hpt");
    const std::string path = tempPath("truncated.hpt");
    {
        TraceWriter empty(empty_path);
        empty.close();
        TraceWriter writer(path);
        for (unsigned i = 0; i < 10; ++i)
            writer.write(sample(i));
        writer.close();
    }
    const auto header_bytes = std::filesystem::file_size(empty_path);
    const auto full_bytes = std::filesystem::file_size(path);
    const auto record_bytes = (full_bytes - header_bytes) / 10;
    std::filesystem::resize_file(path, full_bytes - record_bytes);

    EXPECT_DEATH(
        {
            TraceReader reader(path);
            DynInst inst;
            while (reader.next(inst)) {}
        },
        "truncated trace .*truncated\\.hpt.*expected 10 records, read 9");
    std::remove(empty_path.c_str());
    std::remove(path.c_str());
}

TEST(TraceTest, EngineStreamRoundTrip)
{
    // Capture a real engine stream and replay it: both streams must be
    // instruction-identical (traces are the interchange format).
    const AppProfile &profile = appProfile("caddy");
    auto app = ProgramBuilder::cached(profile);

    std::string path = tempPath("engine.hpt");
    constexpr unsigned kCount = 20000;
    {
        RequestEngine engine(app, profile);
        TraceWriter writer(path);
        DynInst inst;
        for (unsigned i = 0; i < kCount; ++i) {
            ASSERT_TRUE(engine.next(inst));
            writer.write(inst);
        }
    }

    RequestEngine engine(app, profile);
    TraceReader reader(path);
    DynInst live, replayed;
    for (unsigned i = 0; i < kCount; ++i) {
        ASSERT_TRUE(engine.next(live));
        ASSERT_TRUE(reader.next(replayed));
        ASSERT_EQ(live.pc, replayed.pc);
        ASSERT_EQ(live.target, replayed.target);
        ASSERT_EQ(live.tagged, replayed.tagged);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace hp
