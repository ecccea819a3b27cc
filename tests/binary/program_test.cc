#include <gtest/gtest.h>

#include "../test_helpers.hh"
#include "binary/program.hh"

namespace hp
{
namespace
{

/** A body op of @p kind at slot @p offset, every other field default. */
BodyOp
makeOp(OpKind kind, std::uint32_t offset)
{
    BodyOp op;
    op.kind = kind;
    op.offset = offset;
    return op;
}

TEST(ProgramTest, AddFunctionAssignsSequentialIds)
{
    Program program;
    FuncId a = program.addFunction("a");
    FuncId b = program.addFunction("b");
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(program.numFunctions(), 2u);
    EXPECT_EQ(program.func(a).name, "a");
}

TEST(ProgramTest, NumInstsCountsBodySlots)
{
    Program program;
    FuncId leaf = test::addLeaf(program, "leaf", 10);
    EXPECT_EQ(program.func(leaf).numInsts(), 10u);
    EXPECT_EQ(program.func(leaf).sizeBytes(), 40u);
}

TEST(ProgramTest, LayoutAssignsAlignedNonOverlappingAddresses)
{
    Program program;
    FuncId a = test::addLeaf(program, "a", 7);
    FuncId b = test::addLeaf(program, "b", 3);
    program.layout(0x400000);
    ASSERT_TRUE(program.isLaidOut());
    const Function &fa = program.func(a);
    const Function &fb = program.func(b);
    EXPECT_EQ(fa.addr % 16, 0u);
    EXPECT_EQ(fb.addr % 16, 0u);
    EXPECT_GE(fb.addr, fa.addr + fa.sizeBytes());
    EXPECT_GT(program.totalCodeBytes(), 0u);
}

TEST(ProgramTest, LayoutGroupsByModule)
{
    Program program;
    FuncId m1 = test::addLeaf(program, "m1", 4, 1);
    FuncId m0 = test::addLeaf(program, "m0", 4, 0);
    FuncId m1b = test::addLeaf(program, "m1b", 4, 1);
    program.layout();
    // Module 0 first, then module 1 functions contiguously.
    EXPECT_LT(program.func(m0).addr, program.func(m1).addr);
    EXPECT_LT(program.func(m1).addr, program.func(m1b).addr);
}

TEST(ProgramTest, FuncAtResolvesInteriorAddresses)
{
    Program program;
    FuncId a = test::addLeaf(program, "a", 8);
    FuncId b = test::addLeaf(program, "b", 8);
    program.layout();
    const Function &fa = program.func(a);
    EXPECT_EQ(program.funcAt(fa.addr), a);
    EXPECT_EQ(program.funcAt(fa.addr + 4), a);
    EXPECT_EQ(program.funcAt(fa.addr + fa.sizeBytes() - 1), a);
    EXPECT_EQ(program.funcAt(program.func(b).addr), b);
    // Below the image.
    EXPECT_EQ(program.funcAt(0x100), kNoFunc);
}

TEST(ProgramTest, FuncAtAlignmentGap)
{
    Program program;
    FuncId a = test::addLeaf(program, "a", 3); // 12 bytes, padded to 16
    test::addLeaf(program, "b", 3);
    program.layout();
    const Function &fa = program.func(a);
    // The padding byte after a's body belongs to no function.
    EXPECT_EQ(program.funcAt(fa.addr + fa.sizeBytes()), kNoFunc);
}

TEST(ProgramTest, InstAddr)
{
    Program program;
    FuncId a = test::addLeaf(program, "a", 4);
    program.layout();
    const Function &fa = program.func(a);
    EXPECT_EQ(fa.instAddr(0), fa.addr);
    EXPECT_EQ(fa.instAddr(3), fa.addr + 12);
}

TEST(ProgramTest, ValidatePassesOnWellFormedBodies)
{
    Program program;
    FuncId leaf = test::addLeaf(program, "leaf", 6);
    test::addCaller(program, "caller", {leaf});
    program.layout();
    program.validate(); // must not panic
}

TEST(ProgramDeathTest, ValidateCatchesOffsetGap)
{
    Program program;
    FuncId id = program.addFunction("broken");
    Function &fn = program.func(id);
    BodyOp run;
    run.kind = OpKind::Run;
    run.offset = 5; // gap: first op must start at 0
    run.length = 3;
    fn.body.push_back(run);
    BodyOp ret;
    ret.kind = OpKind::Ret;
    ret.offset = 8;
    fn.body.push_back(ret);
    EXPECT_DEATH(program.validate(), "offset mismatch");
}

TEST(ProgramDeathTest, ValidateCatchesMissingRet)
{
    Program program;
    FuncId id = program.addFunction("noret");
    Function &fn = program.func(id);
    BodyOp run;
    run.kind = OpKind::Run;
    run.offset = 0;
    run.length = 3;
    fn.body.push_back(run);
    EXPECT_DEATH(program.validate(), "does not end in Ret");
}

TEST(ProgramDeathTest, ValidateCatchesBadCallee)
{
    Program program;
    FuncId id = program.addFunction("badcall");
    Function &fn = program.func(id);
    CallTarget target;
    target.candidates = {42}; // no such function
    fn.targets.push_back(target);
    BodyOp call;
    call.kind = OpKind::CallSite;
    call.offset = 0;
    call.targetIdx = 0;
    fn.body.push_back(call);
    BodyOp ret;
    ret.kind = OpKind::Ret;
    ret.offset = 1;
    fn.body.push_back(ret);
    EXPECT_DEATH(program.validate(), "callee out of range");
}

// Each message names the offending function, so a bad body can be
// found in a binary of tens of thousands of functions.

TEST(ProgramDeathTest, ValidateCatchesEmptyRun)
{
    Program program;
    Function &fn = program.func(program.addFunction("hollow"));
    fn.body.push_back(makeOp(OpKind::Run, 0)); // length 0
    fn.body.push_back(makeOp(OpKind::Ret, 0));
    EXPECT_DEATH(program.validate(), "empty Run in hollow");
}

TEST(ProgramDeathTest, ValidateCatchesBranchPastEnd)
{
    Program program;
    Function &fn = program.func(program.addFunction("overshoot"));
    BodyOp branch = makeOp(OpKind::Branch, 0);
    branch.span = 5; // the body has only 2 slots
    fn.body.push_back(branch);
    fn.body.push_back(makeOp(OpKind::Ret, 1));
    EXPECT_DEATH(program.validate(), "Branch skips past end of overshoot");
}

TEST(ProgramDeathTest, ValidateCatchesLoopBeforeEntry)
{
    Program program;
    Function &fn = program.func(program.addFunction("backjump"));
    BodyOp run = makeOp(OpKind::Run, 0);
    run.length = 2;
    fn.body.push_back(run);
    BodyOp loop = makeOp(OpKind::Loop, 2);
    loop.span = 3; // jumps to slot -1
    fn.body.push_back(loop);
    fn.body.push_back(makeOp(OpKind::Ret, 3));
    EXPECT_DEATH(program.validate(), "Loop jumps before entry of backjump");
}

TEST(ProgramDeathTest, ValidateCatchesTargetIndexOutOfRange)
{
    Program program;
    Function &fn = program.func(program.addFunction("notarget"));
    fn.body.push_back(makeOp(OpKind::CallSite, 0)); // no targets at all
    fn.body.push_back(makeOp(OpKind::Ret, 1));
    EXPECT_DEATH(program.validate(),
                 "CallSite target index out of range in notarget");
}

TEST(ProgramDeathTest, ValidateCatchesCallSiteWithoutCandidates)
{
    Program program;
    Function &fn = program.func(program.addFunction("nocallee"));
    fn.targets.push_back(CallTarget{});
    fn.body.push_back(makeOp(OpKind::CallSite, 0));
    fn.body.push_back(makeOp(OpKind::Ret, 1));
    EXPECT_DEATH(program.validate(),
                 "CallSite with no candidates in nocallee");
}

TEST(ProgramDeathTest, ValidateCatchesEarlyRet)
{
    Program program;
    Function &fn = program.func(program.addFunction("early"));
    fn.body.push_back(makeOp(OpKind::Ret, 0));
    BodyOp run = makeOp(OpKind::Run, 1);
    run.length = 2;
    fn.body.push_back(run);
    EXPECT_DEATH(program.validate(), "Ret not last op in early");
}

} // namespace
} // namespace hp
