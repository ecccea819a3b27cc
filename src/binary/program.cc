#include "binary/program.hh"

#include <algorithm>

#include "util/logging.hh"

namespace hp
{

std::uint32_t
Function::numInsts() const
{
    if (body.empty())
        return 0;
    const BodyOp &last = body.back();
    std::uint32_t end = last.offset;
    end += (last.kind == OpKind::Run) ? last.length : 1;
    return end;
}

FuncId
Program::addFunction(std::string name, std::uint16_t module)
{
    panicIf(laidOut_, "cannot add functions after layout");
    Function fn;
    fn.id = static_cast<FuncId>(funcs_.size());
    fn.name = std::move(name);
    fn.module = module;
    funcs_.push_back(std::move(fn));
    return funcs_.back().id;
}

void
Program::layout(Addr base)
{
    panicIf(laidOut_, "Program::layout called twice");

    // Group functions by module, preserving creation order within a
    // module: real linkers lay out each object/library contiguously,
    // which gives the spatial locality the spatial-region compression
    // in the prefetchers depends on.
    std::vector<FuncId> order(funcs_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<FuncId>(i);
    std::stable_sort(order.begin(), order.end(),
                     [this](FuncId a, FuncId b) {
                         return funcs_[a].module < funcs_[b].module;
                     });

    Addr cursor = base;
    for (FuncId id : order) {
        Function &fn = funcs_[id];
        fn.addr = cursor;
        // Functions are aligned to 16 bytes, like typical compilers.
        cursor += roundUp(std::max<std::uint64_t>(fn.sizeBytes(),
                                                  kInstBytes), 16);
    }
    totalCode_ = cursor - base;

    byAddr_ = order;
    std::sort(byAddr_.begin(), byAddr_.end(),
              [this](FuncId a, FuncId b) {
                  return funcs_[a].addr < funcs_[b].addr;
              });
    laidOut_ = true;
}

FuncId
Program::funcAt(Addr addr) const
{
    panicIf(!laidOut_, "Program::funcAt before layout");
    auto it = std::upper_bound(
        byAddr_.begin(), byAddr_.end(), addr,
        [this](Addr a, FuncId id) { return a < funcs_[id].addr; });
    if (it == byAddr_.begin())
        return kNoFunc;
    FuncId id = *(it - 1);
    const Function &fn = funcs_[id];
    if (addr < fn.addr + fn.sizeBytes())
        return id;
    return kNoFunc;
}

void
Program::validate() const
{
    for (const Function &fn : funcs_) {
        std::uint32_t cursor = 0;
        for (std::size_t i = 0; i < fn.body.size(); ++i) {
            const BodyOp &op = fn.body[i];
            if (op.offset != cursor)
                panic("body op offset mismatch in " + fn.name);
            switch (op.kind) {
              case OpKind::Run:
                if (op.length == 0)
                    panic("empty Run in " + fn.name);
                cursor += op.length;
                break;
              case OpKind::Branch:
                if (op.offset + 1 + op.span > fn.numInsts())
                    panic("Branch skips past end of " + fn.name);
                cursor += 1;
                break;
              case OpKind::Loop:
                if (op.span > op.offset)
                    panic("Loop jumps before entry of " + fn.name);
                cursor += 1;
                break;
              case OpKind::CallSite:
                if (op.targetIdx >= fn.targets.size())
                    panic("CallSite target index out of range in " + fn.name);
                for (FuncId callee : fn.targets[op.targetIdx].candidates) {
                    if (callee >= funcs_.size())
                        panic("CallSite callee out of range in " + fn.name);
                }
                if (fn.targets[op.targetIdx].candidates.empty())
                    panic("CallSite with no candidates in " + fn.name);
                cursor += 1;
                break;
              case OpKind::Ret:
                if (i + 1 != fn.body.size())
                    panic("Ret not last op in " + fn.name);
                cursor += 1;
                break;
            }
        }
        if (!fn.body.empty() && fn.body.back().kind != OpKind::Ret)
            panic("function " + fn.name + " does not end in Ret");
    }
}

} // namespace hp
