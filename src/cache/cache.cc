#include "cache/cache.hh"

#include "util/hash.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace hp
{

SetAssocCache::SetAssocCache(std::string name, std::uint64_t size_bytes,
                             unsigned ways)
    : name_(std::move(name)), sizeBytes_(size_bytes), ways_(ways)
{
    if (ways == 0)
        fatal(name_ + ": associativity must be positive");
    std::uint64_t blocks = size_bytes / kBlockBytes;
    if (blocks < ways || blocks % ways != 0)
        fatal(name_ + ": size/associativity mismatch");
    numSets_ = static_cast<unsigned>(blocks / ways);
    // Allow non-power-of-two set counts (needed for the fractional
    // instruction share of unified levels); indexing uses modulo of a
    // mixed address.
    lines_.resize(blocks);
}

unsigned
SetAssocCache::setIndex(Addr block) const
{
    return static_cast<unsigned>(blockNumber(block) % numSets_);
}

std::optional<HitInfo>
SetAssocCache::access(Addr block)
{
    ++accesses_;
    Line *set = &lines_[std::uint64_t(setIndex(block)) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        Line &line = set[w];
        if (line.valid && line.tag == block) {
            line.lastUse = ++useClock_;
            HitInfo info{line.origin, !line.used};
            line.used = true;
            return info;
        }
    }
    ++misses_;
    return std::nullopt;
}

bool
SetAssocCache::contains(Addr block) const
{
    const Line *set = &lines_[std::uint64_t(setIndex(block)) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].tag == block)
            return true;
    }
    return false;
}

EvictInfo
SetAssocCache::insert(Addr block, Origin origin)
{
    Line *set = &lines_[std::uint64_t(setIndex(block)) * ways_];
    Line *victim = &set[0];
    for (unsigned w = 0; w < ways_; ++w) {
        Line &line = set[w];
        if (line.valid && line.tag == block) {
            // Refill of a resident block: refresh recency only.
            line.lastUse = ++useClock_;
            return {};
        }
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lastUse < victim->lastUse)
            victim = &line;
    }

    EvictInfo evicted;
    if (victim->valid) {
        evicted.valid = true;
        evicted.block = victim->tag;
        evicted.origin = victim->origin;
        evicted.used = victim->used;
    }

    victim->valid = true;
    victim->tag = block;
    victim->origin = origin;
    victim->used = false;
    victim->lastUse = ++useClock_;
    return evicted;
}

void
SetAssocCache::invalidate(Addr block)
{
    Line *set = &lines_[std::uint64_t(setIndex(block)) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].tag == block) {
            set[w].valid = false;
            return;
        }
    }
}

void
SetAssocCache::invalidateAll()
{
    for (Line &line : lines_)
        line.valid = false;
}

void
SetAssocCache::markUsed(Addr block)
{
    Line *set = &lines_[std::uint64_t(setIndex(block)) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].tag == block) {
            set[w].used = true;
            return;
        }
    }
}

void
SetAssocCache::resetStats()
{
    accesses_ = 0;
    misses_ = 0;
}

template <class Ar>
void
SetAssocCache::serializeState(Ar &ar)
{
    if (!checkShape(ar, lines_))
        return;
    io(ar, useClock_);
    io(ar, lines_);
    io(ar, accesses_);
    io(ar, misses_);
}

template void SetAssocCache::serializeState(StateWriter &);
template void SetAssocCache::serializeState(StateLoader &);

} // namespace hp
