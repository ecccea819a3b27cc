/**
 * @file
 * Small integer mixing functions used for table indexing and Bundle IDs.
 *
 * All hardware tables in this library (BTB, Metadata Address Table,
 * entangling tables...) index with these mixers so that synthetic
 * address layouts do not alias pathologically.
 */

#ifndef HP_UTIL_HASH_HH
#define HP_UTIL_HASH_HH

#include <cstdint>
#include <string_view>

namespace hp
{

/** Finalizer from SplitMix64; a high-quality 64->64 bit mixer. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/** Combines a hash with a new value (boost::hash_combine style). */
constexpr std::uint64_t
hashCombine(std::uint64_t seed, std::uint64_t value)
{
    return seed ^ (mix64(value) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                   (seed >> 2));
}

/** Folds a 64-bit hash down to @p bits bits (bits in [1, 63]). */
constexpr std::uint64_t
foldTo(std::uint64_t hash, unsigned bits)
{
    std::uint64_t folded = hash ^ (hash >> 32);
    folded ^= folded >> 16;
    return folded & ((1ULL << bits) - 1);
}

/**
 * Hash of a byte string. Stable across builds and hosts, so it may
 * name files that outlive the process (checkpoint blobs).
 */
constexpr std::uint64_t
hashString(std::string_view s, std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
{
    std::uint64_t h = hashCombine(seed, s.size());
    for (char c : s)
        h = hashCombine(h, static_cast<unsigned char>(c));
    return h;
}

} // namespace hp

#endif // HP_UTIL_HASH_HH
