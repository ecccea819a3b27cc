/**
 * @file
 * Warmup checkpointing: capture the complete post-warmup
 * microarchitectural state of a Simulator once per *warmup
 * equivalence class* and fork every matching measurement run from it
 * instead of re-simulating the warmup phase.
 *
 * Two configs belong to the same class when warmupConfig() — the
 * config with every warmup-irrelevant field pinned to a fixed value —
 * compares equal and the blob layout matches (checkpointKey()). The
 * CheckpointStore is a OnceMap like the runner's result cache, so
 * concurrent grid points block on the one warmup instead of racing.
 * With HP_CKPT_DIR set, checkpoints are also spilled to disk and
 * reused across processes (see DESIGN.md §8 for the blob format).
 *
 * Correctness bar: a restored run must be bit-identical to a cold
 * run — enforced by tests/sim/checkpoint_replay_test and the
 * checkpoint_equivalence bench.
 */

#ifndef HP_SIM_CHECKPOINT_HH
#define HP_SIM_CHECKPOINT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/metrics.hh"
#include "util/hash.hh"
#include "util/once_map.hh"

namespace hp
{

class Simulator;

/**
 * Version of the checkpoint blob encoding. Bump whenever any
 * component's serializeState layout changes — a version mismatch
 * rejects the blob instead of misinterpreting it.
 */
constexpr std::uint32_t kCheckpointFormatVersion = 1;

/**
 * The warmup-equivalence twin of @p config: every field the warmup
 * phase never reads is pinned to a fixed value. Builds on
 * measurementConfig() (fields unread by the configured prefetcher)
 * and additionally pins measureInsts and longRangePercentile, which
 * are only read at or after the warmup boundary.
 */
SimConfig warmupConfig(const SimConfig &config);

/**
 * The identity of @p config's warmup class: configKey(warmupConfig())
 * plus a "|attr" flag when obs miss attribution is on, whose state
 * CacheHierarchy appends to the blob. Every checkpoint blob carries
 * a key derived from it, the store buckets on it, and its hash names
 * the blob's file.
 */
std::string checkpointKey(const SimConfig &config);

/**
 * An immutable post-warmup state blob plus the warmup-config key that
 * produced it. The payload is the canonical StateWriter stream of
 * Simulator::serializeState at the warmup boundary.
 */
class Checkpoint
{
  public:
    Checkpoint(std::string warmup_key,
               std::vector<std::uint8_t> payload)
        : warmupKey_(std::move(warmup_key)), payload_(std::move(payload))
    {
    }

    /** Serializes @p sim (stopped at the warmup boundary). */
    static Checkpoint capture(Simulator &sim, std::string warmup_key);

    /**
     * Restores this checkpoint's state into a freshly constructed
     * @p sim. @return false (with @p error set) if the payload is
     * truncated or has trailing bytes; @p sim is then unusable.
     */
    bool restoreInto(Simulator &sim, std::string *error) const;

    /** Encodes magic + version + key + payload into one file image. */
    std::vector<std::uint8_t> encode() const;

    /**
     * Validates and parses a file image. @return nullptr with
     * @p error set on bad magic, version mismatch, or truncation.
     */
    static std::shared_ptr<const Checkpoint>
    decode(const std::vector<std::uint8_t> &bytes, std::string *error);

    const std::string &warmupKey() const { return warmupKey_; }
    const std::vector<std::uint8_t> &payload() const { return payload_; }

  private:
    std::string warmupKey_;
    std::vector<std::uint8_t> payload_;
};

/**
 * A warmup class: its checkpointKey() and the warmupConfig() behind
 * it. Hashed on the key; equality compares both, so a key collision
 * never shares a checkpoint between different warmups.
 */
struct CheckpointClass
{
    std::string key;
    SimConfig config;

    bool operator==(const CheckpointClass &) const = default;

    struct Hash
    {
        std::size_t
        operator()(const CheckpointClass &c) const
        {
            return hashString(c.key);
        }
    };
};

/**
 * Process-wide cache of warmed checkpoints, one per warmup class: the
 * first requester of a class loads or produces its checkpoint, every
 * later requester shares it.
 */
class CheckpointStore
    : public OnceMap<CheckpointClass, std::shared_ptr<const Checkpoint>,
                     CheckpointClass::Hash>
{
  public:
    static CheckpointStore &global();
};

/** HP_CKPT_DIR, or empty when disk spill is disabled. */
std::string checkpointDir();

/** File name of the blob keyed @p key (a checkpointKey() or an
 *  intervalCheckpointKey()): "<workload>-<hash of key>.ckpt". */
std::string checkpointFileName(const std::string &key);

/** Atomically (tmp + rename) writes @p ckpt under @p dir. */
bool saveCheckpointFile(const std::string &dir,
                        const std::string &file_name,
                        const Checkpoint &ckpt);

/**
 * Loads and validates a checkpoint file. @return nullptr (with
 * @p error set) when missing, malformed, version-mismatched, or
 * keyed for a different warmup config than @p expected_key.
 */
std::shared_ptr<const Checkpoint>
loadCheckpointFile(const std::string &path,
                   const std::string &expected_key, std::string *error);

/**
 * True when runCheckpointed() will use the checkpoint path for
 * @p config: the config has a warmup phase and HP_CKPT is not "0".
 */
bool checkpointingEnabled(const SimConfig &config);

/**
 * Key for a *mid-stream interval fork* blob: the window simulator
 * state @p start_inst committed instructions past the warmup
 * boundary, reached by fast-forwarding to (start_inst - warm_insts)
 * and then running @p warm_insts detailed (non-measuring)
 * instructions — i.e. the state a measurement window starts from,
 * detailed warmup included, so a cache hit pays only the window
 * itself. Keyed by checkpointKey(@p config) — neither the window
 * placement nor the fields warmupConfig() pins are read on the way
 * there — plus both positions, so every sampled run of the same class
 * and detail-warmup length, in any process, shares the same fork
 * blobs. Positions are relative to the boundary, never absolute, so a
 * blob can be addressed without first restoring the warmup checkpoint.
 */
std::string intervalCheckpointKey(const SimConfig &config,
                                  std::uint64_t start_inst,
                                  std::uint64_t warm_insts);

/**
 * Runs @p config to completion, reusing (or creating) the shared
 * warmup checkpoint of its class. Results are bit-identical to
 * Simulator(config).run(); a checkpoint that fails to restore falls
 * back to a cold run rather than failing the experiment.
 */
SimMetrics runCheckpointed(const SimConfig &config);

/**
 * The warmed checkpoint of @p config's warmup class, producing it
 * (and spilling it to HP_CKPT_DIR) if no other requester has yet.
 * This is the re-fork anchor of sampled simulation: every measurement
 * interval restores a fresh Simulator from the returned immutable
 * blob, so interval replay is bit-identical regardless of how many
 * intervals run or on which threads. With checkpointing disabled
 * (HP_CKPT=0) a private, unshared checkpoint is produced instead.
 * Never returns nullptr; warmup failures propagate as exceptions.
 */
std::shared_ptr<const Checkpoint>
acquireWarmedCheckpoint(const SimConfig &config);

} // namespace hp

#endif // HP_SIM_CHECKPOINT_HH
