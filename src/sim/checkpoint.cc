#include "sim/checkpoint.hh"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "obs/obs.hh"
#include "sim/runner.hh"
#include "sim/runtime_options.hh"
#include "sim/simulator.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace hp
{

namespace
{

/** Eight-byte magic leading every checkpoint file image. */
constexpr char kMagic[8] = {'H', 'P', 'C', 'K', 'P', 'T', '0', '\n'};

/**
 * Removes a checkpoint file that failed validation. The file name is
 * the hash of the key the blob must carry, so a blob that fails the
 * version or key check under its own name can never load again —
 * leaving it would just re-fail (and leak disk) on every future run.
 */
void
evictStaleCheckpoint(const std::string &path, std::string *error)
{
    std::error_code ec;
    if (std::filesystem::remove(path, ec) && !ec) {
        if (error)
            *error += "; evicted stale checkpoint file";
    }
}

std::string
hexHash(std::uint64_t hash)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[i] = digits[hash & 0xf];
        hash >>= 4;
    }
    return out;
}

} // namespace

SimConfig
warmupConfig(const SimConfig &config)
{
    SimConfig w = measurementConfig(config);
    // Read only at or after the warmup boundary: before it,
    // measureInsts only decides whether an empty run steps at all (the
    // boundary is reached the moment committed_ crosses warmupInsts
    // regardless of the total), and longRangePercentile is read by
    // beginMeasurement().
    w.measureInsts = SimConfig{}.measureInsts;
    w.longRangePercentile = SimConfig{}.longRangePercentile;
    // Sampling slices the measurement phase only; the warmup that
    // precedes it is identical, so sampled and full runs of the same
    // workload share one checkpoint class.
    w.sample = SampleConfig{};
    return w;
}

std::string
checkpointKey(const SimConfig &config)
{
    std::string key = ExperimentRunner::configKey(warmupConfig(config));
    // CacheHierarchy::serializeState appends the miss-attribution
    // state only when attribution runs, so the two blob layouts are
    // distinct classes. Absent when off: the golden blob's key holds.
    if (obs::config().attributionEnabled())
        key += "|attr";
    return key;
}

Checkpoint
Checkpoint::capture(Simulator &sim, std::string warmup_key)
{
    StateWriter writer;
    sim.serializeState(writer);
    return Checkpoint(std::move(warmup_key), writer.take());
}

bool
Checkpoint::restoreInto(Simulator &sim, std::string *error) const
{
    StateLoader loader(payload_.data(), payload_.size());
    sim.serializeState(loader);
    if (loader.failed()) {
        if (error)
            *error = "checkpoint payload truncated";
        return false;
    }
    if (loader.remaining() != 0) {
        if (error)
            *error = "checkpoint payload has trailing bytes "
                     "(config/state mismatch)";
        return false;
    }
    return true;
}

std::vector<std::uint8_t>
Checkpoint::encode() const
{
    StateWriter writer;
    writer.bytes(kMagic, sizeof(kMagic));
    writer.value(kCheckpointFormatVersion);
    std::uint64_t key_size = warmupKey_.size();
    writer.value(key_size);
    writer.bytes(warmupKey_.data(), warmupKey_.size());
    std::uint64_t payload_size = payload_.size();
    writer.value(payload_size);
    writer.bytes(payload_.data(), payload_.size());
    return writer.take();
}

std::shared_ptr<const Checkpoint>
Checkpoint::decode(const std::vector<std::uint8_t> &bytes,
                   std::string *error)
{
    StateLoader loader(bytes.data(), bytes.size());
    char magic[sizeof(kMagic)] = {};
    loader.bytes(magic, sizeof(magic));
    if (loader.failed() ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
        if (error)
            *error = "not a checkpoint blob (bad magic)";
        return nullptr;
    }

    std::uint32_t version = 0;
    loader.value(version);
    if (loader.failed() || version != kCheckpointFormatVersion) {
        if (error)
            *error = "checkpoint format version " +
                     std::to_string(version) + ", this build expects " +
                     std::to_string(kCheckpointFormatVersion);
        return nullptr;
    }

    std::string key;
    std::uint64_t key_size = 0;
    loader.value(key_size);
    if (!loader.failed() && key_size <= loader.remaining()) {
        key.resize(key_size);
        loader.bytes(key.data(), key_size);
    } else {
        if (error)
            *error = "checkpoint header truncated";
        return nullptr;
    }

    std::uint64_t payload_size = 0;
    loader.value(payload_size);
    if (loader.failed() || payload_size != loader.remaining()) {
        if (error)
            *error = "checkpoint payload length mismatch";
        return nullptr;
    }
    std::vector<std::uint8_t> payload(payload_size);
    loader.bytes(payload.data(), payload_size);
    return std::make_shared<const Checkpoint>(std::move(key),
                                              std::move(payload));
}

CheckpointStore &
CheckpointStore::global()
{
    static CheckpointStore store;
    return store;
}

std::string
checkpointDir()
{
    const char *dir = runtimeEnv("HP_CKPT_DIR");
    return dir ? std::string(dir) : std::string();
}

std::string
checkpointFileName(const std::string &key)
{
    // configKey leads with the workload, kept as a readable prefix.
    return key.substr(0, key.find('|')) + "-" + hexHash(hashString(key)) +
           ".ckpt";
}

bool
saveCheckpointFile(const std::string &dir,
                   const std::string &file_name, const Checkpoint &ckpt)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);

    const fs::path target = fs::path(dir) / file_name;
    // Unique temp name per process so concurrent sweeps can't observe
    // (or clobber) a half-written file; rename is atomic within dir.
    const fs::path tmp =
        target.string() + ".tmp." + hexHash(std::uint64_t(
            reinterpret_cast<std::uintptr_t>(&ckpt)));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        const std::vector<std::uint8_t> image = ckpt.encode();
        out.write(reinterpret_cast<const char *>(image.data()),
                  std::streamsize(image.size()));
        if (!out) {
            out.close();
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, target, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

std::shared_ptr<const Checkpoint>
loadCheckpointFile(const std::string &path,
                   const std::string &expected_key, std::string *error)
{
    // One block read: a sampled warm run loads K ~1 MB blobs per leg,
    // where byte-wise istreambuf iteration costs milliseconds each.
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return nullptr;
    }
    const std::streamsize size = in.tellg();
    std::vector<std::uint8_t> bytes(
        size > 0 ? std::size_t(size) : 0);
    in.seekg(0);
    if (!bytes.empty() &&
        !in.read(reinterpret_cast<char *>(bytes.data()),
                 std::streamsize(bytes.size()))) {
        if (error)
            *error = "short read from " + path;
        return nullptr;
    }
    std::shared_ptr<const Checkpoint> ckpt =
        Checkpoint::decode(bytes, error);
    if (!ckpt) {
        // A blob we can open but not decode (bad magic, stale format
        // version, truncation) will never become loadable; evict it so
        // HP_CKPT_DIR does not accumulate dead files across versions.
        evictStaleCheckpoint(path, error);
        return nullptr;
    }
    if (ckpt->warmupKey() != expected_key) {
        if (error)
            *error = path + " was produced by a different warmup "
                            "config (key mismatch)";
        evictStaleCheckpoint(path, error);
        return nullptr;
    }
    return ckpt;
}

std::string
intervalCheckpointKey(const SimConfig &config, std::uint64_t start_inst,
                      std::uint64_t warm_insts)
{
    // The "w" separates the detailed-warmup length baked into the
    // state from the position, so no two pairs concatenate alike.
    return checkpointKey(config) + "|iv@" + std::to_string(start_inst) +
           "w" + std::to_string(warm_insts);
}

bool
checkpointingEnabled(const SimConfig &config)
{
    if (config.warmupInsts == 0)
        return false;
    const char *env = runtimeEnv("HP_CKPT");
    return env == nullptr || std::strcmp(env, "0") != 0;
}

namespace
{

/**
 * Fetches @p config's class checkpoint from the store or HP_CKPT_DIR,
 * or produces it — warming a Simulator created in @p sim, which then
 * stands at the warmup boundary so the producer can continue without
 * a restore — and spills it. With checkpointing disabled the blob is
 * private. Never returns nullptr.
 */
std::shared_ptr<const Checkpoint>
classCheckpoint(const SimConfig &config, std::unique_ptr<Simulator> &sim)
{
    const std::string key = checkpointKey(config);
    auto warm = [&] {
        sim = std::make_unique<Simulator>(config);
        sim->runWarmup();
        return std::make_shared<const Checkpoint>(
            Checkpoint::capture(*sim, key));
    };

    if (!checkpointingEnabled(config))
        return warm();

    return CheckpointStore::global().get(
        {key, warmupConfig(config)},
        [&]() -> std::shared_ptr<const Checkpoint> {
            const std::string dir = checkpointDir();
            if (dir.empty())
                return warm();
            // Cross-process reuse: a prior run may have spilled this
            // class.
            const std::string file = checkpointFileName(key);
            std::string error;
            if (auto ckpt = loadCheckpointFile(
                    (std::filesystem::path(dir) / file).string(), key,
                    &error))
                return ckpt;
            std::shared_ptr<const Checkpoint> ckpt = warm();
            saveCheckpointFile(dir, file, *ckpt);
            return ckpt;
        });
}

} // namespace

std::shared_ptr<const Checkpoint>
acquireWarmedCheckpoint(const SimConfig &config)
{
    std::unique_ptr<Simulator> unused;
    return classCheckpoint(config, unused);
}

SimMetrics
runCheckpointed(const SimConfig &config)
{
    if (!checkpointingEnabled(config)) {
        Simulator sim(config);
        return sim.run();
    }

    std::unique_ptr<Simulator> sim;
    std::shared_ptr<const Checkpoint> ckpt = classCheckpoint(config, sim);
    if (sim)
        return sim->finishRun(); // this caller warmed it up itself

    Simulator restored(config);
    std::string error;
    if (ckpt->restoreInto(restored, &error))
        return restored.finishRun();
    HP_WARN_LIMIT(8, "checkpoint restore failed (" + error +
                         "); running cold");
    Simulator cold(config);
    return cold.run();
}

} // namespace hp
