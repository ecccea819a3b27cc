/**
 * @file
 * A concurrent memo table: each key's value is produced once, by its
 * first requester, and every requester of that key shares the result.
 *
 * The table maps keys to shared futures. The first request for a key
 * creates the entry and receives the producing task; later requests
 * get the same future and block on it. Nothing is produced under the
 * table's lock, so different keys produce in parallel and a producer
 * may itself consult other keys (or other tables). A producer's
 * exception is stored in the future, so it reaches every requester of
 * that key, and the producer is never run again.
 *
 * The simulator's process-wide caches are all instances: built
 * programs, parsed scenarios, warmed checkpoints and deduplicated
 * simulation results.
 */

#ifndef HP_UTIL_ONCE_MAP_HH
#define HP_UTIL_ONCE_MAP_HH

#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace hp
{

template <class K, class V, class Hash = std::hash<K>>
class OnceMap
{
  public:
    /**
     * Finds or creates @p key's entry and returns its future. If this
     * call created the entry, @p task is set to run @p produce and the
     * caller must run it (inline or on a worker thread); every other
     * caller gets the same future and an untouched task.
     */
    template <class Produce>
    std::shared_future<V>
    acquire(const K &key, Produce &&produce, std::packaged_task<V()> *task)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        if (it != map_.end())
            return it->second;
        std::packaged_task<V()> fresh(std::forward<Produce>(produce));
        std::shared_future<V> future = fresh.get_future().share();
        map_.emplace(key, future);
        *task = std::move(fresh);
        return future;
    }

    /** @p key's value, running @p produce inline if this call is the
     *  first request for it. Rethrows the producer's exception. */
    template <class Produce>
    V
    get(const K &key, Produce &&produce)
    {
        std::packaged_task<V()> task;
        std::shared_future<V> future =
            acquire(key, std::forward<Produce>(produce), &task);
        if (task.valid())
            task();
        return future.get();
    }

    /** Number of distinct keys requested so far. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return map_.size();
    }

  private:
    mutable std::mutex mutex_;
    std::unordered_map<K, std::shared_future<V>, Hash> map_;
};

} // namespace hp

#endif // HP_UTIL_ONCE_MAP_HH
