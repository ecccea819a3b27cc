#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <latch>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/once_map.hh"

namespace hp
{
namespace
{

TEST(OnceMapTest, ConcurrentRequestersShareOneProduction)
{
    OnceMap<std::string, int> map;
    std::atomic<int> calls{0};
    std::latch start(8);
    std::vector<int> results(8, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            results[t] = map.get("key", [&calls] {
                calls.fetch_add(1);
                // Long enough that the other requesters arrive while
                // the value is still being produced.
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                return 42;
            });
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(calls.load(), 1);
    for (int result : results)
        EXPECT_EQ(result, 42);
    EXPECT_EQ(map.size(), 1u);
}

TEST(OnceMapTest, DistinctKeysProduceConcurrently)
{
    // Each producer waits for the other one to start. A table that
    // produced under its lock would serialize them, and the first
    // would time out and return false.
    OnceMap<int, bool> map;
    std::mutex mutex;
    std::condition_variable cv;
    int started = 0;
    auto produce = [&] {
        std::unique_lock<std::mutex> lock(mutex);
        ++started;
        cv.notify_all();
        return cv.wait_for(lock, std::chrono::seconds(10),
                           [&] { return started == 2; });
    };

    bool a = false;
    bool b = false;
    std::thread first([&] { a = map.get(1, produce); });
    std::thread second([&] { b = map.get(2, produce); });
    first.join();
    second.join();

    EXPECT_TRUE(a);
    EXPECT_TRUE(b);
    EXPECT_EQ(map.size(), 2u);
}

TEST(OnceMapTest, ProducerExceptionReachesEveryRequester)
{
    OnceMap<int, int> map;
    std::packaged_task<int()> task;
    std::shared_future<int> future = map.acquire(
        7, [] () -> int { throw std::runtime_error("producer failed"); },
        &task);
    ASSERT_TRUE(task.valid());

    std::atomic<int> reruns{0};
    std::atomic<int> caught{0};
    std::vector<std::thread> waiters;
    for (int t = 0; t < 4; ++t) {
        waiters.emplace_back([&] {
            try {
                map.get(7, [&reruns] { return ++reruns; });
            } catch (const std::runtime_error &e) {
                if (std::string(e.what()) == "producer failed")
                    caught.fetch_add(1);
            }
        });
    }
    task();
    for (std::thread &waiter : waiters)
        waiter.join();

    EXPECT_THROW(future.get(), std::runtime_error);
    EXPECT_THROW(map.get(7, [&reruns] { return ++reruns; }),
                 std::runtime_error);
    EXPECT_EQ(caught.load(), 4);
    EXPECT_EQ(reruns.load(), 0);
}

TEST(OnceMapTest, OnlyTheFirstRequesterGetsTheTask)
{
    OnceMap<int, int> map;
    std::packaged_task<int()> first;
    std::packaged_task<int()> second;
    std::shared_future<int> a = map.acquire(3, [] { return 9; }, &first);
    std::shared_future<int> b = map.acquire(3, [] { return 10; }, &second);
    ASSERT_TRUE(first.valid());
    EXPECT_FALSE(second.valid());
    first();
    EXPECT_EQ(a.get(), 9);
    EXPECT_EQ(b.get(), 9);
}

TEST(OnceMapTest, SizeCountsDistinctKeys)
{
    OnceMap<int, int> map;
    EXPECT_EQ(map.size(), 0u);
    for (int key : {1, 2, 1, 3, 2, 1})
        EXPECT_EQ(map.get(key, [key] { return key * 10; }), key * 10);
    EXPECT_EQ(map.size(), 3u);
}

} // namespace
} // namespace hp
