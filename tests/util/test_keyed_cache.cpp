/// \file test_keyed_cache.cpp
/// The KeyedCache contract, written once for every cache built on it:
/// parallel misses, one build per key, error propagation and retry,
/// tag invalidation, byte-bounded LRU, and a mixed-operation hammer that
/// the TSan job runs for data races.
///
/// Builds park on a per-key gate the test releases, so each test can
/// prove which builds run at once.  A test releases a gate only after
/// the cache's own counters show every joiner attached — never on
/// timing.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pvfp/util/keyed_cache.hpp"

namespace pvfp {
namespace {

using Cache = KeyedCache<std::string, int>;

/// Builds that block until their key is released, counting calls.
struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    std::map<std::string, int> calls;  ///< builds started, per key
    std::set<std::string> released;    ///< keys allowed to finish
    bool fail = false;                 ///< throw instead of building

    /// A build of \p key returning \p value once released.
    auto build(const std::string& key, int value) {
        return [this, key, value] {
            std::unique_lock<std::mutex> lock(mutex);
            ++calls[key];
            cv.notify_all();
            const bool ok =
                cv.wait_for(lock, std::chrono::seconds(20),
                            [&] { return released.count(key) != 0; });
            if (!ok) throw std::runtime_error("Gate: timed out on " + key);
            if (fail) throw std::runtime_error("Gate: injected failure");
            return std::make_shared<const int>(value);
        };
    }

    /// Block (bounded) until \p n builds of \p key have started.
    bool await_started(const std::string& key, int n) {
        std::unique_lock<std::mutex> lock(mutex);
        return cv.wait_for(lock, std::chrono::seconds(20),
                           [&] { return calls[key] >= n; });
    }

    void release(const std::string& key) {
        std::lock_guard<std::mutex> lock(mutex);
        released.insert(key);
        cv.notify_all();
    }

    int calls_of(const std::string& key) {
        std::lock_guard<std::mutex> lock(mutex);
        return calls[key];
    }
};

/// Block (bounded) until \p cache counts \p n joins.
bool await_joins(const Cache& cache, std::size_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (cache.stats().joins < n) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

std::shared_ptr<const int> value_of(int v) {
    return std::make_shared<const int>(v);
}

/// Cost of an int value: the value itself, so byte bounds are legible.
Cache bounded(std::size_t max_bytes) {
    return Cache({.max_bytes = max_bytes},
                 [](const int& v) { return static_cast<std::size_t>(v); });
}

TEST(KeyedCache, MissesOnDifferentKeysOverlap) {
    // Both builds must start while neither may finish: a build under the
    // cache-wide lock would deadlock the second start, and the bounded
    // waits turn that into a failure instead of a hang.
    Gate gate;
    Cache cache;
    std::thread a([&] { (void)cache.get("a", 0, gate.build("a", 1)); });
    std::thread b([&] { (void)cache.get("b", 0, gate.build("b", 2)); });
    EXPECT_TRUE(gate.await_started("a", 1));
    EXPECT_TRUE(gate.await_started("b", 1));  // overlap proven
    gate.release("a");
    gate.release("b");
    a.join();
    b.join();
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits + stats.joins, 0u);
    EXPECT_EQ(stats.entries, 2u);
}

TEST(KeyedCache, SameKeyBuildsOnceAndEveryCallerSharesIt) {
    Gate gate;
    Cache cache;
    constexpr int kThreads = 4;
    std::vector<std::shared_ptr<const int>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(
            [&, t] { got[t] = cache.get("x", 0, gate.build("x", 7)); });
    ASSERT_TRUE(gate.await_started("x", 1));
    ASSERT_TRUE(await_joins(cache, kThreads - 1));
    gate.release("x");
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(gate.calls_of("x"), 1) << "duplicate build";
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.joins, 3u);
    EXPECT_EQ(stats.hits, 0u);
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_NE(got[t], nullptr);
        EXPECT_EQ(got[t], got[0]);  // one shared value
    }
    // A later call is a resident hit on the same object.
    EXPECT_EQ(cache.get("x", 0, gate.build("x", 8)), got[0]);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(KeyedCache, ErrorReachesEveryJoinerAndTheNextCallRetries) {
    Gate gate;
    gate.fail = true;
    Cache cache;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t)
        threads.emplace_back([&] {
            try {
                (void)cache.get("bad", 0, gate.build("bad", 1));
            } catch (const std::runtime_error&) {
                failures.fetch_add(1);
            }
        });
    ASSERT_TRUE(gate.await_started("bad", 1));
    ASSERT_TRUE(await_joins(cache, 2));
    gate.release("bad");
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 3);  // builder and both joiners throw
    EXPECT_EQ(cache.stats().entries, 0u);

    // Nothing was cached, so the next call builds again and succeeds.
    gate.fail = false;
    EXPECT_EQ(*cache.get("bad", 0, gate.build("bad", 5)), 5);
    EXPECT_EQ(gate.calls_of("bad"), 2);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(KeyedCache, TagMismatchInvalidatesAndRebuilds) {
    Cache cache;
    const auto v1 = cache.get("k", 1, [] { return value_of(1); });
    EXPECT_EQ(cache.get("k", 1, [] { return value_of(99); }), v1);
    const auto v2 = cache.get("k", 2, [] { return value_of(2); });
    EXPECT_EQ(*v2, 2);
    EXPECT_EQ(cache.get("k", 2, [] { return value_of(99); }), v2);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.invalidations, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(KeyedCache, CallerNeverReceivesAValueBuiltForAnotherTag) {
    // A build for tag 1 is in flight when a caller asks for tag 2: the
    // caller must wait it out and build its own value, not join.
    Gate gate;
    Cache cache;
    std::shared_ptr<const int> old_value;
    std::thread builder(
        [&] { old_value = cache.get("k", 1, gate.build("k", 1)); });
    ASSERT_TRUE(gate.await_started("k", 1));
    std::shared_ptr<const int> new_value;
    std::thread other([&] {
        new_value = cache.get("k", 2, [] { return value_of(2); });
    });
    // Give the caller time to find the tag-1 build in flight.  The
    // assertions hold whichever way the race goes.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.release("k");
    builder.join();
    other.join();
    EXPECT_EQ(*old_value, 1);
    EXPECT_EQ(*new_value, 2);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.joins, 0u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(*cache.get("k", 2, [] { return value_of(99); }), 2);
}

TEST(KeyedCache, ByteBoundEvictsLeastRecentAndKeepsTheNewest) {
    Cache cache = bounded(10);
    (void)cache.get("a", 0, [] { return value_of(4); });
    (void)cache.get("b", 0, [] { return value_of(4); });
    (void)cache.get("a", 0, [] { return value_of(99); });  // a is newer
    (void)cache.get("c", 0, [] { return value_of(4); });   // 12 > 10
    CacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.bytes, 8u);
    // b was least recently used, so it is the one rebuilt.
    EXPECT_EQ(*cache.get("a", 0, [] { return value_of(99); }), 4);
    EXPECT_EQ(*cache.get("b", 0, [] { return value_of(3); }), 3);

    // One value larger than the bound stays resident alone.
    (void)cache.get("huge", 0, [] { return value_of(50); });
    stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.bytes, 50u);
    EXPECT_EQ(*cache.get("huge", 0, [] { return value_of(99); }), 50);
}

TEST(KeyedCache, EntryBoundEraseShrinkAndClear) {
    Cache cache({.max_entries = 2});
    (void)cache.get("a", 0, [] { return value_of(1); });
    (void)cache.get("b", 0, [] { return value_of(2); });
    (void)cache.get("c", 0, [] { return value_of(3); });
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);

    Cache sized = bounded(100);
    for (const char* key : {"a", "b", "c"})
        (void)sized.get(key, 0, [] { return value_of(10); });
    sized.erase("b");
    sized.erase("missing");  // no-op
    EXPECT_EQ(sized.stats().invalidations, 1u);
    EXPECT_EQ(sized.stats().bytes, 20u);
    sized.shrink_to(10);  // drops the least recent, "a"
    EXPECT_EQ(sized.stats().evictions, 1u);
    EXPECT_EQ(*sized.get("c", 0, [] { return value_of(99); }), 10);
    sized.evict_while([](std::size_t bytes) { return bytes > 0; });
    EXPECT_EQ(sized.stats().entries, 1u);  // the newest always stays
    sized.erase_if([](const auto& v) { return *v == 10; });
    EXPECT_EQ(sized.stats().entries, 0u);
    EXPECT_EQ(sized.stats().evictions, 2u);

    // Once its callers let go, the cache holds the only reference to a
    // value: erase_if can tell values in use from unused ones.
    const auto held = sized.get("held", 0, [] { return value_of(1); });
    (void)sized.get("unused", 0, [] { return value_of(2); });
    sized.erase_if([](const auto& v) { return v.use_count() == 1; });
    EXPECT_EQ(sized.stats().entries, 1u);
    EXPECT_EQ(sized.get("held", 0, [] { return value_of(99); }), held);
    sized.erase("held");

    (void)sized.get("d", 0, [] { return value_of(5); });
    const std::size_t evictions = sized.stats().evictions;
    sized.clear();
    EXPECT_EQ(sized.stats().entries, 0u);
    EXPECT_EQ(sized.stats().bytes, 0u);
    EXPECT_EQ(sized.stats().evictions, evictions);  // a clear is not counted
}

TEST(KeyedCache, HammerMixedOperationsUnderContention) {
    // Every path (hit, miss, join, invalidation, eviction, erase, shrink,
    // failed build) from many threads at once.  A value is a pure
    // function of (key, tag), so any mix-up shows as a wrong value.
    Cache cache = bounded(60);
    constexpr int kThreads = 8;
    constexpr int kIterations = 400;
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIterations; ++i) {
                const int k = (t * 7 + i * 3) % 6;
                const std::string key = "k" + std::to_string(k);
                const std::uint64_t tag = (i / 50) % 2;
                const int expected = 10 * k + static_cast<int>(tag) + 1;
                try {
                    if ((t + i) % 10 == 0) {
                        cache.erase(key);
                    } else if ((t + i) % 10 == 1) {
                        cache.shrink_to(30);
                    } else if ((t + i) % 10 == 2) {
                        (void)cache.get(key, tag, [] {
                            throw std::runtime_error("injected");
                            return value_of(0);
                        });
                    } else {
                        const auto v = cache.get(
                            key, tag, [&] { return value_of(expected); });
                        if (*v != expected) wrong.fetch_add(1);
                    }
                } catch (const std::runtime_error&) {
                    // The injected failure, or a join on one.
                }
            }
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(wrong.load(), 0);

    // Quiescent accounting is exact: every key serves its own value, and
    // emptying the cache leaves no stray bytes behind.
    for (int k = 0; k < 6; ++k) {
        const int expected = 10 * k + 1;
        EXPECT_EQ(*cache.get("k" + std::to_string(k), 0,
                             [&] { return value_of(expected); }),
                  expected);
    }
    EXPECT_LE(cache.stats().bytes, 60u);
    cache.shrink_to(0);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
}

}  // namespace
}  // namespace pvfp
