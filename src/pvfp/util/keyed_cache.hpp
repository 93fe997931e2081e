#pragma once
/// \file keyed_cache.hpp
/// The one thread-safe memo behind every cached stage of a roof's
/// preparation: decoded tiles, horizon macro planes, sky artifacts and
/// prepared roofs.
///
/// Contract of get(key, tag, build):
///  * A resident entry for \p key whose content tag equals \p tag is
///    returned (a hit) and becomes the most recently used.
///  * Otherwise the first caller builds the value with no cache-wide
///    lock held (a miss); concurrent callers for the same key and tag
///    wait on that entry's own latch and share the one value (joins).
///    Misses on different keys build fully in parallel.
///  * A build that throws hands its error to the builder and to every
///    joiner and leaves nothing cached, so the next call retries.
///  * A resident entry whose tag differs is dropped (an invalidation) and
///    rebuilt.  A caller that finds a build for another tag in flight
///    waits for it and then looks again: no caller ever receives a value
///    built for a different tag.
///  * Residency is least-recently-used under an entry-count bound and a
///    byte bound (the summed cost of the resident values).  The most
///    recent entry always stays, so one oversized value cannot thrash
///    the cache into rebuilding it on every lookup.
///
/// Eviction only drops the cache's reference: a value handed out stays
/// valid for as long as its holder keeps it.  Nothing here ever touches
/// an in-flight build, so erase/shrink/clear never race a builder.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

namespace pvfp {

/// Counters of one KeyedCache (exact when quiescent).
struct CacheStats {
    std::size_t hits = 0;           ///< served resident
    std::size_t joins = 0;          ///< waited on another caller's build
    std::size_t misses = 0;         ///< builds initiated
    std::size_t evictions = 0;      ///< entries dropped for a bound
    std::size_t invalidations = 0;  ///< entries dropped as stale or erased
    std::size_t bytes = 0;          ///< summed cost of resident entries
    std::size_t entries = 0;        ///< resident entries
};

/// Residency bounds of one KeyedCache (unbounded by default); bytes are
/// the summed cost of the resident values.
struct CacheLimits {
    std::size_t max_entries = std::numeric_limits<std::size_t>::max();
    std::size_t max_bytes = std::numeric_limits<std::size_t>::max();
};

template <typename Key, typename Value>
class KeyedCache {
public:
    using Ptr = std::shared_ptr<const Value>;
    /// Resident size of one value [bytes]; the byte bound's unit.
    using Cost = std::function<std::size_t(const Value&)>;

    /// \p cost defaults to 0 per value (an entry-bound-only cache).
    explicit KeyedCache(CacheLimits limits = {}, Cost cost = {})
        : limits_(limits), cost_(std::move(cost)) {}

    /// The value of \p key built for content \p tag; \p build() -> Ptr
    /// runs at most once per miss (see the file contract).
    template <typename Build>
    Ptr get(const Key& key, std::uint64_t tag, Build&& build) {
        for (;;) {
            std::optional<std::promise<Ptr>> promise;
            std::shared_future<Ptr> pending;
            bool same_tag = true;
            typename Map::iterator it;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                it = entries_.find(key);
                if (it != entries_.end() && it->second.resident) {
                    if (it->second.tag == tag) {
                        lru_.splice(lru_.begin(), lru_, it->second.lru);
                        ++stats_.hits;
                        return it->second.value;
                    }
                    drop_locked(it);
                    ++stats_.invalidations;
                    it = entries_.end();
                }
                if (it != entries_.end()) {
                    pending = it->second.built;
                    same_tag = it->second.tag == tag;
                    if (same_tag) ++stats_.joins;
                } else {
                    promise.emplace();
                    it = entries_.emplace(key, Entry{}).first;
                    it->second.tag = tag;
                    it->second.built = promise->get_future().share();
                    ++stats_.misses;
                }
            }

            if (!promise) {
                if (same_tag) return pending.get();  // rethrows a failure
                pending.wait();
                continue;
            }

            Ptr value;
            try {
                value = build();
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    entries_.erase(it);
                }
                promise->set_exception(std::current_exception());
                throw;
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                Entry& entry = it->second;
                entry.built = {};  // the entry holds the one cache reference
                entry.value = value;
                entry.cost = cost_ ? cost_(*value) : 0;
                entry.resident = true;
                lru_.push_front(key);
                entry.lru = lru_.begin();
                bytes_ += entry.cost;
                evict_locked(1, [&] {
                    return lru_.size() > limits_.max_entries ||
                           bytes_ > limits_.max_bytes;
                });
            }
            promise->set_value(value);
            return value;
        }
    }

    /// Drop \p key's resident entry (an invalidation); no-op when absent
    /// or still being built.
    void erase(const Key& key) {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it == entries_.end() || !it->second.resident) return;
        drop_locked(it);
        ++stats_.invalidations;
    }

    /// Evict least-recently-used entries until resident bytes <= \p limit
    /// (0 empties the cache).
    void shrink_to(std::size_t limit) {
        std::lock_guard<std::mutex> lock(mutex_);
        evict_locked(0, [&] { return bytes_ > limit; });
    }

    /// Evict least-recently-used entries, keeping the most recent one,
    /// while \p over(resident bytes) holds — a bound that also counts
    /// memory outside this cache.  \p over runs under the cache lock.
    template <typename Over>
    void evict_while(Over&& over) {
        std::lock_guard<std::mutex> lock(mutex_);
        evict_locked(1, [&] { return over(bytes_); });
    }

    /// Evict every resident entry whose value satisfies \p pred(Ptr),
    /// which runs under the cache lock.  A resident value's use_count()
    /// is 1 exactly when no caller still holds it.
    template <typename Pred>
    void erase_if(Pred&& pred) {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = entries_.begin(); it != entries_.end();) {
            const auto next = std::next(it);
            if (it->second.resident && pred(it->second.value)) {
                drop_locked(it);
                ++stats_.evictions;
            }
            it = next;
        }
    }

    /// Drop every resident entry without counting it (a reload).
    void clear() {
        std::lock_guard<std::mutex> lock(mutex_);
        while (!lru_.empty()) drop_locked(entries_.find(lru_.back()));
    }

    CacheStats stats() const {
        std::lock_guard<std::mutex> lock(mutex_);
        CacheStats s = stats_;
        s.bytes = bytes_;
        s.entries = lru_.size();
        return s;
    }

private:
    struct Entry {
        std::uint64_t tag = 0;
        std::shared_future<Ptr> built;  ///< the latch joiners wait on
        Ptr value;                      ///< set once resident
        bool resident = false;
        std::size_t cost = 0;
        typename std::list<Key>::iterator lru{};
    };
    using Map = std::map<Key, Entry>;

    void drop_locked(typename Map::iterator it) {
        bytes_ -= it->second.cost;
        lru_.erase(it->second.lru);
        entries_.erase(it);
    }

    template <typename Over>
    void evict_locked(std::size_t keep, Over&& over) {
        while (lru_.size() > keep && over()) {
            drop_locked(entries_.find(lru_.back()));
            ++stats_.evictions;
        }
    }

    CacheLimits limits_;
    Cost cost_;
    mutable std::mutex mutex_;
    Map entries_;          ///< resident entries and in-flight builds
    std::list<Key> lru_;   ///< resident keys, front = most recently used
    std::size_t bytes_ = 0;
    CacheStats stats_;
};

}  // namespace pvfp
