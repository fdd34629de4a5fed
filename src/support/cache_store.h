/**
 * @file
 * The one content-addressed memo container of POM and the FNV-1a-64
 * content-hash helpers. A ContentCache<V> is a mutex-guarded
 * key -> value map with hit/miss counts and a fixed FIFO entry cap
 * with an eviction counter. Four caches are instances: the per-node
 * report cache in src/hls, which also spills to a `--cache-dir`
 * (hls/node_cache.h owns that format); and three that live in memory
 * only: the dependence memo in src/transform, the trip-count memo in
 * src/hls (hls/count.h), and each pomd server's result memo in
 * src/service (service::Server).
 */

#ifndef POM_SUPPORT_CACHE_STORE_H
#define POM_SUPPORT_CACHE_STORE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

// ContentCache bumps obs counters; pom_support itself does not link
// pom_obs, so only libraries that do (hls, transform, service)
// instantiate it.
#include "obs/obs.h"

namespace pom::support {

/** FNV-1a-64 offset basis (the seed for fnv1a64). */
inline constexpr std::uint64_t kFnvOffset64 = 14695981039346656037ull;

/** FNV-1a-64 prime: each byte is xored in, then multiplied by it. */
inline constexpr std::uint64_t kFnvPrime64 = 1099511628211ull;

/** Fold @p size bytes at @p data into the running FNV-1a-64 @p hash. */
std::uint64_t fnv1a64(const char *data, std::size_t size,
                      std::uint64_t hash = kFnvOffset64);

/** @p v as 16 lowercase hex digits (the content-address spelling). */
std::string hex16(std::uint64_t v);

/** Content address of a cache key: FNV-1a-64 of @p key, 16 hex. */
std::string cacheContentHash(const std::string &key);

/** True when @p text is spelled like a content hash (16 lower hex). */
bool isContentHash(const std::string &text);

/** Outcome counts of one cache-directory load/save call. */
struct CacheSpillStats
{
    std::size_t loaded = 0;  ///< entries read into the cache
    std::size_t skipped = 0; ///< corrupt/missing entries warned about
    std::size_t written = 0; ///< new object files created
    std::size_t kept = 0;    ///< entries already present on disk
};

/**
 * Thread-safe key -> V map with hit/miss statistics and a FIFO entry
 * cap. Past the cap the oldest inserted entry is evicted -- a lookup
 * does not refresh an entry -- and counted in evictions() and the obs
 * counter named at construction.
 */
template <typename V>
class ContentCache
{
  public:
    ContentCache(const char *evictionCounter, std::size_t capacity)
        : evictionCounter_(evictionCounter), capacity_(capacity)
    {}

    /** Cached value for @p key; counts a hit or a miss either way. */
    std::optional<V>
    lookup(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        if (it == map_.end()) {
            misses_.fetch_add(1, std::memory_order_relaxed);
            return std::nullopt;
        }
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
    }

    /** Insert; the first writer wins, so duplicates are idempotent. */
    void
    store(const std::string &key, V value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!map_.emplace(key, std::move(value)).second)
            return;
        order_.push_back(key);
        if (map_.size() > capacity_) {
            map_.erase(order_.front());
            order_.pop_front();
            evictions_.fetch_add(1, std::memory_order_relaxed);
            obs::counterAdd(evictionCounter_);
        }
    }

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t evictions() const { return evictions_.load(); }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return map_.size();
    }

    /** Drop all entries and reset the statistics (cold-run benches). */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        map_.clear();
        order_.clear();
        hits_.store(0);
        misses_.store(0);
        evictions_.store(0);
    }

    /** Copy of all entries in insertion order (spilling, tests). */
    std::vector<std::pair<std::string, V>>
    snapshot() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<std::pair<std::string, V>> out;
        out.reserve(order_.size());
        for (const auto &key : order_)
            out.emplace_back(key, map_.at(key));
        return out;
    }

  private:
    const char *const evictionCounter_;
    mutable std::mutex mutex_;
    std::unordered_map<std::string, V> map_;
    std::deque<std::string> order_; ///< insertion order for FIFO eviction
    const std::size_t capacity_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

} // namespace pom::support

#endif // POM_SUPPORT_CACHE_STORE_H
