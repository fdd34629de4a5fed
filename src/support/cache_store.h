/**
 * @file
 * The one content-addressed cache container of POM and its on-disk
 * spill format. Each cache is a ContentCache<V>: a mutex-guarded
 * key -> value map with hit/miss counts, a fixed FIFO entry cap with
 * an eviction counter, and loadDir()/saveDir() against a
 * `--cache-dir`. A cache kind supplies only its key builder and a
 * ContentCacheFormat -- the format name, index and object file names,
 * eviction-counter name and its payload codec. One cache spills: the
 * per-node report cache in src/hls (`nodes.index` + `nodes/`). The
 * dependence memo in src/transform is a second, in-memory instance
 * with no codec; loadDir()/saveDir() are never instantiated for it.
 * The spill follows these conventions:
 *
 *  - FNV-1a-64 content hashes, printed as 16 lowercase hex digits,
 *    which are also the only index lines a load accepts (anything
 *    else, and any object that is not a regular file, is skipped with
 *    a warning -- an index line can never name another path),
 *  - a first line "<format-name> <version>" stamping every entry and
 *    index file (a mismatch is a clean load error, never misread
 *    bytes),
 *  - a trailing "sum <hex16>" checksum line over the entry body (a
 *    corrupt entry is skipped with a warning, the rest still load),
 *  - full-key storage inside each entry so a hash collision can never
 *    alias two keys,
 *  - atomic temp-file + rename() writes so a crash mid-save leaves no
 *    torn files, and an index that merges with whatever a concurrent
 *    saver already wrote.
 */

#ifndef POM_SUPPORT_CACHE_STORE_H
#define POM_SUPPORT_CACHE_STORE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

// ContentCache bumps obs counters; pom_support itself does not link
// pom_obs, so only libraries that do (hls, transform) instantiate it.
#include "obs/obs.h"

namespace pom::support {

/** FNV-1a-64 offset basis (the seed for fnv1a64). */
inline constexpr std::uint64_t kFnvOffset64 = 14695981039346656037ull;

/** Fold @p size bytes at @p data into the running FNV-1a-64 @p hash. */
std::uint64_t fnv1a64(const char *data, std::size_t size,
                      std::uint64_t hash = kFnvOffset64);

/** @p v as 16 lowercase hex digits (the content-address spelling). */
std::string hex16(std::uint64_t v);

/** Content address of a cache key: FNV-1a-64 of @p key, 16 hex. */
std::string cacheContentHash(const std::string &key);

/** True when @p text is spelled like a content hash (16 lower hex). */
bool isContentHash(const std::string &text);

/** "<formatName> <kVersionString>\n" -- first line of every file. */
std::string cacheFormatHeader(const char *formatName);

/** Append the trailing "sum <hex16>\n" checksum line to @p body. */
std::string sealCacheEntry(const std::string &body);

/**
 * Validate the trailing checksum and the version-stamped header of a
 * sealed entry. On success @p bodyStart points just past the header
 * line (where cache-specific fields begin). On failure @p error gets
 * "missing checksum line", "checksum mismatch (corrupt entry)" or a
 * format/version mismatch diagnostic.
 */
bool openCacheEntry(const std::string &text, const char *formatName,
                    std::size_t &bodyStart, std::string &error);

/** Cursor over an entry text: strict line-oriented reads. */
struct CacheEntryReader
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    bool fail(const std::string &what);

    /** Read up to the next '\n' (consumed, not returned). */
    bool line(std::string &out);

    /** Read exactly @p n raw bytes plus a trailing '\n'. */
    bool raw(std::size_t n, std::string &out);
};

/** sscanf a single %SCNu64-style field out of @p line. */
bool scanU64(const std::string &line, const char *fmt,
             std::uint64_t &out);

/** Parse "<len>:<name>" at the front of @p rest; true on success. */
bool splitNamed(const std::string &rest, std::string &name,
                std::string &tail);

/** Write @p content to @p path via a temp file + rename (atomic). */
bool writeFileAtomically(const std::string &path,
                         const std::string &content, std::string &error);

/**
 * Read the content-hash index at @p path into @p hashes. Absent file
 * -> true with nothing read (cold start); empty file, wrong
 * format/version or unreadable -> false with @p error.
 */
bool readCacheIndex(const std::string &path, const char *formatName,
                    std::vector<std::string> &hashes, std::string &error);

/** Outcome counts of one cache-directory load/save call. */
struct CacheSpillStats
{
    std::size_t loaded = 0;  ///< entries read into the cache
    std::size_t skipped = 0; ///< corrupt/missing entries warned about
    std::size_t written = 0; ///< new object files created
    std::size_t kept = 0;    ///< entries already present on disk
};

/** Where one cache kind lives inside a cache directory. */
struct CacheDirLayout
{
    const char *formatName;  ///< stamp of the index and every entry
    const char *indexName;   ///< <dir>/<indexName>: one hash per line
    const char *objectsName; ///< <dir>/<objectsName>/<hash>: entries
    const char *entryLabel;  ///< names an entry in load warnings
};

/**
 * Read every entry indexed under @p dir and hand its hash and text to
 * @p insert, which decodes and stores it or returns false with a
 * reason (an empty reason means the key does not hash to the file
 * name). Index lines that are not content hashes, objects that are
 * missing or not regular files, and rejected entries are skipped with
 * a warning and counted in stats.skipped. A missing directory or index
 * is a cold start (true, zero stats); an index of another
 * format/version is a clean error (false + @p error).
 */
bool loadCacheDir(
    const std::string &dir, const CacheDirLayout &layout,
    const std::function<bool(const std::string &hash,
                             const std::string &text, std::string &why)>
        &insert,
    CacheSpillStats &stats, std::string &error);

/**
 * Spill the entries named by @p keys under @p dir (created on demand).
 * Entries already on disk as regular files are kept untouched; the
 * others are written from @p encode(i) to a temp name and rename()d
 * into place. The index is rewritten atomically as the union of
 * @p keys' hashes and the content hashes it already listed, so
 * concurrent savers merge instead of clobbering.
 */
bool saveCacheDir(const std::string &dir, const CacheDirLayout &layout,
                  const std::vector<std::string> &keys,
                  const std::function<std::string(std::size_t)> &encode,
                  CacheSpillStats &stats, std::string &error);

/** One cache kind's layout, eviction counter and payload codec. */
template <typename V>
struct ContentCacheFormat
{
    CacheDirLayout layout;
    const char *evictionCounter; ///< obs counter bumped per eviction
    std::string (*encode)(const std::string &key, const V &value);
    bool (*decode)(const std::string &text, std::string &key, V &value,
                   std::string &error);
};

/**
 * Thread-safe key -> V map with hit/miss statistics, a FIFO entry cap
 * and a content-addressed disk spill (see the file comment). Past the
 * cap the oldest inserted entry is evicted -- a lookup does not
 * refresh an entry -- and counted in evictions() and the format's
 * eviction counter.
 */
template <typename V>
class ContentCache
{
  public:
    ContentCache(const ContentCacheFormat<V> &format, std::size_t capacity)
        : format_(format), capacity_(capacity)
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
            obs::counterAdd(format_.evictionCounter);
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

    /**
     * Load a directory written by saveDir() (see loadCacheDir()).
     * Loaded entries go through store(), so in-memory values win over
     * disk duplicates; the hit/miss statistics are untouched.
     */
    bool
    loadDir(const std::string &dir, CacheSpillStats &stats,
            std::string &error)
    {
        return loadCacheDir(
            dir, format_.layout,
            [this](const std::string &hash, const std::string &text,
                   std::string &why) {
                std::string key;
                V value;
                if (!format_.decode(text, key, value, why) ||
                    cacheContentHash(key) != hash) {
                    return false;
                }
                store(key, std::move(value));
                return true;
            },
            stats, error);
    }

    /** Spill every entry to @p dir (see saveCacheDir()). */
    bool
    saveDir(const std::string &dir, CacheSpillStats &stats,
            std::string &error) const
    {
        auto entries = snapshot();
        std::vector<std::string> keys;
        keys.reserve(entries.size());
        for (const auto &entry : entries)
            keys.push_back(entry.first);
        return saveCacheDir(
            dir, format_.layout, keys,
            [&](std::size_t i) {
                return format_.encode(entries[i].first, entries[i].second);
            },
            stats, error);
    }

  private:
    const ContentCacheFormat<V> format_;
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
