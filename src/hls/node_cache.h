/**
 * @file
 * Process-wide memo of per-node synthesis reports (hls::NodeReport)
 * keyed by a *per-node fingerprint*. This is what makes stage-2 DSE
 * candidate evaluation cost proportional to what changed: the search
 * doubles one unit's parallelism per step, so every other unit's
 * schedule -- and therefore its NodeReport -- recurs and is served
 * from here instead of being re-lowered and re-estimated.
 *
 * The key digests exactly what a NodeReport depends on:
 *
 *   - the function digest (array shapes + statement bodies),
 *   - the unit's member schedule fragments (stmtScheduleFragment()),
 *   - the effective banking (banks, complete) of every array the unit
 *     accesses under the candidate's partition plan,
 *   - the operator cost table.
 *
 * Deliberately absent: the device budget, the sharing mode, and other
 * units' schedules -- a node's latency/compute resources depend on
 * none of them (the combiner applies device/sharing), so one cached
 * node serves every candidate, strategy, and resource fraction that
 * keeps the node's schedule. Content addressing also dedupes distinct
 * parallelism degrees that clamp to the same schedule.
 *
 * Every DSE design point, the final one included, is composed from
 * these reports. The store is a support::ContentCache with a fixed
 * FIFO cap (kNodeCacheCap) that bounds it in long-lived daemons, and
 * this module alone owns its one on-disk spill, `--cache-dir`:
 *
 *   <dir>/nodes.index         list of entry hashes (atomic rewrite)
 *   <dir>/nodes/<hash>        one entry: full key + node reports
 *
 * An entry is three parts: the stamp line, one JSON record
 * {"key": ..., "nodes": [{"nest", "latency_cycles", "dsp", "lut", "ff",
 * "bram_bits", "loops": [{"iter", "trip", "target_ii" (null or n),
 * "achieved_ii", "latency_cycles", "rec_mii", "res_mii"}]}]} written and
 * read through the field tables of support/record.h, and the checksum
 * line. A value of the wrong type or out of its field's range (a
 * negative latency, a DSP count past INT_MAX) fails the entry like a
 * bad checksum does.
 *
 * The spill follows these conventions:
 *
 *  - FNV-1a-64 content hashes of the keys, printed as 16 lowercase hex
 *    digits, which are also the only index lines a load accepts
 *    (anything else, and any object that is not a regular file, is
 *    skipped with a warning -- an index line can never name another
 *    path),
 *  - a first line "pom-node-cache/3 <version>" stamping every entry
 *    and the index (a mismatch is a clean load error, never misread
 *    bytes),
 *  - a trailing "sum <hex16>" checksum line over the entry body (a
 *    corrupt entry is skipped with a warning, the rest still load),
 *  - full-key storage inside each entry so a hash collision can never
 *    alias two keys,
 *  - atomic temp-file + rename() writes so a crash mid-save leaves no
 *    torn files, and an index that merges with whatever a concurrent
 *    saver already wrote.
 */

#ifndef POM_HLS_NODE_CACHE_H
#define POM_HLS_NODE_CACHE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hls/estimator.h"
#include "support/cache_store.h"

namespace pom::hls {

/** One statement's canonical schedule text: a node-key fragment. */
std::string stmtScheduleFragment(const transform::PolyStmt &stmt);

/**
 * A per-node fingerprint under construction. The key is a 128-bit
 * digest (32 hex chars): two FNV-1a-64 states, seeded differently, over
 * one text -- the node-cache format stamp, the function digest, the
 * unit's member schedule fragments (statement order), one banking line
 * per array the unit accesses (array-name order) and the cost-table
 * line. FNV-1a folds bytes strictly in order, so the text can be folded
 * in pieces, each where it becomes fixed, and the key is bit-identical
 * to hashing the whole text at once:
 *
 *   - ofFunction(): the stamp and the function digest, once per search;
 *   - addSchedule(): each member's fragment, once per unit schedule;
 *   - addBanking() and finish(): per design point, only the bankings
 *     and the cost line (opCostsLine(), rendered once per search).
 */
class NodeKey
{
  public:
    /** A key that has folded nothing yet. */
    NodeKey() = default;

    /** A key that has folded the format stamp and @p funcDigest. */
    static NodeKey ofFunction(const std::string &funcDigest);

    /** Fold @p stmt's schedule fragment (stmtScheduleFragment()). */
    void addSchedule(const transform::PolyStmt &stmt);

    /** Fold the banking line of @p array. */
    void addBanking(const std::string &array, const ArrayBanking &banking);

    /** Fold @p text as is: a key built on this one (the DSE's
     *  schedule-memo key) adds what the node key does not read. */
    void addText(std::string_view text) { fold(text); }

    /** The 32-hex key after folding @p costLine (opCostsLine()). */
    std::string finish(const std::string &costLine) const;

  private:
    void fold(std::string_view bytes);

    std::uint64_t lo_ = support::kFnvOffset64;
    /** The high word of the FNV-1a-128 basis: any constant distinct
     *  from lo_'s makes a 128-bit collision of two texts implausible. */
    std::uint64_t hi_ = 0x6c62272e07bb0142ull;
};

/**
 * The cost table's line of the node-key text; the search folds
 * opCostsLine(kOpCosts), the table the estimator reads, so an edit to
 * the table misses every spilled entry.
 */
std::string opCostsLine(const OpCosts &costs);

/** Serialize one (key, reports) pair as the on-disk entry format. */
std::string encodeNodeCacheEntry(const std::string &key,
                                 const std::vector<NodeReport> &nodes);

/** Parse an entry produced by encodeNodeCacheEntry(); false with
 *  @p error on a bad stamp or checksum, malformed JSON, or a field of
 *  the wrong type or range (the error names the field). */
bool decodeNodeCacheEntry(const std::string &text, std::string &key,
                          std::vector<NodeReport> &nodes,
                          std::string &error);

/**
 * Entry cap of the node cache. A cold 18-workload sweep stores 611
 * entries under greedy and 1968 under greedy, beam and anneal together,
 * and an entry spills to well under 1 KB, so the cap never evicts
 * within a sweep; it only bounds a long-lived daemon that serves many
 * workloads and sizes (to some 16 MB).
 */
inline constexpr std::size_t kNodeCacheCap = 16384;

/**
 * Fingerprint -> NodeReport-list memo (support::ContentCache) spilling
 * to `<dir>/nodes.index` + `<dir>/nodes/<hash>`. FIFO evictions past
 * the capacity count in `dse.node_cache.evictions`.
 */
class NodeReportCache
    : public support::ContentCache<std::vector<NodeReport>>
{
  public:
    explicit NodeReportCache(std::size_t capacity = kNodeCacheCap);

    /** The process-wide cache the DSE engine uses. */
    static NodeReportCache &global();

    /**
     * Read every entry indexed under @p dir into the cache through
     * store(), so in-memory values win over disk duplicates; the
     * hit/miss statistics are untouched. Index lines that are not
     * content hashes, objects that are missing or not regular files,
     * and entries that fail to decode or whose key does not hash to
     * the file name are skipped with a warning and counted in
     * stats.skipped. A missing directory or index is a cold start
     * (true, zero stats); an index of another format/version is a
     * clean error (false + @p error).
     */
    bool loadDir(const std::string &dir, support::CacheSpillStats &stats,
                 std::string &error);

    /**
     * Spill every entry under @p dir (created on demand). Entries
     * already on disk as regular files are kept untouched; the others
     * are written to a temp name and rename()d into place. The index is
     * rewritten atomically as the union of the entries' hashes and the
     * content hashes it already listed, so concurrent savers merge
     * instead of clobbering.
     */
    bool saveDir(const std::string &dir, support::CacheSpillStats &stats,
                 std::string &error) const;
};

} // namespace pom::hls

#endif // POM_HLS_NODE_CACHE_H
