/**
 * @file
 * Memoization in front of hls::estimate for the DSE hot path. A design
 * point is identified by a *canonical schedule fingerprint*: a textual
 * serialization of every statement's transformed iteration domain,
 * schedule betas, origin map and per-loop hardware annotations, plus
 * the candidate's array-partition plan, the estimator configuration and
 * a caller-provided digest of the function itself (shapes + bodies +
 * user directives, e.g. driver::renderDsl). Two candidates produced by
 * *different primitive sequences* that land on the same transformed
 * schedule therefore share one estimate, and re-materializing a design
 * (the final DSE point, --replay-journal, a warm bench re-run) skips
 * the estimator entirely.
 *
 * The cache key is a 128-bit streaming FNV-1a digest of the canonical
 * text: the serialization operators write straight into a hashing
 * std::streambuf (support/fnv_stream.h), so the hot path never
 * materializes the multi-KB canonical string. The textual form is
 * still available (designFingerprintText(), or globally via
 * setFingerprintDebugDump()) for auditing what was hashed. The cache
 * is process-wide and thread-safe; the DSE engine feeds it from its
 * worker pool. Reports are small (a few hundred bytes); an optional
 * FIFO capacity (setCapacity(), `pomd --estimator-cache-cap`) bounds
 * long-lived daemons, and clear() exists for cold-run benchmarks.
 *
 * Persistence (`pomc --cache-dir`, the pomd daemon's warm-start) uses
 * the shared content-addressed spill of support/cache_store.h:
 *
 *   <dir>/index            list of entry hashes (atomic rewrite)
 *   <dir>/objects/<hash>   one entry: full key + serialized report
 *
 * stamped with support::kCacheFormatName; only the SynthesisReport
 * payload codec lives here.
 */

#ifndef POM_HLS_ESTIMATOR_CACHE_H
#define POM_HLS_ESTIMATOR_CACHE_H

#include <ostream>
#include <string>

#include "hls/estimator.h"
#include "support/cache_store.h"

namespace pom::hls {

/**
 * Write one statement's canonical schedule text (name, domain, betas,
 * origin map, hardware annotations) to @p os. The unit of every
 * fingerprint below; also what the DSE's per-unit memo stores so a
 * whole-design digest can be rebuilt from unchanged fragments.
 */
void scheduleFingerprintTo(std::ostream &os,
                           const transform::PolyStmt &stmt);

/** One statement's canonical schedule text as a string. */
std::string stmtScheduleFragment(const transform::PolyStmt &stmt);

/**
 * Canonical text of the transformed schedules: per statement the name,
 * domain, betas, origin map and hardware annotations, in statement
 * order. This is the schedule part of a design-point fingerprint; it is
 * also a useful debugging dump on its own.
 */
std::string
scheduleFingerprint(const std::vector<transform::PolyStmt> &stmts);

/** Write the canonical "costs ..." line of @p costs to @p os. */
void opCostsFingerprintTo(std::ostream &os, const OpCosts &costs);

/**
 * Full design-point fingerprint: a 128-bit digest (32 hex chars) over
 * the canonical text formed by @p funcDigest (any canonical rendering
 * of the function, stable across candidates of one search), the
 * schedule fingerprint of @p stmts, the partition plan and the
 * estimator options (device, sharing mode, operator costs). Streams
 * into the hash -- no canonical string is materialized. Records a
 * `dse.fingerprint_ms` histogram sample when metrics are enabled and
 * dumps the canonical text at Debug level when
 * setFingerprintDebugDump(true) is active.
 */
std::string
designFingerprint(const std::string &funcDigest,
                  const std::vector<transform::PolyStmt> &stmts,
                  const PartitionPlan &plan,
                  const EstimatorOptions &options);

/**
 * Same digest as designFingerprint(), but the per-statement schedule
 * text comes from precomputed fragments (stmtScheduleFragment()) in
 * statement order. The DSE's incremental path uses this to rebuild a
 * whole-design key from memoized per-unit fragments; byte-equal input
 * text guarantees the digests match the monolithic builder's.
 */
std::string designFingerprintFragments(
    const std::string &funcDigest,
    const std::vector<const std::string *> &stmtFragments,
    const PartitionPlan &plan, const EstimatorOptions &options);

/**
 * The full canonical design-point text (what designFingerprint()
 * hashes), for debugging and the differential tests.
 */
std::string
designFingerprintText(const std::string &funcDigest,
                      const std::vector<transform::PolyStmt> &stmts,
                      const PartitionPlan &plan,
                      const EstimatorOptions &options);

/**
 * When enabled, every designFingerprint() call also renders the
 * canonical text and emits it as a Debug diagnostic (visible with -v).
 * Costs what the streaming path saves; off by default.
 */
void setFingerprintDebugDump(bool enabled);
bool fingerprintDebugDump();

/** Content address of one cache entry: FNV-1a-64 of @p key, 16 hex. */
std::string cacheEntryHash(const std::string &key);

/**
 * Serialize one (key, report) pair as the on-disk entry format:
 * version-stamped header, length-prefixed key, every SynthesisReport
 * field (doubles in hexfloat, so the round-trip is bit-exact), and a
 * trailing checksum line.
 */
std::string encodeCacheEntry(const std::string &key,
                             const SynthesisReport &report);

/**
 * Parse an entry produced by encodeCacheEntry(). Returns false with a
 * diagnostic in @p error on a version/format mismatch, a checksum
 * failure, or any malformed field; @p key and @p report are only valid
 * on success.
 */
bool decodeCacheEntry(const std::string &text, std::string &key,
                      SynthesisReport &report, std::string &error);

/**
 * Fingerprint -> SynthesisReport memo (support::ContentCache) spilling
 * to `<dir>/index` + `<dir>/objects/<hash>`. Unbounded by default;
 * evictions past setCapacity() count in `dse.cache.evictions`.
 */
class EstimatorCache : public support::ContentCache<SynthesisReport>
{
  public:
    EstimatorCache();

    /** The process-wide cache the DSE engine uses. */
    static EstimatorCache &global();
};

} // namespace pom::hls

#endif // POM_HLS_ESTIMATOR_CACHE_H
