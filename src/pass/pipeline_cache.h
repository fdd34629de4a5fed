/**
 * @file
 * Incremental pass-pipeline caching, layered exactly like
 * hls::EstimatorCache. A pass execution is identified by a *canonical
 * fingerprint* of everything it can observe: the POM version, the pass
 * name and its canonicalized PassOptions, and a byte-stable textual
 * serialization of the whole PipelineState (DSL function incl.
 * partition state and directives, polyhedral statements incl. accesses
 * and hardware annotations, the polyhedral AST print, and the textual
 * IR print). Two pipeline runs whose states coincide up to some pass
 * therefore share that prefix: PassManager::run() looks each cacheable
 * pass up before running it and replays the stored result instead --
 * the longest cached prefix of the pipeline is skipped, and the first
 * diverging pass misses (its input fingerprint differs) and everything
 * after it runs for real.
 *
 * The cache key is a 128-bit streaming FNV-1a digest of the canonical
 * text (support/fnv_stream.h): the serialization writes straight into
 * the hashing streambuf, so hot lookups stop materializing multi-KB
 * key strings (pipelineStateFingerprint() still renders the text for
 * tests and debugging; `pass.fingerprint_ms` tracks hashing cost).
 * The store is the shared support::ContentCache, size-capped (FIFO
 * eviction) and spilling to the same content-addressed `--cache-dir`
 * format as the estimator cache:
 *
 *   <dir>/pipeline.index      list of entry hashes (atomic rewrite)
 *   <dir>/pipeline/<hash>     one entry: full key + payload + stats
 *
 * so pomd warm-starts pipelines across restarts.
 *
 * The cache is disabled by default (process-wide flag); pomc/pom-opt
 * `--pipeline-cache`, pomd, and the benches switch it on. DSE per-point
 * verification opts out thread-locally (PipelineCacheDisableScope) so
 * the oracle always exercises the real pipeline.
 */

#ifndef POM_PASS_PIPELINE_CACHE_H
#define POM_PASS_PIPELINE_CACHE_H

#include <cstdint>
#include <map>
#include <string>

#include "pass/pass.h"
#include "support/cache_store.h"

namespace pom::pass {

/** One cached pass result: replay payload + the recorded execution. */
struct PipelineCacheEntry
{
    /** Replay data; meaning depends on the pass's CachePayloadKind. */
    std::string payload;

    /** The statistics the original run() recorded. */
    std::map<std::string, std::int64_t> statistics;

    /** Wall-clock seconds of the original (uncached) run. */
    double seconds = 0.0;
};

/**
 * Full cache key of one pass execution: a 128-bit digest (32 hex
 * chars) over the version stamp, pass identity (name + canonical
 * options) and the state fingerprint, streamed into the hash without
 * materializing the canonical text. @p funcText, when non-null, stands
 * in for state.func's print (the PassManager passes pending cached IR
 * text so a fingerprint never forces a parse).
 */
std::string passCacheKey(const Pass &pass, const PipelineState &state,
                         const std::string *funcText = nullptr);

/**
 * Write the byte-stable textual serialization of a PipelineState -- the
 * state component of passCacheKey() -- to @p os (which may be a
 * hashing stream).
 */
void pipelineStateFingerprintTo(std::ostream &os,
                                const PipelineState &state,
                                const std::string *funcText = nullptr);

/**
 * The state serialization as a string, for tests and debugging.
 */
std::string
pipelineStateFingerprint(const PipelineState &state,
                         const std::string *funcText = nullptr);

/**
 * Serialize one (key, entry) pair as the on-disk entry format:
 * version-stamped header, length-prefixed key, hexfloat seconds,
 * length-prefixed stats and payload, trailing checksum line.
 */
std::string encodePipelineCacheEntry(const std::string &key,
                                     const PipelineCacheEntry &entry);

/**
 * Parse an entry produced by encodePipelineCacheEntry(). Returns false
 * with a diagnostic in @p error on a version/format mismatch, checksum
 * failure, or any malformed field.
 */
bool decodePipelineCacheEntry(const std::string &text, std::string &key,
                              PipelineCacheEntry &entry,
                              std::string &error);

/**
 * Fingerprint -> PipelineCacheEntry memo (support::ContentCache)
 * spilling to `<dir>/pipeline.index` + `<dir>/pipeline/<hash>`.
 * Capped at 4096 entries by default; evictions count in
 * `pass.cache.evictions`.
 */
class PipelineCache : public support::ContentCache<PipelineCacheEntry>
{
  public:
    PipelineCache();

    /** The process-wide cache PassManager::run() consults. */
    static PipelineCache &global();
};

/** Process-wide switch; off by default (tools/benches opt in). */
void setPipelineCacheEnabled(bool enabled);
bool pipelineCacheEnabled();

/**
 * True when PassManager::run() should consult the cache on this
 * thread: the process-wide switch is on and no disable scope is live.
 */
bool pipelineCacheActive();

/**
 * Thread-local opt-out (RAII): per-point DSE verification and other
 * paths that must exercise the real pipeline wrap themselves in one.
 */
class PipelineCacheDisableScope
{
  public:
    PipelineCacheDisableScope();
    ~PipelineCacheDisableScope();
    PipelineCacheDisableScope(const PipelineCacheDisableScope &) = delete;
    PipelineCacheDisableScope &
    operator=(const PipelineCacheDisableScope &) = delete;

  private:
    bool prev_;
};

} // namespace pom::pass

#endif // POM_PASS_PIPELINE_CACHE_H
