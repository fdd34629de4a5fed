/**
 * @file
 * The single POM version constant. Everything that must agree across a
 * process boundary is stamped with it:
 *
 *  - `pomc --version` / `pomd --version` print it,
 *  - every wire-protocol request/response carries it (the daemon
 *    rejects a mismatched client with a clean error),
 *  - every on-disk node-cache entry and index embeds it (a loader
 *    seeing a different version reports a clean format error instead of
 *    misreading bytes).
 *
 * Bump the version, or the format name below, whenever the wire
 * protocol or the cache entry format changes shape; old daemons and
 * caches then fail loudly rather than corrupt. Reading more leniently
 * is not a change of shape: every reader goes through support/record.h,
 * which takes any exact integral value (`2.0` too) for an integer field.
 */

#ifndef POM_SUPPORT_VERSION_H
#define POM_SUPPORT_VERSION_H

namespace pom::support {

/** The POM release version (also the wire/cache compatibility token). */
inline constexpr char kVersionString[] = "0.7.0";

/** Wire protocol identifier (service/protocol.h frames). */
inline constexpr char kProtocolName[] = "pom-service/1";

/** On-disk per-node report-cache entry/index format identifier. /2:
 *  an entry's body is one JSON record (hls/node_cache.h); /3: a node
 *  key folds each compute's iterator order. */
inline constexpr char kNodeCacheFormatName[] = "pom-node-cache/3";

} // namespace pom::support

#endif // POM_SUPPORT_VERSION_H
