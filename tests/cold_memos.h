/**
 * @file
 * How a test starts a search on cold caches: empty every process-wide
 * memo a search reads, so that it does all of its own work.
 */

#ifndef POM_TESTS_COLD_MEMOS_H
#define POM_TESTS_COLD_MEMOS_H

#include "hls/count.h"
#include "hls/node_cache.h"
#include "transform/poly_stmt.h"

namespace pom::cold {

/**
 * Empty the node-report cache, both dependence memos and the
 * trip-count memo, and reset their statistics.
 */
inline void
clearProcessMemos()
{
    hls::NodeReportCache::global().clear();
    transform::clearDependenceMemo();
    hls::clearTripMemo();
}

} // namespace pom::cold

#endif // POM_TESTS_COLD_MEMOS_H
