/**
 * @file
 * Shared helpers for the paper-table reproduction harnesses: framework
 * runners, utilization formatting, and schedule-shape extraction
 * (tile/unroll factors and parallelism degree) from lowered designs.
 */

#ifndef POM_BENCHUTIL_H
#define POM_BENCHUTIL_H

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "hls/count.h"
#include "workloads/workloads.h"

namespace pom::benchutil {

/** "166 (75%)" style resource cell. */
inline std::string
util(int used, int total)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%d (%d%%)", used,
                  total > 0 ? 100 * used / total : 0);
    return buf;
}

/** "6.46x" style speedup cell. */
inline std::string
speedupCell(double s)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1fx", s);
    return buf;
}

/**
 * Unroll copies per statement of a design: the trip counts of every
 * fully/partially unrolled loop, e.g. "[1, 2, 16]" per nest -- the
 * paper's "achieved tile sizes and unroll factors" column.
 */
inline std::string
tileShape(const lower::LoweredFunction &design)
{
    std::string out;
    for (const auto &stmt : design.stmts) {
        auto trips = hls::avgTrips(stmt.sched.domain);
        std::vector<std::int64_t> copies;
        for (size_t l = 0; l < stmt.numDims(); ++l) {
            std::int64_t u = stmt.sched.hwPerDim[l].unrollFactor;
            if (u == 1)
                continue;
            copies.push_back(u == 0 ? trips[l] : std::min(u, trips[l]));
        }
        if (copies.empty())
            copies.push_back(1);
        if (!out.empty())
            out += ", ";
        out += "[";
        for (size_t i = 0; i < copies.size(); ++i) {
            if (i)
                out += ", ";
            out += std::to_string(copies[i]);
        }
        out += "]";
    }
    return out;
}

/** Total spatial parallelism / achieved II of a design. */
inline double
parallelismDegree(const lower::LoweredFunction &design,
                  const hls::SynthesisReport &report)
{
    std::int64_t max_copies = 1;
    for (const auto &stmt : design.stmts) {
        auto trips = hls::avgTrips(stmt.sched.domain);
        std::int64_t copies = 1;
        for (size_t l = 0; l < stmt.numDims(); ++l) {
            std::int64_t u = stmt.sched.hwPerDim[l].unrollFactor;
            if (u == 1)
                continue;
            copies *= (u == 0 ? trips[l] : std::min(u, trips[l]));
        }
        max_copies = std::max(max_copies, copies);
    }
    int ii = report.worstII();
    return static_cast<double>(max_copies) / (ii > 0 ? ii : 1);
}

/** Achieved-II cell like "1" or "4, 1" (per pipelined loop). */
inline std::string
iiCell(const hls::SynthesisReport &report)
{
    if (report.loops.empty())
        return "-";
    std::string out;
    for (size_t i = 0; i < report.loops.size() && i < 4; ++i) {
        if (i)
            out += ", ";
        out += std::to_string(report.loops[i].achievedII);
    }
    if (report.loops.size() > 4)
        out += ", ...";
    return out;
}

} // namespace pom::benchutil

#endif // POM_BENCHUTIL_H
