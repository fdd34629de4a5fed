#include "hls/node_cache.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "support/string_util.h"
#include "support/version.h"

namespace pom::hls {

namespace {

/** Offset basis of the second FNV-1a-64 state of a node key: the high
 *  word of the FNV-1a-128 basis (any constant distinct from
 *  support::kFnvOffset64 makes an accidental 128-bit collision between
 *  two distinct key texts implausible). */
constexpr std::uint64_t kFnvAltOffset64 = 0x6c62272e07bb0142ull;

void
opCostsFingerprintTo(std::ostream &os, const OpCosts &c)
{
    os << "costs " << c.faddLat << " " << c.fmulLat << " " << c.fdivLat
       << " " << c.fcmpLat << " " << c.iaddLat << " " << c.imulLat << " "
       << c.loadLat << " " << c.storeLat << " " << c.faddDsp << " "
       << c.faddLut << " " << c.faddFf << " " << c.fmulDsp << " "
       << c.fmulLut << " " << c.fmulFf << " " << c.fdivDsp << " "
       << c.fdivLut << " " << c.fdivFf << " " << c.fcmpDsp << " "
       << c.fcmpLut << " " << c.fcmpFf << " " << c.iaddDsp << " "
       << c.iaddLut << " " << c.iaddFf << " " << c.imulDsp << " "
       << c.imulLut << " " << c.imulFf << " " << c.loopCtrlLut << " "
       << c.loopCtrlFf << " " << c.bankMuxLut << " "
       << c.pipelineRegFfPerCopy << "\n";
}

} // namespace

std::string
stmtScheduleFragment(const transform::PolyStmt &s)
{
    std::ostringstream os;
    os << "stmt " << s.sched.name << "\n";
    os << " domain " << s.sched.domain.str() << "\n";
    os << " betas";
    for (auto b : s.sched.betas)
        os << " " << b;
    os << "\n orig " << s.sched.origMap.str() << "\n";
    for (size_t l = 0; l < s.sched.hwPerDim.size(); ++l) {
        const auto &hw = s.sched.hwPerDim[l];
        if (!hw.pipelineII && hw.unrollFactor == 1 &&
            hw.independentArrays.empty()) {
            continue;
        }
        os << " hw " << l << " ii="
           << (hw.pipelineII ? *hw.pipelineII : -1)
           << " unroll=" << hw.unrollFactor << " indep=";
        for (const auto &a : hw.independentArrays)
            os << a << ",";
        os << "\n";
    }
    return os.str();
}

std::string
nodeFingerprint(const std::string &funcDigest,
                const std::vector<const std::string *> &memberFragments,
                const std::vector<NodeArrayBanking> &arrays,
                const OpCosts &costs)
{
    std::ostringstream os;
    os << support::cacheFormatHeader(support::kNodeCacheFormatName);
    os << "func\n" << funcDigest << "\n";
    for (const std::string *fragment : memberFragments)
        os << *fragment;
    for (const auto &a : arrays) {
        os << "arr " << a.array << " banks=" << a.banks
           << " complete=" << (a.complete ? 1 : 0) << "\n";
    }
    opCostsFingerprintTo(os, costs);
    const std::string text = os.str();
    return support::hex16(support::fnv1a64(text.data(), text.size())) +
           support::hex16(
               support::fnv1a64(text.data(), text.size(), kFnvAltOffset64));
}

// ----- on-disk spill format ----------------------------------------------

std::string
encodeNodeCacheEntry(const std::string &key,
                     const std::vector<NodeReport> &nodes)
{
    std::ostringstream os;
    os << support::cacheFormatHeader(support::kNodeCacheFormatName);
    os << "key " << key.size() << "\n" << key << "\n";
    os << "nodes " << nodes.size() << "\n";
    for (const auto &n : nodes) {
        os << "node " << n.nest.size() << ":" << n.nest
           << " latency=" << n.latencyCycles
           << " dsp=" << n.resources.dsp << " lut=" << n.resources.lut
           << " ff=" << n.resources.ff
           << " bram=" << n.resources.bramBits << "\n";
        os << "loops " << n.loops.size() << "\n";
        for (const auto &l : n.loops) {
            os << "loop " << l.iterName.size() << ":" << l.iterName
               << " trip=" << l.trip
               << " target=" << (l.targetII ? std::to_string(*l.targetII)
                                            : std::string("none"))
               << " achieved=" << l.achievedII << " latency=" << l.latency
               << " rec=" << l.recMII << " res=" << l.resMII << "\n";
        }
    }
    return support::sealCacheEntry(os.str());
}

bool
decodeNodeCacheEntry(const std::string &text, std::string &key,
                     std::vector<NodeReport> &nodes, std::string &error)
{
    error.clear();
    nodes.clear();

    std::size_t body = 0;
    if (!support::openCacheEntry(text, support::kNodeCacheFormatName,
                                 body, error)) {
        return false;
    }

    support::CacheEntryReader r{text, body};
    std::string ln;
    auto fail = [&](const std::string &what) {
        error = r.error.empty() ? what : r.error;
        return false;
    };

    if (!r.line(ln) || ln.rfind("key ", 0) != 0)
        return fail("missing key line");
    std::int64_t key_len = 0;
    if (!support::parseInt64(ln.substr(4), key_len) || key_len < 0)
        return fail("malformed key length");
    if (!r.raw(static_cast<std::size_t>(key_len), key))
        return fail("truncated key");

    std::uint64_t node_count = 0;
    if (!r.line(ln) || !support::scanU64(ln, "nodes %" SCNu64, node_count))
        return fail("missing nodes count");
    if (node_count > 1000000)
        return fail("implausible node count");
    for (std::uint64_t i = 0; i < node_count; ++i) {
        if (!r.line(ln) || ln.rfind("node ", 0) != 0)
            return fail("missing node line");
        NodeReport node;
        std::string tail;
        if (!support::splitNamed(ln.substr(5), node.nest, tail))
            return fail("malformed node name");
        unsigned long long latency = 0;
        long long bram = 0;
        if (std::sscanf(tail.c_str(),
                        " latency=%llu dsp=%d lut=%d ff=%d bram=%lld",
                        &latency, &node.resources.dsp,
                        &node.resources.lut, &node.resources.ff,
                        &bram) != 5) {
            return fail("malformed node line");
        }
        node.latencyCycles = latency;
        node.resources.bramBits = bram;

        std::uint64_t loop_count = 0;
        if (!r.line(ln) ||
            !support::scanU64(ln, "loops %" SCNu64, loop_count)) {
            return fail("missing loops count");
        }
        if (loop_count > 1000000)
            return fail("implausible loop count");
        for (std::uint64_t j = 0; j < loop_count; ++j) {
            if (!r.line(ln) || ln.rfind("loop ", 0) != 0)
                return fail("missing loop line");
            LoopReport loop;
            std::string loop_tail;
            if (!support::splitNamed(ln.substr(5), loop.iterName,
                                     loop_tail)) {
                return fail("malformed loop name");
            }
            char target[32] = {0};
            long long trip = 0;
            unsigned long long lat = 0;
            if (std::sscanf(loop_tail.c_str(),
                            " trip=%lld target=%31s achieved=%d "
                            "latency=%llu rec=%d res=%d",
                            &trip, target, &loop.achievedII, &lat,
                            &loop.recMII, &loop.resMII) != 6) {
                return fail("malformed loop line");
            }
            loop.trip = trip;
            loop.latency = lat;
            if (std::string(target) != "none") {
                std::int64_t t = 0;
                if (!support::parseInt64(target, t))
                    return fail("malformed target II");
                loop.targetII = static_cast<int>(t);
            }
            node.loops.push_back(std::move(loop));
        }
        nodes.push_back(std::move(node));
    }
    return true;
}

NodeReportCache::NodeReportCache(std::size_t capacity)
    : ContentCache({{support::kNodeCacheFormatName, "nodes.index", "nodes",
                     "node-cache entry"},
                    "dse.node_cache.evictions",
                    encodeNodeCacheEntry,
                    decodeNodeCacheEntry},
                   capacity)
{}

NodeReportCache &
NodeReportCache::global()
{
    static NodeReportCache *cache = new NodeReportCache();
    return *cache;
}

} // namespace pom::hls
