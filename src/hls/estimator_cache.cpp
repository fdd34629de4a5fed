#include "hls/estimator_cache.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/obs.h"
#include "support/cache_store.h"
#include "support/diagnostics.h"
#include "support/fnv_stream.h"
#include "support/string_util.h"
#include "support/version.h"

namespace pom::hls {

namespace {

std::atomic<bool> g_fingerprint_debug_dump{false};

void
writeDesignTail(std::ostream &os, const PartitionPlan &plan,
                const EstimatorOptions &options)
{
    for (const auto &[array, factors] : plan) {
        os << "part " << array << " [";
        for (auto f : factors)
            os << f << ",";
        os << "]\n";
    }
    const Device &d = options.device;
    os << "device dsp=" << d.dsp << " lut=" << d.lut << " ff=" << d.ff
       << " bram=" << d.bramBits << " mhz=" << d.clockMHz << "\n";
    os << "sharing=" << (options.sharing == SharingMode::Reuse ? "reuse"
                                                               : "dataflow")
       << "\n";
    opCostsFingerprintTo(os, options.costs);
}

void
writeDesignFingerprint(std::ostream &os, const std::string &funcDigest,
                       const std::vector<transform::PolyStmt> &stmts,
                       const PartitionPlan &plan,
                       const EstimatorOptions &options)
{
    os << "func\n" << funcDigest << "\n";
    for (const auto &s : stmts)
        scheduleFingerprintTo(os, s);
    writeDesignTail(os, plan, options);
}

/** Wall-clock for the *.fingerprint_ms histograms. */
class FingerprintTimer
{
  public:
    explicit FingerprintTimer(const char *histogram)
        : histogram_(histogram), enabled_(obs::metricsEnabled()),
          t0_(enabled_ ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point())
    {
    }

    ~FingerprintTimer()
    {
        if (enabled_) {
            obs::histogramRecord(
                histogram_, std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0_)
                                .count());
        }
    }

  private:
    const char *histogram_;
    bool enabled_;
    std::chrono::steady_clock::time_point t0_;
};

} // namespace

void
setFingerprintDebugDump(bool enabled)
{
    g_fingerprint_debug_dump.store(enabled, std::memory_order_relaxed);
}

bool
fingerprintDebugDump()
{
    return g_fingerprint_debug_dump.load(std::memory_order_relaxed);
}

void
scheduleFingerprintTo(std::ostream &os, const transform::PolyStmt &s)
{
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
}

std::string
stmtScheduleFragment(const transform::PolyStmt &stmt)
{
    std::ostringstream os;
    scheduleFingerprintTo(os, stmt);
    return os.str();
}

std::string
scheduleFingerprint(const std::vector<transform::PolyStmt> &stmts)
{
    std::ostringstream os;
    for (const auto &s : stmts)
        scheduleFingerprintTo(os, s);
    return os.str();
}

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

std::string
designFingerprintText(const std::string &funcDigest,
                      const std::vector<transform::PolyStmt> &stmts,
                      const PartitionPlan &plan,
                      const EstimatorOptions &options)
{
    std::ostringstream os;
    writeDesignFingerprint(os, funcDigest, stmts, plan, options);
    return os.str();
}

std::string
designFingerprint(const std::string &funcDigest,
                  const std::vector<transform::PolyStmt> &stmts,
                  const PartitionPlan &plan,
                  const EstimatorOptions &options)
{
    FingerprintTimer timer("dse.fingerprint_ms");
    support::FnvHashStream hash;
    writeDesignFingerprint(hash.out(), funcDigest, stmts, plan, options);
    if (fingerprintDebugDump()) {
        support::diag(support::DiagLevel::Debug,
                      "design fingerprint " + hash.digest() + ":\n" +
                          designFingerprintText(funcDigest, stmts, plan,
                                                options));
    }
    return hash.digest();
}

std::string
designFingerprintFragments(
    const std::string &funcDigest,
    const std::vector<const std::string *> &stmtFragments,
    const PartitionPlan &plan, const EstimatorOptions &options)
{
    FingerprintTimer timer("dse.fingerprint_ms");
    support::FnvHashStream hash;
    std::ostream &os = hash.out();
    os << "func\n" << funcDigest << "\n";
    for (const std::string *fragment : stmtFragments)
        os << *fragment;
    writeDesignTail(os, plan, options);
    return hash.digest();
}

// ----- on-disk spill format ----------------------------------------------
//
// The container conventions (version-stamped header, FNV-1a checksum
// line, atomic writes, content-hash index) live in support/cache_store;
// this file only encodes/decodes the SynthesisReport payload.

std::string
cacheEntryHash(const std::string &key)
{
    return support::cacheContentHash(key);
}

std::string
encodeCacheEntry(const std::string &key, const SynthesisReport &report)
{
    std::ostringstream os;
    os << support::cacheFormatHeader(support::kCacheFormatName);
    os << "key " << key.size() << "\n" << key << "\n";
    char power[64];
    std::snprintf(power, sizeof(power), "%a", report.powerW);
    os << "report latency=" << report.latencyCycles
       << " dsp=" << report.resources.dsp
       << " lut=" << report.resources.lut
       << " ff=" << report.resources.ff
       << " bram=" << report.resources.bramBits << " power=" << power
       << "\n";
    os << "loops " << report.loops.size() << "\n";
    for (const auto &l : report.loops) {
        os << "loop " << l.iterName.size() << ":" << l.iterName
           << " trip=" << l.trip
           << " target=" << (l.targetII ? std::to_string(*l.targetII)
                                        : std::string("none"))
           << " achieved=" << l.achievedII << " latency=" << l.latency
           << " rec=" << l.recMII << " res=" << l.resMII << "\n";
    }
    os << "nests " << report.nestLatencies.size() << "\n";
    for (const auto &[name, cycles] : report.nestLatencies)
        os << "nest " << name.size() << ":" << name << " " << cycles
           << "\n";
    return support::sealCacheEntry(os.str());
}

bool
decodeCacheEntry(const std::string &text, std::string &key,
                 SynthesisReport &report, std::string &error)
{
    error.clear();
    report = SynthesisReport();

    std::size_t body = 0;
    if (!support::openCacheEntry(text, support::kCacheFormatName, body,
                                 error)) {
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

    if (!r.line(ln) || ln.rfind("report ", 0) != 0)
        return fail("missing report line");
    char power[64] = {0};
    unsigned long long latency = 0;
    long long bram = 0;
    if (std::sscanf(ln.c_str(),
                    "report latency=%llu dsp=%d lut=%d ff=%d "
                    "bram=%lld power=%63s",
                    &latency, &report.resources.dsp,
                    &report.resources.lut, &report.resources.ff, &bram,
                    power) != 6) {
        return fail("malformed report line");
    }
    report.latencyCycles = latency;
    report.resources.bramBits = bram;
    char *end = nullptr;
    report.powerW = std::strtod(power, &end);
    if (end == nullptr || *end != '\0')
        return fail("malformed power value");

    std::uint64_t count = 0;
    if (!r.line(ln) || !support::scanU64(ln, "loops %" SCNu64, count))
        return fail("missing loops count");
    if (count > 1000000)
        return fail("implausible loop count");
    for (std::uint64_t i = 0; i < count; ++i) {
        if (!r.line(ln) || ln.rfind("loop ", 0) != 0)
            return fail("missing loop line");
        LoopReport loop;
        std::string tail;
        if (!support::splitNamed(ln.substr(5), loop.iterName, tail))
            return fail("malformed loop name");
        char target[32] = {0};
        long long trip = 0;
        unsigned long long lat = 0;
        if (std::sscanf(tail.c_str(),
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
        report.loops.push_back(std::move(loop));
    }

    if (!r.line(ln) || !support::scanU64(ln, "nests %" SCNu64, count))
        return fail("missing nests count");
    if (count > 1000000)
        return fail("implausible nest count");
    for (std::uint64_t i = 0; i < count; ++i) {
        if (!r.line(ln) || ln.rfind("nest ", 0) != 0)
            return fail("missing nest line");
        std::string name, tail;
        if (!support::splitNamed(ln.substr(5), name, tail))
            return fail("malformed nest name");
        unsigned long long cycles = 0;
        if (std::sscanf(tail.c_str(), " %llu", &cycles) != 1)
            return fail("malformed nest latency");
        report.nestLatencies.emplace_back(std::move(name), cycles);
    }
    return true;
}

EstimatorCache::EstimatorCache()
    : ContentCache({{support::kCacheFormatName, "index", "objects",
                     "cache entry"},
                    "dse.cache.evictions",
                    encodeCacheEntry,
                    decodeCacheEntry})
{}

EstimatorCache &
EstimatorCache::global()
{
    static EstimatorCache *cache = new EstimatorCache();
    return *cache;
}

} // namespace pom::hls
