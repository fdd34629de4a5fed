#include "pass/pipeline_cache.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "dsl/dsl.h"
#include "obs/obs.h"
#include "support/fnv_stream.h"
#include "support/string_util.h"
#include "support/version.h"

namespace pom::pass {

// ----- fingerprints ------------------------------------------------------

namespace {

const char *
directiveKindName(dsl::Directive::Kind kind)
{
    switch (kind) {
    case dsl::Directive::Kind::Interchange: return "interchange";
    case dsl::Directive::Kind::Split: return "split";
    case dsl::Directive::Kind::Tile: return "tile";
    case dsl::Directive::Kind::Skew: return "skew";
    case dsl::Directive::Kind::After: return "after";
    case dsl::Directive::Kind::Fuse: return "fuse";
    case dsl::Directive::Kind::Pipeline: return "pipeline";
    case dsl::Directive::Kind::Unroll: return "unroll";
    }
    return "?";
}

/**
 * Everything a lowering pass can observe in the DSL function: name,
 * placeholder shapes/types *and partition state* (ast-to-affine turns
 * partition factors into fn attributes, and DSE materialization
 * mutates them between runs), compute expressions and their recorded
 * scheduling directives.
 */
void
dslFingerprint(const dsl::Function &func, std::ostream &os)
{
    os << "fn " << func.name() << "\n";
    for (const dsl::Placeholder *p : func.placeholders()) {
        os << "ph " << p->name() << " t="
           << static_cast<int>(p->elementType()) << " [";
        for (auto d : p->shape())
            os << d << ",";
        os << "] part=[";
        for (auto f : p->partitionFactors())
            os << f << ",";
        os << "]" << p->partitionKind() << "\n";
    }
    for (const dsl::Compute *c : func.computes()) {
        os << "st " << c->name() << " iters=[";
        for (const auto &v : c->iters())
            os << v.name() << ":" << v.lo() << ":" << v.hi() << ",";
        os << "] " << c->dest().str() << " := " << c->rhs().str()
           << "\n";
        for (const auto &d : c->directives()) {
            os << " dir " << directiveKindName(d.kind) << " vars=[";
            for (const auto &v : d.vars)
                os << v << ",";
            os << "] factors=[";
            for (auto f : d.factors)
                os << f << ",";
            os << "] new=[";
            for (const auto &v : d.newVars)
                os << v << ",";
            os << "] other="
               << (d.other != nullptr ? d.other->name() : std::string("-"))
               << "\n";
        }
    }
}

/** Complete per-statement serialization (schedule + accesses + body). */
void
stmtsFingerprint(const std::vector<transform::PolyStmt> &stmts,
                 std::ostream &os)
{
    for (const auto &s : stmts) {
        os << "stmt " << s.sched.name << "\n";
        os << " domain " << s.sched.domain.str() << "\n";
        os << " betas";
        for (auto b : s.sched.betas)
            os << " " << b;
        os << "\n orig " << s.sched.origMap.str() << "\n";
        for (size_t l = 0; l < s.sched.hwPerDim.size(); ++l) {
            const auto &hw = s.sched.hwPerDim[l];
            os << " hw " << l << " ii="
               << (hw.pipelineII ? *hw.pipelineII : -1)
               << " unroll=" << hw.unrollFactor << " indep=";
            for (const auto &a : hw.independentArrays)
                os << a << ",";
            os << "\n";
        }
        for (const auto &a : s.accesses) {
            os << " acc " << a.array << " w=" << (a.isWrite ? 1 : 0)
               << " " << a.map.str() << "\n";
        }
        os << " src "
           << (s.source != nullptr ? s.source->name() : std::string("-"))
           << "\n";
    }
}

} // namespace

void
pipelineStateFingerprintTo(std::ostream &os, const PipelineState &state,
                           const std::string *funcText)
{
    if (state.dslFunc != nullptr) {
        os << "dsl\n";
        dslFingerprint(*state.dslFunc, os);
    } else {
        os << "dsl-none\n";
    }
    os << "stmts " << state.stmts.size() << "\n";
    stmtsFingerprint(state.stmts, os);
    if (state.astRoot) {
        os << "ast\n" << state.astRoot->str() << "\n";
    } else {
        os << "ast-none\n";
    }
    if (funcText != nullptr && !funcText->empty()) {
        os << "ir " << funcText->size() << "\n" << *funcText << "\n";
    } else if (funcText == nullptr && state.func != nullptr) {
        std::string text = state.func->str();
        os << "ir " << text.size() << "\n" << text << "\n";
    } else {
        os << "ir-none\n";
    }
}

std::string
pipelineStateFingerprint(const PipelineState &state,
                         const std::string *funcText)
{
    std::ostringstream os;
    pipelineStateFingerprintTo(os, state, funcText);
    return os.str();
}

std::string
passCacheKey(const Pass &pass, const PipelineState &state,
             const std::string *funcText)
{
    auto t0 = obs::metricsEnabled()
                  ? std::chrono::steady_clock::now()
                  : std::chrono::steady_clock::time_point();
    support::FnvHashStream hash;
    std::ostream &os = hash.out();
    // The version stamp makes keys from another POM release miss
    // instead of replaying a stale result (on-disk entries are
    // additionally header-stamped).
    os << support::kPipelineCacheFormatName << " "
       << support::kVersionString << "\n";
    os << "pass " << pass.name() << "\n";
    for (const auto &[key, value] : pass.cacheOptions())
        os << "opt " << key << "=" << value << "\n";
    pipelineStateFingerprintTo(os, state, funcText);
    if (obs::metricsEnabled()) {
        obs::histogramRecord(
            "pass.fingerprint_ms",
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }
    return hash.digest();
}

// ----- on-disk entry format ----------------------------------------------

std::string
encodePipelineCacheEntry(const std::string &key,
                         const PipelineCacheEntry &entry)
{
    std::ostringstream os;
    os << support::cacheFormatHeader(support::kPipelineCacheFormatName);
    os << "key " << key.size() << "\n" << key << "\n";
    char seconds[64];
    std::snprintf(seconds, sizeof(seconds), "%a", entry.seconds);
    os << "seconds " << seconds << "\n";
    os << "stats " << entry.statistics.size() << "\n";
    for (const auto &[name, value] : entry.statistics)
        os << "stat " << name.size() << ":" << name << " " << value
           << "\n";
    os << "payload " << entry.payload.size() << "\n"
       << entry.payload << "\n";
    return support::sealCacheEntry(os.str());
}

bool
decodePipelineCacheEntry(const std::string &text, std::string &key,
                         PipelineCacheEntry &entry, std::string &error)
{
    error.clear();
    entry = PipelineCacheEntry();

    std::size_t body = 0;
    if (!support::openCacheEntry(text,
                                 support::kPipelineCacheFormatName,
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

    if (!r.line(ln) || ln.rfind("seconds ", 0) != 0)
        return fail("missing seconds line");
    {
        const std::string value = ln.substr(8);
        char *end = nullptr;
        entry.seconds = std::strtod(value.c_str(), &end);
        if (end == nullptr || *end != '\0' || value.empty())
            return fail("malformed seconds value");
    }

    std::uint64_t count = 0;
    if (!r.line(ln) || !support::scanU64(ln, "stats %" SCNu64, count))
        return fail("missing stats count");
    if (count > 1000000)
        return fail("implausible stat count");
    for (std::uint64_t i = 0; i < count; ++i) {
        if (!r.line(ln) || ln.rfind("stat ", 0) != 0)
            return fail("missing stat line");
        std::string name, tail;
        if (!support::splitNamed(ln.substr(5), name, tail))
            return fail("malformed stat name");
        std::int64_t value = 0;
        // The tail is " <value>"; parseInt64 rejects stray bytes.
        if (tail.empty() || tail[0] != ' ' ||
            !support::parseInt64(tail.substr(1), value)) {
            return fail("malformed stat value");
        }
        entry.statistics.emplace(std::move(name), value);
    }

    if (!r.line(ln) || ln.rfind("payload ", 0) != 0)
        return fail("missing payload line");
    std::int64_t payload_len = 0;
    if (!support::parseInt64(ln.substr(8), payload_len) ||
        payload_len < 0) {
        return fail("malformed payload length");
    }
    if (!r.raw(static_cast<std::size_t>(payload_len), entry.payload))
        return fail("truncated payload");
    return true;
}

PipelineCache::PipelineCache()
    : ContentCache({{support::kPipelineCacheFormatName, "pipeline.index",
                     "pipeline", "pipeline-cache entry"},
                    "pass.cache.evictions",
                    encodePipelineCacheEntry,
                    decodePipelineCacheEntry},
                   4096)
{}

PipelineCache &
PipelineCache::global()
{
    static PipelineCache *cache = new PipelineCache();
    return *cache;
}

// ----- process-wide switch + thread-local opt-out -------------------------

namespace {

std::atomic<bool> g_pipeline_cache_enabled{false};
thread_local bool tl_pipeline_cache_disabled = false;

} // namespace

void
setPipelineCacheEnabled(bool enabled)
{
    g_pipeline_cache_enabled.store(enabled, std::memory_order_relaxed);
}

bool
pipelineCacheEnabled()
{
    return g_pipeline_cache_enabled.load(std::memory_order_relaxed);
}

bool
pipelineCacheActive()
{
    return pipelineCacheEnabled() && !tl_pipeline_cache_disabled;
}

PipelineCacheDisableScope::PipelineCacheDisableScope()
    : prev_(tl_pipeline_cache_disabled)
{
    tl_pipeline_cache_disabled = true;
}

PipelineCacheDisableScope::~PipelineCacheDisableScope()
{
    tl_pipeline_cache_disabled = prev_;
}

} // namespace pom::pass
