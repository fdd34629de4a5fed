#include "pass/pass_manager.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "ir/verifier.h"
#include "obs/obs.h"
#include "support/diagnostics.h"

namespace pom::pass {

// Defined in ir_passes.cpp (same library): verify, strip-hls, count-ops.
void registerCoreIrPasses(PassRegistry &registry);

// ----- PassRegistry ------------------------------------------------------

PassRegistry &
PassRegistry::instance()
{
    static PassRegistry *registry = [] {
        auto *r = new PassRegistry();
        registerCoreIrPasses(*r);
        return r;
    }();
    return *registry;
}

void
PassRegistry::add(const std::string &name, const std::string &description,
                  PassFactory factory)
{
    auto [it, inserted] =
        entries_.emplace(name, Entry{description, std::move(factory)});
    (void)it;
    if (!inserted)
        support::fatal("pass '" + name + "' registered twice");
}

bool
PassRegistry::known(const std::string &name) const
{
    return entries_.count(name) > 0;
}

std::unique_ptr<Pass>
PassRegistry::create(const std::string &name,
                     const PassOptions &options) const
{
    auto it = entries_.find(name);
    if (it == entries_.end()) {
        std::string known_names;
        for (const auto &[n, e] : entries_) {
            (void)e;
            known_names += known_names.empty() ? n : ", " + n;
        }
        support::fatal("unknown pass '" + name + "' (known passes: " +
                       known_names + ")");
    }
    auto pass = it->second.factory(options);
    POM_ASSERT(pass != nullptr, "factory for pass '", name,
               "' returned null");
    return pass;
}

std::vector<std::pair<std::string, std::string>>
PassRegistry::list() const
{
    std::vector<std::pair<std::string, std::string>> out;
    out.reserve(entries_.size());
    for (const auto &[name, entry] : entries_)
        out.emplace_back(name, entry.description);
    return out;
}

// ----- pipeline spec parsing ---------------------------------------------

std::vector<std::pair<std::string, PassOptions>>
parsePipelineSpec(const std::string &spec)
{
    std::vector<std::pair<std::string, PassOptions>> pipeline;
    size_t pos = 0;
    auto skipSpaces = [&] {
        while (pos < spec.size() &&
               (spec[pos] == ' ' || spec[pos] == '\t'))
            ++pos;
    };
    auto parseToken = [&](const char *stop_chars) {
        size_t start = pos;
        while (pos < spec.size() &&
               std::string(stop_chars).find(spec[pos]) == std::string::npos)
            ++pos;
        std::string token = spec.substr(start, pos - start);
        // Trim trailing spaces.
        while (!token.empty() && (token.back() == ' ' ||
                                  token.back() == '\t'))
            token.pop_back();
        return token;
    };

    skipSpaces();
    if (pos >= spec.size())
        return pipeline;
    while (true) {
        skipSpaces();
        std::string name = parseToken(",{");
        if (name.empty())
            support::fatal("pipeline spec: empty pass name in '" + spec +
                           "'");
        PassOptions options;
        if (pos < spec.size() && spec[pos] == '{') {
            ++pos;
            while (true) {
                skipSpaces();
                std::string key = parseToken("=,}");
                if (pos >= spec.size() || spec[pos] != '=') {
                    support::fatal("pipeline spec: expected '=' after "
                                   "option '" + key + "' of pass '" +
                                   name + "'");
                }
                ++pos;
                std::string value = parseToken(",}");
                if (key.empty())
                    support::fatal("pipeline spec: empty option name for "
                                   "pass '" + name + "'");
                options[key] = value;
                if (pos < spec.size() && spec[pos] == ',') {
                    ++pos;
                    continue;
                }
                break;
            }
            if (pos >= spec.size() || spec[pos] != '}')
                support::fatal("pipeline spec: unterminated option list "
                               "for pass '" + name + "'");
            ++pos;
        }
        pipeline.emplace_back(std::move(name), std::move(options));
        skipSpaces();
        if (pos >= spec.size())
            break;
        if (spec[pos] != ',')
            support::fatal("pipeline spec: expected ',' at position " +
                           std::to_string(pos) + " of '" + spec + "'");
        ++pos;
    }
    return pipeline;
}

// ----- global timing aggregation -----------------------------------------
//
// Reimplemented on top of the obs registries: every pipeline run adds
// one sample per pass execution to the histogram `pass.wall_ms.<name>`
// and bumps the counters `pass.pipeline_runs` / `pass.stat.<name>.<key>`,
// all under the registries' mutexes, so concurrent PassManagers (the
// test suite, lowering on pool workers) aggregate without data races.
// The histogram's count and sum are the report's runs and total time;
// its first-touch order is first-execution order, which keeps the
// --timing report layout identical to the historical single-threaded
// implementation.

namespace {

constexpr const char *kPipelineRuns = "pass.pipeline_runs";
constexpr const char *kStatPrefix = "pass.stat.";
constexpr const char *kWallMsPrefix = "pass.wall_ms.";

std::atomic<bool> g_timing_enabled{false};

void
recordGlobal(const std::vector<PassExecution> &executions)
{
    obs::counterAdd(kPipelineRuns);
    for (const auto &exec : executions) {
        obs::histogramRecord(kWallMsPrefix + exec.pass,
                             exec.seconds * 1e3);
        for (const auto &[key, value] : exec.statistics)
            obs::counterAdd(kStatPrefix + exec.pass + "." + key, value);
    }
}

} // namespace

void
setGlobalTimingEnabled(bool enabled)
{
    g_timing_enabled.store(enabled, std::memory_order_relaxed);
}

bool
globalTimingEnabled()
{
    return g_timing_enabled.load(std::memory_order_relaxed);
}

void
resetGlobalTiming()
{
    obs::resetMetricsWithPrefix("pass.");
    obs::resetHistogramsWithPrefix("pass.");
}

std::string
globalTimingReport()
{
    const size_t prefix_len = std::string(kWallMsPrefix).size();
    std::ostringstream rows;
    char line[160];
    double total = 0.0;
    for (const auto &[name, histogram] : obs::histogramsSnapshot()) {
        if (name.rfind(kWallMsPrefix, 0) != 0)
            continue;
        obs::HistogramSummary s = histogram.summary();
        double seconds = s.sum * 1e-3;
        total += seconds;
        std::snprintf(line, sizeof(line),
                      "  %-20s %8lld runs  %10.6f s total  %8.3f ms avg\n",
                      name.substr(prefix_len).c_str(),
                      static_cast<long long>(s.count), seconds,
                      s.count > 0 ? s.sum / static_cast<double>(s.count)
                                  : 0.0);
        rows << line;
    }
    if (rows.tellp() == 0)
        return "";
    std::ostringstream os;
    os << "---- pass timing (" << obs::counterValue(kPipelineRuns)
       << " pipeline runs) ----\n"
       << rows.str();
    std::snprintf(line, sizeof(line), "  %-20s %16s %10.6f s total\n",
                  "total", "", total);
    os << line;
    return os.str();
}

// ----- PassManager -------------------------------------------------------

void
PassManager::addPass(std::unique_ptr<Pass> pass)
{
    POM_ASSERT(pass != nullptr, "null pass added to PassManager");
    passes_.push_back(std::move(pass));
}

void
PassManager::addPipeline(const std::string &spec)
{
    for (auto &[name, options] : parsePipelineSpec(spec))
        addPass(PassRegistry::instance().create(name, options));
}

namespace {

void
dumpState(const PipelineState &state, const std::string &label,
          std::ostream &os)
{
    os << "// ---- " << label << " ----\n";
    if (state.func)
        os << state.func->str();
    else
        os << "// <no affine IR at this point in the pipeline>\n";
}

} // namespace

void
PassManager::run(PipelineState &state)
{
    std::ostream &dump_os = options_.dumpStream ? *options_.dumpStream
                                                : support::diagStream();
    for (auto &pass : passes_) {
        if (options_.dumpBeforeEach)
            dumpState(state, "IR before " + pass->name(), dump_os);
        pass->clearStatistics();
        auto start = std::chrono::steady_clock::now();
        {
            obs::Span span("pass:" + pass->name(), "pass");
            pass->run(state);
        }
        auto end = std::chrono::steady_clock::now();
        PassExecution exec;
        exec.pass = pass->name();
        exec.seconds = std::chrono::duration<double>(end - start).count();
        exec.statistics = pass->statistics();
        executions_.push_back(std::move(exec));
        if (options_.verifyAfterEach && state.func) {
            auto errors = ir::verify(*state.func);
            if (!errors.empty()) {
                support::fatal("IR verification failed after pass '" +
                               pass->name() + "': " + errors[0]);
            }
        }
        if (options_.dumpAfterEach)
            dumpState(state, "IR after " + pass->name(), dump_os);
    }
    // Aggregate when either --timing asked for a report or metrics
    // export is on (the pass.* metrics feed the metrics JSON too).
    if (globalTimingEnabled() || obs::metricsEnabled())
        recordGlobal(executions_);
}

std::string
PassManager::timingReport() const
{
    std::ostringstream os;
    os << "---- pass pipeline timing ----\n";
    char line[160];
    double total = 0.0;
    for (const auto &exec : executions_) {
        total += exec.seconds;
        std::string stats;
        for (const auto &[key, value] : exec.statistics) {
            stats += stats.empty() ? "" : ", ";
            stats += key;
            stats += "=";
            stats += std::to_string(value);
        }
        std::snprintf(line, sizeof(line), "  %-20s %10.6f s%s%s%s\n",
                      exec.pass.c_str(), exec.seconds,
                      stats.empty() ? "" : "   (",
                      stats.c_str(), stats.empty() ? "" : ")");
        os << line;
    }
    std::snprintf(line, sizeof(line), "  %-20s %10.6f s\n", "total",
                  total);
    os << line;
    return os.str();
}

} // namespace pom::pass
