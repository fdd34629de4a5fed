/**
 * @file
 * pom-trend — the perf-trend folder and regression gate.
 *
 * Usage:
 *   pom-trend --history FILE [--bench FILE] [--metrics FILE]
 *             [--append] [--check] [--baseline N] [--threshold F]
 *             [--det-threshold F] [--html FILE]
 *             [--sha SHA] [--timestamp TS]
 *   pom-trend --list-series
 *
 * Folds one benchmark run (`BENCH_dse.json`, written by
 * bench/dse_wallclock, plus optionally a pom-metrics JSON report for
 * pass timing) into a single pom-perf-trend/v1 NDJSON record keyed by
 * git SHA and timestamp, appends it to the checked-in history file
 * (`perf/history.ndjsonl`), renders a self-contained HTML trend page
 * (inline SVG, no external JS), and — the part CI cares about — gates:
 *
 *   --check compares the newest record against the median of the up to
 *   --baseline N preceding records, per tracked series. Wall-clock
 *   series are noisy across machines, so they use the loose
 *   --threshold (default 0.30 = 30%); hardware-independent series
 *   (summed best latency, cache hit rate, points explored) use the
 *   tight --det-threshold (default 0.02). Any breach prints a
 *   REGRESSION line and exits 3, so a speed or QoR regression fails
 *   the build loudly instead of landing as a silently-worse artifact.
 *
 * Order of operations: --append folds and appends first, then --check
 * judges the appended record against the history *before* it; the
 * rendered page therefore always shows the regressing point.
 *
 * Exit codes: 0 ok, 1 I/O or parse failure, 2 usage, 3 regression.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "support/json.h"
#include "support/version.h"

namespace {

using pom::support::JsonValue;

// ----- the tracked series ------------------------------------------------

/** Gate direction: which way is worse. */
enum class Direction
{
    LowerIsBetter,  ///< regression = value rose past the threshold
    HigherIsBetter, ///< regression = value fell past the threshold
    TrackedOnly,    ///< plotted, never gated
};

struct SeriesSpec
{
    const char *key;    ///< record key in the "series" object
    const char *metric; ///< bench-doc metric name ("" = derived)
    Direction direction;
    bool deterministic; ///< hardware-independent -> tight threshold
    const char *label;  ///< HTML page label
};

/**
 * One row per plotted/gated series. Wall-clock rows are machine-noisy;
 * the deterministic rows depend only on the search itself, so any
 * movement there is a real behaviour change.
 */
constexpr SeriesSpec kSeries[] = {
    {"dse_cold_seq_seconds", "bench.dse.sweep.cold_seq_seconds",
     Direction::LowerIsBetter, false, "DSE sweep, cold sequential (s)"},
    {"dse_cold_pool_seconds", "bench.dse.sweep.cold_pool_seconds",
     Direction::LowerIsBetter, false, "DSE sweep, cold pooled (s)"},
    {"dse_warm_seconds", "bench.dse.sweep.warm_seconds",
     Direction::LowerIsBetter, false, "DSE sweep, warm cache (s)"},
    {"latency_cycles_sum", "bench.dse.sweep.latency_cycles_sum",
     Direction::LowerIsBetter, true, "Summed best latency (cycles)"},
    {"cache_hit_rate", "bench.dse.cache.hit_rate",
     Direction::HigherIsBetter, true, "Design-point cache hit rate"},
    {"points_explored", "bench.dse.strategy.greedy.points",
     Direction::TrackedOnly, true, "Points explored (greedy)"},
    {"greedy_seconds", "bench.dse.strategy.greedy.seconds",
     Direction::LowerIsBetter, false, "Greedy strategy wall-clock (s)"},
    {"spill_warm_seconds", "bench.dse.spill.warm_seconds",
     Direction::LowerIsBetter, false, "Disk-warm sweep (s)"},
    {"node_reuse_rate", "bench.dse.incremental.node_reuse_rate",
     Direction::HigherIsBetter, true, "Node-report reuse rate"},
    {"pass_seconds_total", "", Direction::LowerIsBetter, false,
     "Total pass pipeline time (s)"},
};

// ----- one history record ------------------------------------------------

struct SeriesValue
{
    std::string key;
    double value = 0.0;
};

struct TrendRecord
{
    std::string sha = "unknown";
    std::string timestamp;
    std::string version;
    std::vector<SeriesValue> series; ///< spec order, absent = not run

    const SeriesValue *
    find(const std::string &key) const
    {
        for (const auto &s : series) {
            if (s.key == key)
                return &s;
        }
        return nullptr;
    }
};

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Short form for console lines and tooltips (JSON keeps %.17g). */
std::string
pretty(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
recordJson(const TrendRecord &r)
{
    std::ostringstream os;
    os << "{\"schema\": \"pom-perf-trend/v1\", \"sha\": "
       << pom::support::jsonQuote(r.sha) << ", \"timestamp\": "
       << pom::support::jsonQuote(r.timestamp) << ", \"version\": "
       << pom::support::jsonQuote(r.version) << ", \"series\": {";
    bool first = true;
    for (const auto &s : r.series) {
        os << (first ? "" : ", ") << pom::support::jsonQuote(s.key)
           << ": " << num(s.value);
        first = false;
    }
    os << "}}";
    return os.str();
}

bool
parseRecord(const std::string &line, TrendRecord &out,
            std::string &error)
{
    JsonValue doc;
    if (!pom::support::parseJson(line, doc, error))
        return false;
    if (!doc.isObject()) {
        error = "record is not a JSON object";
        return false;
    }
    const JsonValue *schema = doc.find("schema");
    if (schema == nullptr ||
        schema->asString() != "pom-perf-trend/v1") {
        error = "record has no pom-perf-trend/v1 schema tag";
        return false;
    }
    out = TrendRecord();
    if (const auto *v = doc.find("sha"))
        out.sha = v->asString();
    if (const auto *v = doc.find("timestamp"))
        out.timestamp = v->asString();
    if (const auto *v = doc.find("version"))
        out.version = v->asString();
    const JsonValue *series = doc.find("series");
    if (series == nullptr || !series->isObject()) {
        error = "record has no series object";
        return false;
    }
    for (const auto &[key, value] : series->members)
        out.series.push_back({key, value.asDouble()});
    return true;
}

// ----- folding a bench run into a record ---------------------------------

bool
readFile(const std::string &path, std::string &out, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream os;
    os << in.rdbuf();
    out = os.str();
    return true;
}

/** name -> value over a pom-bench/v1 or pom-metrics/v1 document. */
bool
metricValues(const std::string &path,
             std::vector<std::pair<std::string, double>> &out,
             TrendRecord *header, std::string &error)
{
    std::string text;
    if (!readFile(path, text, error))
        return false;
    JsonValue doc;
    if (!pom::support::parseJson(text, doc, error)) {
        error = path + ": " + error;
        return false;
    }
    const JsonValue *schema = doc.isObject() ? doc.find("schema") : nullptr;
    if (schema == nullptr || (schema->asString() != "pom-bench/v1" &&
                              schema->asString() != "pom-metrics/v1")) {
        error = path + ": not a pom-bench/v1 or pom-metrics/v1 document";
        return false;
    }
    if (header != nullptr) {
        if (const auto *v = doc.find("sha"))
            header->sha = v->asString(header->sha);
        if (const auto *v = doc.find("timestamp"))
            header->timestamp = v->asString(header->timestamp);
        if (const auto *v = doc.find("version"))
            header->version = v->asString(header->version);
    }
    const JsonValue *metrics = doc.find("metrics");
    if (metrics == nullptr ||
        metrics->kind != JsonValue::Kind::Array) {
        error = path + ": no metrics array";
        return false;
    }
    for (const auto &entry : metrics->items) {
        const JsonValue *name = entry.find("name");
        const JsonValue *value = entry.find("value");
        if (name == nullptr)
            continue;
        // Histogram entries carry "sum"/"count" instead of "value";
        // fold them as their sum so totals stay comparable.
        double v = value != nullptr ? value->asDouble()
                   : entry.find("sum") != nullptr
                       ? entry.find("sum")->asDouble()
                       : 0.0;
        out.emplace_back(name->asString(), v);
    }
    return true;
}

bool
foldRecord(const std::string &benchPath, const std::string &metricsPath,
           TrendRecord &out, std::string &error)
{
    out = TrendRecord();
    out.version = pom::support::kVersionString;
    std::vector<std::pair<std::string, double>> values;
    if (!metricValues(benchPath, values, &out, error))
        return false;
    if (!metricsPath.empty()) {
        // The separate metrics report (e.g. a pomc --metrics-out run)
        // contributes the pass.* timing; its header keys are ignored.
        if (!metricValues(metricsPath, values, nullptr, error))
            return false;
    }
    auto lookup = [&values](const std::string &name, double &v) {
        for (const auto &[n, value] : values) {
            if (n == name) {
                v = value;
                return true;
            }
        }
        return false;
    };
    for (const auto &spec : kSeries) {
        double v = 0.0;
        if (spec.metric[0] != '\0') {
            if (lookup(spec.metric, v))
                out.series.push_back({spec.key, v});
            continue;
        }
        // Derived: pass_seconds_total = sum of pass.seconds.* values.
        if (std::strcmp(spec.key, "pass_seconds_total") == 0) {
            double total = 0.0;
            bool any = false;
            for (const auto &[n, value] : values) {
                if (n.rfind("pass.seconds.", 0) == 0) {
                    total += value;
                    any = true;
                }
            }
            if (any)
                out.series.push_back({spec.key, total});
        }
    }
    return true;
}

// ----- the regression gate -----------------------------------------------

struct GateOptions
{
    int baseline = 5;          ///< records to take the median over
    double threshold = 0.30;   ///< noisy (wall-clock) series
    double detThreshold = 0.02; ///< deterministic series
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Judge @p candidate against the records before it. Returns the number
 * of breached series and prints one verdict line per gated series.
 */
int
check(const std::vector<TrendRecord> &history,
      const TrendRecord &candidate, const GateOptions &opt)
{
    int breaches = 0;
    for (const auto &spec : kSeries) {
        const SeriesValue *current = candidate.find(spec.key);
        if (current == nullptr)
            continue; // series not produced by this run
        if (spec.direction == Direction::TrackedOnly)
            continue;
        std::vector<double> base;
        for (auto it = history.rbegin();
             it != history.rend() &&
             base.size() < static_cast<std::size_t>(opt.baseline);
             ++it) {
            if (const SeriesValue *v = it->find(spec.key))
                base.push_back(v->value);
        }
        if (base.empty()) {
            std::printf("trend: %-22s %s (new series, no baseline)\n",
                        spec.key, pretty(current->value).c_str());
            continue;
        }
        double ref = median(base);
        if (std::fabs(ref) < 1e-12)
            continue; // nothing meaningful to compare against
        double change = (current->value - ref) / ref;
        double limit =
            spec.deterministic ? opt.detThreshold : opt.threshold;
        bool bad = spec.direction == Direction::LowerIsBetter
                       ? change > limit
                       : change < -limit;
        if (bad) {
            ++breaches;
            std::fprintf(stderr,
                         "trend: REGRESSION %s: %s vs baseline %s "
                         "(%+.1f%%, limit %.1f%%, %zu-record median)\n",
                         spec.key, pretty(current->value).c_str(),
                         pretty(ref).c_str(), 100.0 * change,
                         100.0 * limit, base.size());
        } else {
            std::printf("trend: %-22s %s vs %s (%+.1f%%) ok\n",
                        spec.key, pretty(current->value).c_str(),
                        pretty(ref).c_str(), 100.0 * change);
        }
    }
    return breaches;
}

// ----- the HTML page -----------------------------------------------------

std::string
htmlEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          default: out += c;
        }
    }
    return out;
}

/** One inline-SVG chart per series; tooltips via <title>, no JS. */
std::string
renderHtml(const std::vector<TrendRecord> &history)
{
    const int width = 640, height = 160, pad = 8;
    std::ostringstream os;
    os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
       << "<title>POM performance trend</title>\n<style>\n"
       << "body{font:14px sans-serif;max-width:720px;margin:2em auto;"
       << "color:#222}\n"
       << "h2{margin:1.2em 0 .2em;font-size:15px}\n"
       << ".meta{color:#777;font-size:12px}\n"
       << "svg{background:#fafafa;border:1px solid #ddd}\n"
       << "polyline{fill:none;stroke:#2266cc;stroke-width:1.5}\n"
       << "circle{fill:#2266cc}\ncircle:hover{fill:#cc3322}\n"
       << "</style></head><body>\n<h1>POM performance trend</h1>\n";
    if (!history.empty()) {
        os << "<p class=\"meta\">" << history.size()
           << " records, latest " << htmlEscape(history.back().sha)
           << " @ " << htmlEscape(history.back().timestamp)
           << " (v" << htmlEscape(history.back().version) << ")</p>\n";
    }
    for (const auto &spec : kSeries) {
        // Collect (recordIndex, value) for records carrying the series.
        std::vector<std::pair<std::size_t, double>> points;
        for (std::size_t i = 0; i < history.size(); ++i) {
            if (const SeriesValue *v = history[i].find(spec.key))
                points.emplace_back(i, v->value);
        }
        if (points.empty())
            continue;
        double lo = points[0].second, hi = points[0].second;
        for (const auto &[i, v] : points) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        double span = hi - lo;
        if (span <= 0.0)
            span = std::fabs(hi) > 0.0 ? std::fabs(hi) * 0.1 : 1.0;
        lo -= span * 0.05;
        hi += span * 0.05;
        auto x = [&](std::size_t rank) {
            return points.size() < 2
                       ? width / 2.0
                       : pad + (width - 2.0 * pad) *
                                   static_cast<double>(rank) /
                                   static_cast<double>(points.size() - 1);
        };
        auto y = [&](double v) {
            return height - pad -
                   (height - 2.0 * pad) * (v - lo) / (hi - lo);
        };
        os << "<h2>" << htmlEscape(spec.label) << " <span class=\"meta\">("
           << spec.key << ", "
           << (spec.direction == Direction::LowerIsBetter
                   ? "lower is better"
                   : spec.direction == Direction::HigherIsBetter
                         ? "higher is better"
                         : "tracked")
           << ")</span></h2>\n";
        os << "<svg width=\"" << width << "\" height=\"" << height
           << "\" viewBox=\"0 0 " << width << " " << height << "\">\n";
        os << "<polyline points=\"";
        for (std::size_t rank = 0; rank < points.size(); ++rank)
            os << (rank ? " " : "") << num(x(rank)) << ","
               << num(y(points[rank].second));
        os << "\"/>\n";
        for (std::size_t rank = 0; rank < points.size(); ++rank) {
            const auto &[i, v] = points[rank];
            os << "<circle cx=\"" << num(x(rank)) << "\" cy=\""
               << num(y(v)) << "\" r=\"3\"><title>"
               << htmlEscape(history[i].sha) << " @ "
               << htmlEscape(history[i].timestamp) << ": " << pretty(v)
               << "</title></circle>\n";
        }
        os << "</svg>\n";
    }
    os << "</body></html>\n";
    return os.str();
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --history FILE [--bench FILE] [--metrics FILE]\n"
        "          [--append] [--check] [--baseline N] [--threshold F]\n"
        "          [--det-threshold F] [--html FILE] [--sha SHA]\n"
        "          [--timestamp TS]\n"
        "       %s --list-series\n",
        argv0, argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string history_path, bench_path, metrics_path, html_path;
    std::string sha_override, timestamp_override;
    bool do_append = false, do_check = false;
    GateOptions gate;

    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        auto value = [&](const char *flag) -> const char * {
            if (a + 1 >= argc) {
                std::fprintf(stderr, "pom-trend: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++a];
        };
        if (arg == "--history") {
            history_path = value("--history");
        } else if (arg == "--bench") {
            bench_path = value("--bench");
        } else if (arg == "--metrics") {
            metrics_path = value("--metrics");
        } else if (arg == "--html") {
            html_path = value("--html");
        } else if (arg == "--sha") {
            sha_override = value("--sha");
        } else if (arg == "--timestamp") {
            timestamp_override = value("--timestamp");
        } else if (arg == "--append") {
            do_append = true;
        } else if (arg == "--check") {
            do_check = true;
        } else if (arg == "--baseline") {
            gate.baseline = std::atoi(value("--baseline"));
            if (gate.baseline < 1) {
                std::fprintf(stderr,
                             "pom-trend: --baseline must be >= 1\n");
                return 2;
            }
        } else if (arg == "--threshold") {
            gate.threshold = std::atof(value("--threshold"));
        } else if (arg == "--det-threshold") {
            gate.detThreshold = std::atof(value("--det-threshold"));
        } else if (arg == "--list-series") {
            for (const auto &spec : kSeries) {
                std::printf("%-22s %-6s %s\n", spec.key,
                            spec.deterministic ? "exact" : "noisy",
                            spec.label);
            }
            return 0;
        } else {
            return usage(argv[0]);
        }
    }
    if (history_path.empty())
        return usage(argv[0]);
    if (do_append && bench_path.empty()) {
        std::fprintf(stderr, "pom-trend: --append needs --bench\n");
        return 2;
    }

    // 1. Load the existing history (a missing file is an empty one).
    std::vector<TrendRecord> history;
    {
        std::ifstream in(history_path);
        std::string line;
        int lineno = 0;
        while (in && std::getline(in, line)) {
            ++lineno;
            if (line.empty())
                continue;
            TrendRecord record;
            std::string error;
            if (!parseRecord(line, record, error)) {
                std::fprintf(stderr, "pom-trend: %s:%d: %s\n",
                             history_path.c_str(), lineno,
                             error.c_str());
                return 1;
            }
            history.push_back(std::move(record));
        }
    }

    // 2. Fold this run into a candidate record.
    TrendRecord candidate;
    bool have_candidate = false;
    if (!bench_path.empty()) {
        std::string error;
        if (!foldRecord(bench_path, metrics_path, candidate, error)) {
            std::fprintf(stderr, "pom-trend: %s\n", error.c_str());
            return 1;
        }
        if (!sha_override.empty())
            candidate.sha = sha_override;
        if (!timestamp_override.empty())
            candidate.timestamp = timestamp_override;
        have_candidate = true;
    }

    // 3. Append before checking, so the page shows regressing points.
    if (do_append) {
        std::ofstream out(history_path, std::ios::app);
        if (!out) {
            std::fprintf(stderr, "pom-trend: cannot write '%s'\n",
                         history_path.c_str());
            return 1;
        }
        out << recordJson(candidate) << "\n";
        if (!out) {
            std::fprintf(stderr, "pom-trend: write to '%s' failed\n",
                         history_path.c_str());
            return 1;
        }
    }

    int breaches = 0;
    if (do_check) {
        // Judge the candidate (or, with no --bench, the newest record)
        // against the history strictly before it.
        std::vector<TrendRecord> before = history;
        TrendRecord subject;
        if (have_candidate) {
            subject = candidate;
        } else if (!history.empty()) {
            subject = history.back();
            before.pop_back();
        } else {
            std::fprintf(stderr,
                         "pom-trend: --check needs --bench or a "
                         "non-empty history\n");
            return 2;
        }
        breaches = check(before, subject, gate);
    }

    if (!html_path.empty()) {
        std::vector<TrendRecord> all = history;
        if (do_append)
            all.push_back(candidate);
        if (!pom::obs::writeFile(html_path, renderHtml(all))) {
            std::fprintf(stderr, "pom-trend: cannot write '%s'\n",
                         html_path.c_str());
            return 1;
        }
    }

    if (breaches > 0) {
        std::fprintf(stderr,
                     "pom-trend: %d series regressed beyond threshold\n",
                     breaches);
        return 3;
    }
    return 0;
}
