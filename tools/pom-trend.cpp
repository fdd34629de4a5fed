/**
 * @file
 * pom-trend — the perf-trend folder and regression gate.
 *
 * Usage:
 *   pom-trend --history FILE [--metrics FILE]... [--append] [--check]
 *             [--baseline N] [--threshold F] [--det-threshold F]
 *             [--html FILE] [--sha SHA] [--timestamp TS]
 *
 * Folds the pom-metrics/v1 reports of one sweep -- one cold
 * `pomc <workload> <size> --dse --emit --metrics-out FILE` process per
 * workload, each report one --metrics -- into a single
 * pom-perf-trend/v1 NDJSON record keyed by git SHA and timestamp. The
 * series come from the reports, not from a table kept here; each is a
 * sum over every report:
 *
 *   - every counter and accumulator, under its own name;
 *   - every histogram's sum under its name, its count under
 *     `<name>.count`;
 *   - of the gauges, only `hls.latency_cycles`: the summed latency of
 *     the reported designs, the QoR series.
 *
 * --append adds the record to the history file (`perf/history.ndjsonl`)
 * and --html renders the whole history as a self-contained page (inline
 * SVG, no JS). --check judges the record against the median of up to
 * --baseline N (default 5) records before it. Lower is better for every
 * gated series:
 *
 *   - time series -- accumulators (seconds) and histogram sums
 *     (milliseconds), one per timed layer -- gate at --threshold
 *     (default 0.30). A time series whose baseline median is under
 *     kTimeFloorSeconds is too short to time and is only plotted.
 *   - `hls.latency_cycles`, `dep.analyses`, `dep.carried.analyses`,
 *     `dse.node_cache.misses`, `dse.cache.misses` and `trips.counts`
 *     depend only on the search, so they gate at --det-threshold
 *     (default 0.02).
 *   - every other series is only plotted.
 *
 * Each breach prints a REGRESSION line that names its series -- so a
 * slowed layer names itself -- and the run exits 3.
 *
 * Order of operations: --append writes the record first, then --check
 * judges it against the history before it, so the page shows the
 * regressing point.
 *
 * Exit codes: 0 ok, 1 I/O or parse failure, 2 usage, 3 regression.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "support/record.h"
#include "support/string_util.h"
#include "support/version.h"

namespace {

using pom::support::JsonValue;

/** Time series whose baseline median is under this are only plotted. */
constexpr double kTimeFloorSeconds = 0.050;

/** Series that depend only on the search: gated at --det-threshold. */
constexpr const char *kExactSeries[] = {
    "hls.latency_cycles",
    "dep.analyses",
    "dep.carried.analyses",
    "dse.node_cache.misses",
    "dse.cache.misses",
    "trips.counts",
};

bool
isExact(const std::string &key)
{
    return std::find(std::begin(kExactSeries), std::end(kExactSeries),
                     key) != std::end(kExactSeries);
}

// ----- one history record ------------------------------------------------

struct SeriesValue
{
    std::string key;
    double value = 0.0;
    /** Seconds per unit of a time series; 0 for any other series. */
    double secondsPerUnit = 0.0;
};

struct TrendRecord
{
    std::string schema; ///< as read; recordJson() writes the v1 tag
    std::string sha = "unknown";
    std::string timestamp;
    std::string version;
    std::vector<SeriesValue> series; ///< first-seen order

    const SeriesValue *
    find(const std::string &key) const
    {
        for (const auto &s : series) {
            if (s.key == key)
                return &s;
        }
        return nullptr;
    }

    /** Add @p value to series @p key, creating it on first sight. */
    void
    add(const std::string &key, double value, double secondsPerUnit)
    {
        for (auto &s : series) {
            if (s.key == key) {
                s.value += value;
                return;
            }
        }
        series.push_back({key, value, secondsPerUnit});
    }
};

/** A history record's header; its series are one number per key. */
template <pom::support::RecordOf<TrendRecord> R, typename Visit>
void
visitFields(R &r, Visit &&visit)
{
    visit("schema", r.schema);
    visit("sha", r.sha);
    visit("timestamp", r.timestamp);
    visit("version", r.version);
}

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

/** Current UTC time as ISO-8601 ("2026-08-08T12:34:56Z"). */
std::string
utcNow()
{
    std::time_t now = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&now, &utc);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
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
    out = TrendRecord();
    if (!pom::support::parseJson(line, doc, error) ||
        !pom::support::readRecord(doc, out, error))
        return false;
    if (out.schema != "pom-perf-trend/v1") {
        error = "record has no pom-perf-trend/v1 schema tag";
        return false;
    }
    const JsonValue *series = doc.find("series");
    if (series == nullptr || !series->isObject()) {
        error = "record has no series object";
        return false;
    }
    for (const auto &[key, value] : series->members) {
        out.series.push_back({key, 0.0});
        if (!pom::support::readValue(value, key.c_str(),
                                     out.series.back().value, error))
            return false;
    }
    return true;
}

// ----- folding a sweep into a record -------------------------------------

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

/** One entry of a pom-metrics/v1 report, as far as a record reads it. */
struct MetricEntry
{
    std::string name;
    std::string kind;
    double value = 0.0; ///< counters, accumulators, gauges
    double sum = 0.0;   ///< histograms
    double count = 0.0; ///< histograms
};

template <pom::support::RecordOf<MetricEntry> R, typename Visit>
void
visitFields(R &m, Visit &&visit)
{
    visit("name", m.name);
    visit("kind", m.kind);
    visit("value", m.value);
    visit("sum", m.sum);
    visit("count", m.count);
}

/** A pom-metrics/v1 report's header. */
struct MetricsReport
{
    std::string schema;
    std::vector<MetricEntry> metrics;
};

template <pom::support::RecordOf<MetricsReport> R, typename Visit>
void
visitFields(R &r, Visit &&visit)
{
    visit("schema", r.schema);
    visit("metrics", r.metrics);
}

/** Add one pom-metrics/v1 report to @p record (see the file comment). */
bool
foldReport(const std::string &path, TrendRecord &record,
           std::string &error)
{
    std::string text;
    if (!readFile(path, text, error))
        return false;
    JsonValue doc;
    MetricsReport report;
    if (!pom::support::parseJson(text, doc, error) ||
        !pom::support::readRecord(doc, report, error)) {
        error = path + ": " + error;
        return false;
    }
    if (report.schema != "pom-metrics/v1" || doc.find("metrics") == nullptr) {
        error = path + ": not a pom-metrics/v1 report";
        return false;
    }
    for (const MetricEntry &m : report.metrics) {
        const std::string &n = m.name;
        const std::string &k = m.kind;
        if (n.empty() || k.empty()) {
            error = path + ": metric entry without a name or kind";
            return false;
        }
        if (k == "counter") {
            record.add(n, m.value, 0.0);
        } else if (k == "accumulator") {
            record.add(n, m.value, 1.0);
        } else if (k == "histogram") {
            record.add(n, m.sum, 1e-3);
            record.add(n + ".count", m.count, 0.0);
        } else if (k == "gauge") {
            if (n == "hls.latency_cycles")
                record.add(n, m.value, 0.0);
        } else {
            error = path + ": metric '" + n + "' has unknown kind '" + k +
                    "'";
            return false;
        }
    }
    return true;
}

// ----- the regression gate -----------------------------------------------

struct GateOptions
{
    int baseline = 5;           ///< records to take the median over
    double threshold = 0.30;    ///< time series
    double detThreshold = 0.02; ///< the kExactSeries
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
    for (const auto &s : candidate.series) {
        bool exact = isExact(s.key);
        if (!exact && s.secondsPerUnit == 0.0)
            continue; // plotted only
        std::vector<double> base;
        for (auto it = history.rbegin();
             it != history.rend() &&
             base.size() < static_cast<std::size_t>(opt.baseline);
             ++it) {
            if (const SeriesValue *v = it->find(s.key))
                base.push_back(v->value);
        }
        if (base.empty()) {
            std::printf("trend: %-32s %s (new series, no baseline)\n",
                        s.key.c_str(), pretty(s.value).c_str());
            continue;
        }
        double ref = median(base);
        if (!exact && ref * s.secondsPerUnit < kTimeFloorSeconds)
            continue; // too short to time: plotted only
        double limit = exact ? opt.detThreshold : opt.threshold;
        double change = ref != 0.0 ? (s.value - ref) / ref : 0.0;
        if (s.value > ref * (1.0 + limit)) {
            ++breaches;
            std::fprintf(stderr,
                         "trend: REGRESSION %s: %s vs baseline %s "
                         "(%+.1f%%, limit %.1f%%, %zu-record median)\n",
                         s.key.c_str(), pretty(s.value).c_str(),
                         pretty(ref).c_str(), 100.0 * change,
                         100.0 * limit, base.size());
        } else {
            std::printf("trend: %-32s %s vs %s (%+.1f%%) ok\n",
                        s.key.c_str(), pretty(s.value).c_str(),
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
    // Every series any record carries, in first-seen order.
    std::vector<std::string> keys;
    for (const auto &record : history) {
        for (const auto &s : record.series) {
            if (std::find(keys.begin(), keys.end(), s.key) == keys.end())
                keys.push_back(s.key);
        }
    }
    for (const std::string &key : keys) {
        // Collect (recordIndex, value) for records carrying the series.
        std::vector<std::pair<std::size_t, double>> points;
        for (std::size_t i = 0; i < history.size(); ++i) {
            if (const SeriesValue *v = history[i].find(key))
                points.emplace_back(i, v->value);
        }
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
        os << "<h2>" << htmlEscape(key) << "</h2>\n";
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
        "usage: %s --history FILE [--metrics FILE]... [--append]\n"
        "          [--check] [--baseline N] [--threshold F]\n"
        "          [--det-threshold F] [--html FILE] [--sha SHA]\n"
        "          [--timestamp TS]\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string history_path, html_path;
    std::vector<std::string> metrics_paths;
    std::string sha_override, timestamp_override;
    bool do_append = false, do_check = false;
    GateOptions gate;

    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        auto value = [&](const char *flag) -> std::string {
            if (a + 1 >= argc) {
                std::fprintf(stderr, "pom-trend: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++a];
        };
        // Strict: `--threshold abc` is a usage error, never 0.
        auto fraction = [&](const char *flag) {
            std::string text = value(flag);
            double v = 0.0;
            if (!pom::support::parseDouble(text, v) || v < 0.0) {
                std::fprintf(stderr,
                             "pom-trend: %s expects a non-negative "
                             "number, got '%s'\n",
                             flag, text.c_str());
                std::exit(2);
            }
            return v;
        };
        if (arg == "--history") {
            history_path = value("--history");
        } else if (arg == "--metrics") {
            metrics_paths.push_back(value("--metrics"));
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
            std::string text = value("--baseline");
            std::int64_t n = 0;
            if (!pom::support::parseInt64(text, n) || n < 1 ||
                n > 1000000) {
                std::fprintf(stderr,
                             "pom-trend: --baseline expects a record "
                             "count >= 1, got '%s'\n",
                             text.c_str());
                return 2;
            }
            gate.baseline = static_cast<int>(n);
        } else if (arg == "--threshold") {
            gate.threshold = fraction("--threshold");
        } else if (arg == "--det-threshold") {
            gate.detThreshold = fraction("--det-threshold");
        } else {
            return usage(argv[0]);
        }
    }
    if (history_path.empty())
        return usage(argv[0]);
    if ((do_append || do_check) && metrics_paths.empty()) {
        std::fprintf(stderr,
                     "pom-trend: --append and --check need --metrics\n");
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

    // 2. Fold this sweep into a candidate record.
    TrendRecord candidate;
    candidate.version = pom::support::kVersionString;
    candidate.timestamp =
        timestamp_override.empty() ? utcNow() : timestamp_override;
    if (!sha_override.empty())
        candidate.sha = sha_override;
    for (const std::string &path : metrics_paths) {
        std::string error;
        if (!foldReport(path, candidate, error)) {
            std::fprintf(stderr, "pom-trend: %s\n", error.c_str());
            return 1;
        }
    }

    // 3. Append before checking, so the page shows regressing points.
    if (do_append) {
        std::ofstream out(history_path, std::ios::app);
        out << recordJson(candidate) << "\n";
        if (!out) {
            std::fprintf(stderr, "pom-trend: cannot append to '%s'\n",
                         history_path.c_str());
            return 1;
        }
    }

    int breaches = do_check ? check(history, candidate, gate) : 0;

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
