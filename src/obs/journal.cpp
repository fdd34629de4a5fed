#include "obs/journal.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "support/json.h"

namespace pom::obs {

namespace {

using support::JsonValue;

/**
 * Each journal record's JSON keys, in emission order, paired with the
 * field they carry. The emitter writes and the parser reads through
 * this one list, so the two cannot drift apart. @p R is the record
 * type, const when writing.
 */
template <typename R, typename Visit>
void
visitFields(R &r, Visit &&visit)
{
    using Record = std::remove_const_t<R>;
    if constexpr (std::is_same_v<Record, JournalEntry>) {
        visit("kind", r.kind);
        visit("phase", r.phase);
        visit("point", r.point);
        visit("detail", r.detail);
        visit("primitives", r.primitives);
        visit("latency_cycles", r.latencyCycles);
        visit("dsp", r.dsp);
        visit("bram_bits", r.bramBits);
        visit("lut", r.lut);
        visit("ff", r.ff);
        visit("verdict", r.verdict);
        visit("reason", r.reason);
    } else if constexpr (std::is_same_v<Record, FrontierPoint>) {
        visit("point", r.point);
        visit("primitives", r.primitives);
        visit("latency_cycles", r.latencyCycles);
        visit("dsp", r.dsp);
        visit("bram_bits", r.bramBits);
        visit("lut", r.lut);
    } else {
        static_assert(std::is_same_v<Record, FrontierRound>);
        visit("round", r.round);
        visit("strategy", r.strategy);
        visit("points", r.points);
    }
}

template <typename R>
void writeRecords(std::ostream &os, const std::vector<R> &records,
                  const std::string &indent);

/** @p r as one JSON object on one line; @p indent is that line's. */
template <typename R>
void
writeRecord(std::ostream &os, const R &r, const std::string &indent)
{
    const char *sep = "{";
    visitFields(r, [&](const char *key, const auto &value) {
        os << sep << '"' << key << "\": ";
        sep = ", ";
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, std::string>)
            os << support::jsonQuote(value);
        else if constexpr (std::is_integral_v<T>)
            os << value;
        else
            writeRecords(os, value, indent);
    });
    os << '}';
}

/** A JSON array with one record per line, two spaces past @p indent. */
template <typename R>
void
writeRecords(std::ostream &os, const std::vector<R> &records,
             const std::string &indent)
{
    os << '[';
    const char *sep = "\n";
    for (const R &r : records) {
        os << sep << indent << "  ";
        writeRecord(os, r, indent + "  ");
        sep = ",\n";
    }
    os << '\n' << indent << ']';
}

/** The document header up to and including the "events" array. */
void
writeHeader(std::ostream &os, const char *schema,
            const std::vector<JournalEntry> &entries,
            std::int64_t requestId)
{
    os << "{\"schema\": \"" << schema << "\", ";
    if (requestId >= 0)
        os << "\"request\": " << requestId << ", ";
    os << "\"events\": ";
    writeRecords(os, entries, "");
}

bool
readValue(const JsonValue &v, const char *key, std::string &out,
          std::string &error)
{
    if (!v.isString()) {
        error = std::string("field '") + key + "' must be a string";
        return false;
    }
    out = v.text;
    return true;
}

/**
 * An integer literal that fits @p out. A double (`2.0`, `1e3`, an
 * integer past int64) or a value that would narrow is an error that
 * names the key, never a silent conversion.
 */
template <typename T>
    requires std::is_integral_v<T>
bool
readValue(const JsonValue &v, const char *key, T &out, std::string &error)
{
    if (v.kind != JsonValue::Kind::Int || !std::in_range<T>(v.integer)) {
        error = std::string("field '") + key +
                "' must be an integer in [" +
                std::to_string(std::numeric_limits<T>::min()) + ", " +
                std::to_string(std::min<std::uint64_t>(
                    std::numeric_limits<T>::max(),
                    std::numeric_limits<std::int64_t>::max())) +
                "]";
        return false;
    }
    out = static_cast<T>(v.integer);
    return true;
}

template <typename R>
bool readValue(const JsonValue &v, const char *key, std::vector<R> &out,
               std::string &error);

/** Fill @p r from the object @p v: every known key present is read and
 *  checked; unknown keys are ignored, so minor versions stay readable. */
template <typename R>
bool
readRecord(const JsonValue &v, R &r, std::string &error)
{
    if (!v.isObject()) {
        error = "a journal record is not a JSON object";
        return false;
    }
    bool ok = true;
    visitFields(r, [&](const char *key, auto &field) {
        const JsonValue *value = v.find(key);
        if (ok && value != nullptr)
            ok = readValue(*value, key, field, error);
    });
    return ok;
}

/** An array of records. */
template <typename R>
bool
readValue(const JsonValue &v, const char *key, std::vector<R> &out,
          std::string &error)
{
    if (v.kind != JsonValue::Kind::Array) {
        error = std::string("field '") + key + "' must be an array";
        return false;
    }
    out.assign(v.items.size(), R());
    for (size_t i = 0; i < out.size(); ++i) {
        if (!readRecord(v.items[i], out[i], error))
            return false;
    }
    return true;
}

} // namespace

std::string
journalJson(const std::vector<JournalEntry> &entries,
            std::int64_t requestId)
{
    std::ostringstream os;
    writeHeader(os, "pom-dse-journal/v1", entries, requestId);
    os << "}\n";
    return os.str();
}

std::string
journalJsonV2(const std::vector<JournalEntry> &entries,
              const std::vector<FrontierRound> &rounds,
              std::int64_t requestId)
{
    std::ostringstream os;
    writeHeader(os, "pom-dse-journal/v2", entries, requestId);
    os << ",\n\"frontier\": ";
    writeRecords(os, rounds, "");
    os << "}\n";
    return os.str();
}

bool
parseJournalJson(const std::string &text, std::vector<JournalEntry> &out,
                 std::string &error)
{
    std::vector<FrontierRound> rounds;
    return parseJournalJson(text, out, rounds, error);
}

bool
parseJournalJson(const std::string &text, std::vector<JournalEntry> &out,
                 std::vector<FrontierRound> &rounds, std::string &error)
{
    out.clear();
    rounds.clear();
    JsonValue doc;
    if (!support::parseJson(text, doc, error))
        return false;
    if (!doc.isObject()) {
        error = "the document is not a JSON object";
        return false;
    }
    const JsonValue *schema = doc.find("schema");
    if (schema == nullptr) {
        error = "missing schema tag";
        return false;
    }
    std::string tag;
    if (!readValue(*schema, "schema", tag, error))
        return false;
    if (tag != "pom-dse-journal/v1" && tag != "pom-dse-journal/v2") {
        error = "unsupported schema '" + tag + "'";
        return false;
    }
    const JsonValue *events = doc.find("events");
    if (events == nullptr) {
        error = "missing events array";
        return false;
    }
    const JsonValue *frontier = doc.find("frontier");
    return readValue(*events, "events", out, error) &&
           (frontier == nullptr ||
            readValue(*frontier, "frontier", rounds, error));
}

} // namespace pom::obs
