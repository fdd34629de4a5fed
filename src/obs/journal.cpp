#include "obs/journal.h"

#include "support/record.h"

namespace pom::obs {

// Each journal record's JSON keys, in emission order, paired with the
// field they carry (support/record.h): the emitter and the parser both
// walk these tables.

template <support::RecordOf<JournalEntry> R, typename Visit>
void
visitFields(R &r, Visit &&visit)
{
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
}

template <support::RecordOf<FrontierPoint> R, typename Visit>
void
visitFields(R &r, Visit &&visit)
{
    visit("point", r.point);
    visit("primitives", r.primitives);
    visit("latency_cycles", r.latencyCycles);
    visit("dsp", r.dsp);
    visit("bram_bits", r.bramBits);
    visit("lut", r.lut);
}

template <support::RecordOf<FrontierRound> R, typename Visit>
void
visitFields(R &r, Visit &&visit)
{
    visit("round", r.round);
    visit("strategy", r.strategy);
    visit("points", r.points);
}

namespace {

/** The document header up to and including the "events" array. */
std::string
header(const char *schema, const std::vector<JournalEntry> &entries,
       std::int64_t requestId)
{
    std::string out = "{\"schema\": \"";
    out += schema;
    out += "\", ";
    if (requestId >= 0)
        out += "\"request\": " + std::to_string(requestId) + ", ";
    out += "\"events\": ";
    support::writeRecords(out, entries, "");
    return out;
}

} // namespace

std::string
journalJson(const std::vector<JournalEntry> &entries,
            std::int64_t requestId)
{
    return header("pom-dse-journal/v1", entries, requestId) + "}\n";
}

std::string
journalJsonV2(const std::vector<JournalEntry> &entries,
              const std::vector<FrontierRound> &rounds,
              std::int64_t requestId)
{
    std::string out = header("pom-dse-journal/v2", entries, requestId);
    out += ",\n\"frontier\": ";
    support::writeRecords(out, rounds, "");
    out += "}\n";
    return out;
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
    support::JsonValue doc;
    if (!support::parseJson(text, doc, error))
        return false;
    if (!doc.isObject()) {
        error = "the document is not a JSON object";
        return false;
    }
    const support::JsonValue *schema = doc.find("schema");
    if (schema == nullptr) {
        error = "missing schema tag";
        return false;
    }
    std::string tag;
    if (!support::readValue(*schema, "schema", tag, error))
        return false;
    if (tag != "pom-dse-journal/v1" && tag != "pom-dse-journal/v2") {
        error = "unsupported schema '" + tag + "'";
        return false;
    }
    const support::JsonValue *events = doc.find("events");
    if (events == nullptr) {
        error = "missing events array";
        return false;
    }
    const support::JsonValue *frontier = doc.find("frontier");
    return support::readValue(*events, "events", out, error) &&
           (frontier == nullptr ||
            support::readValue(*frontier, "frontier", rounds, error));
}

} // namespace pom::obs
