/**
 * @file
 * The DSE search journal: a machine-readable record of every decision
 * the two-stage DSE engine makes. One entry per event:
 *
 *  - kind "stage1"     — a dependence-aware transformation decision
 *                        (interchange/skew/split/re-fuse, or why one
 *                        was skipped).
 *  - kind "bottleneck" — a stage-2 bottleneck selection: which unit the
 *                        engine chose to parallelize next and the
 *                        latency that made it the bottleneck.
 *  - kind "point"      — one explored design point: the applied
 *                        primitives, estimated latency, resource usage
 *                        (DSP/BRAM/LUT/FF), and the accept/reject
 *                        verdict with its reason.
 *
 * Every entry serializes with the full fixed key set (schema
 * "pom-dse-journal/v1"), so downstream tooling can load the file
 * without per-kind special cases; tests pin the schema with a golden
 * file. Entries contain no wall-clock values — a journal for a given
 * workload is bit-reproducible.
 *
 * Schema "pom-dse-journal/v2" is a strict superset of v1: the same
 * "events" array (byte-identical records) plus a "frontier" array with
 * one section per stage-2 search round, each holding the Pareto
 * frontier over (latency_cycles, dsp, bram_bits, lut) after that
 * round. v1 documents remain parseable; the parser accepts both.
 *
 * Both documents are built from the records a DseResult carries (see
 * dse::DseResult::journal); there is no process-wide collector. Each
 * record type has one field table, which the emitter and the parser
 * walk through support/record.h -- the codec of the wire frames and the
 * node-cache spill too: the parser checks each known key's type and
 * range and names the key it rejects.
 */

#ifndef POM_OBS_JOURNAL_H
#define POM_OBS_JOURNAL_H

#include <cstdint>
#include <string>
#include <vector>

namespace pom::obs {

/** One DSE search event. Unused numeric fields stay zero. */
struct JournalEntry
{
    std::string kind;  ///< "stage1" | "bottleneck" | "point"
    std::string phase; ///< "baseline"|"stage1"|"stage2-init"|"stage2"|"final"

    /** Human-readable decision description (stage1/bottleneck). */
    std::string detail;

    /** Design-point index (1-based estimation order); -1 otherwise. */
    int point = -1;

    /** Applied primitives, e.g. "S0:degree=4; partition A=[1,4]:cyclic". */
    std::string primitives;

    // Estimated performance/resources of a design point.
    std::uint64_t latencyCycles = 0;
    std::int64_t dsp = 0;
    std::int64_t bramBits = 0;
    std::int64_t lut = 0;
    std::int64_t ff = 0;

    std::string verdict; ///< "accepted" | "rejected" | "info"
    std::string reason;  ///< why the verdict was reached
};

/**
 * One point on a Pareto frontier snapshot: the journal point id it was
 * estimated as, its primitives summary, and the four objectives the
 * multi-objective DSE minimizes (latency, DSP, BRAM bits, and LUTs as
 * the linear power proxy's dominant resource term).
 */
struct FrontierPoint
{
    int point = -1;
    std::string primitives;
    std::uint64_t latencyCycles = 0;
    std::int64_t dsp = 0;
    std::int64_t bramBits = 0;
    std::int64_t lut = 0;
};

/** The frontier after one stage-2 search round (a v2 journal section). */
struct FrontierRound
{
    int round = 0;        ///< 1-based round counter
    std::string strategy; ///< "greedy" | "beam" | "anneal"
    std::vector<FrontierPoint> points;
};

/**
 * Serialize entries as the pom-dse-journal/v1 JSON document. When
 * @p requestId >= 0 the header gains a `"request": N` key -- the only
 * permitted divergence between daemon-served and one-shot journals
 * (the daemon stamps its monotonic request ID; one-shot runs never
 * stamp, keeping their documents byte-identical across transports).
 */
std::string journalJson(const std::vector<JournalEntry> &entries,
                        std::int64_t requestId = -1);

/**
 * Serialize entries plus per-round frontier snapshots as the
 * pom-dse-journal/v2 JSON document. The "events" array is byte-for-byte
 * what journalJson emits for the same entries. @p requestId behaves as
 * in journalJson.
 */
std::string journalJsonV2(const std::vector<JournalEntry> &entries,
                          const std::vector<FrontierRound> &rounds,
                          std::int64_t requestId = -1);

/**
 * Parse a pom-dse-journal/v1 or /v2 document back into entries (the
 * inverse of journalJson; what `pomc --replay-journal` loads). Unknown
 * keys are ignored so minor-version documents stay readable. Returns
 * false -- with @p error describing the first problem -- on malformed
 * JSON, a wrong schema tag, or a known key whose value has the wrong
 * type or does not fit its field: an integer field takes any exact
 * integral value (`2.0` reads as 2, `2.5` is an error), `point` and
 * `round` must fit an int, and `latency_cycles` must not be negative.
 */
bool parseJournalJson(const std::string &text,
                      std::vector<JournalEntry> &out, std::string &error);

/** As above, additionally capturing the v2 frontier sections (empty
 *  for a v1 document). */
bool parseJournalJson(const std::string &text,
                      std::vector<JournalEntry> &out,
                      std::vector<FrontierRound> &rounds,
                      std::string &error);

} // namespace pom::obs

#endif // POM_OBS_JOURNAL_H
