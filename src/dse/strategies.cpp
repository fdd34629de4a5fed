#include "dse/strategy.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <utility>

#include "support/splitmix64.h"

namespace pom::dse {

const char *
strategyName(StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::Greedy: return "greedy";
      case StrategyKind::Beam: return "beam";
      case StrategyKind::Anneal: return "anneal";
    }
    return "greedy";
}

std::string
strategyNames()
{
    return "greedy, beam, anneal";
}

bool
parseStrategy(const std::string &name, StrategyKind &out)
{
    if (name == "greedy") {
        out = StrategyKind::Greedy;
        return true;
    }
    if (name == "beam") {
        out = StrategyKind::Beam;
        return true;
    }
    if (name == "anneal") {
        out = StrategyKind::Anneal;
        return true;
    }
    return false;
}

std::uint64_t
StrategyContext::unitLatency(const hls::SynthesisReport &report,
                             size_t unit) const
{
    std::uint64_t lat = 0;
    for (const std::string &name : unitMembers[unit]) {
        for (const auto &[nest, cycles] : report.nestLatencies) {
            if (nest == name)
                lat = std::max(lat, cycles);
        }
    }
    return lat;
}

bool
StrategyContext::canDouble(size_t unit, std::int64_t degree) const
{
    return degree * 2 <= maxParallelism && degree * 2 <= maxDegree[unit];
}

namespace {

/** Beam width of the beam strategy. */
constexpr int kBeamWidth = 4;

/** Annealing schedule: rounds, proposals per round, and PRNG seed. */
constexpr int kAnnealRounds = 16;
constexpr int kAnnealBatch = 4;
constexpr std::uint64_t kAnnealSeed = 1;

/**
 * Upper bound on evaluated points for the population strategies
 * (beam/anneal); greedy ignores it. Keeps deep workloads (the DNN
 * stacks) affordable while the node cache absorbs re-visits.
 */
constexpr size_t kPointBudget = 192;

using Degrees = std::vector<std::int64_t>;

bool
fits(const StrategyContext &ctx, const PointEval &ev)
{
    return ev.report.resources.fitsIn(ctx.device);
}

/** The paper's bottleneck walk: each round visits the open units in
 *  (latency desc, index asc) order. A unit at max parallelism leaves
 *  the list; otherwise its doubled degree is trialled, and a rejection
 *  also removes it. The first acceptance ends the round, and the next
 *  round re-orders from the new incumbent. */
Degrees
greedy(const StrategyContext &ctx, const PointEval &init, Search &search)
{
    Degrees degrees(ctx.numUnits(), 1);
    std::vector<bool> open(ctx.numUnits(), true);
    PointEval best = init;
    while (true) {
        std::vector<std::pair<size_t, std::uint64_t>> order;
        for (size_t u = 0; u < ctx.numUnits(); ++u) {
            if (open[u])
                order.emplace_back(u, ctx.unitLatency(best.report, u));
        }
        if (order.empty())
            return degrees;
        std::stable_sort(order.begin(), order.end(),
                         [](const auto &a, const auto &b) {
                             return a.second > b.second;
                         });
        for (const auto &[u, latency] : order) {
            obs::JournalEntry e;
            e.kind = "bottleneck";
            e.phase = "stage2";
            e.detail = "selected " + ctx.unitNames[u] + " as bottleneck";
            e.latencyCycles = latency;
            e.verdict = "info";
            e.reason = "largest nest latency among open units";
            search.event(e);
            if (!ctx.canDouble(u, degrees[u])) {
                open[u] = false; // exit mechanism: max parallelism
                search.note("bottleneck", "stage2",
                            "stage2: unit reached max parallelism, removed");
                continue;
            }
            Degrees trial = degrees;
            trial[u] *= 2;
            PointEval ev = search.evaluate(trial);
            if (!fits(ctx, ev)) {
                search.point(ev, "rejected", "exceeds resource budget");
                open[u] = false; // exit mechanism: resource bound
                continue;
            }
            if (ev.report.latencyCycles >= best.report.latencyCycles) {
                search.point(ev, "rejected", "no latency improvement");
                open[u] = false;
                continue;
            }
            degrees = std::move(trial);
            best = std::move(ev);
            search.point(best, "accepted", "latency improved");
            break;
        }
        search.endRound();
    }
}

/** Joined degree key for visited-set dedup ("1,4,2"). */
std::string
configKey(const Degrees &degrees)
{
    std::string key;
    for (std::int64_t d : degrees) {
        key += key.empty() ? "" : ",";
        key += std::to_string(d);
    }
    return key;
}

/** Breadth-first beam search: every round expands each beam member by
 *  doubling one unit's degree, evaluates the deduplicated successor
 *  set (built whole, cut at the point budget, before any evaluation),
 *  and keeps the `kBeamWidth` feasible candidates with the lowest
 *  latency (ties broken by primitives, so the beam is independent of
 *  evaluation order). */
Degrees
beam(const StrategyContext &ctx, const PointEval &init, Search &search)
{
    struct Candidate
    {
        std::uint64_t latency = 0;
        std::string primitives;
        Degrees degrees;
    };

    Degrees best(ctx.numUnits(), 1);
    std::set<std::string> visited{configKey(best)};
    std::vector<Degrees> members{best};
    bool bestFeasible = fits(ctx, init);
    std::uint64_t bestLatency = bestFeasible ? init.report.latencyCycles : 0;
    size_t evaluated = 0;
    while (evaluated < kPointBudget) {
        std::vector<Degrees> successors;
        for (const Degrees &member : members) {
            for (size_t u = 0; u < ctx.numUnits() &&
                               evaluated + successors.size() < kPointBudget;
                 ++u) {
                if (!ctx.canDouble(u, member[u]))
                    continue;
                Degrees cfg = member;
                cfg[u] *= 2;
                if (visited.insert(configKey(cfg)).second)
                    successors.push_back(std::move(cfg));
            }
        }
        if (successors.empty())
            break;

        std::vector<Candidate> feasible;
        for (Degrees &cfg : successors) {
            PointEval ev = search.evaluate(cfg);
            ++evaluated;
            if (!fits(ctx, ev)) {
                search.point(ev, "rejected", "exceeds resource budget");
                continue;
            }
            search.point(ev, "accepted", "feasible beam candidate");
            if (!bestFeasible || ev.report.latencyCycles < bestLatency) {
                bestFeasible = true;
                bestLatency = ev.report.latencyCycles;
                best = cfg;
            }
            feasible.push_back({ev.report.latencyCycles,
                                std::move(ev.primitives), std::move(cfg)});
        }

        size_t kept = std::min(feasible.size(),
                               static_cast<size_t>(kBeamWidth));
        std::stable_sort(feasible.begin(), feasible.end(),
                         [](const Candidate &a, const Candidate &b) {
                             return std::tie(a.latency, a.primitives) <
                                    std::tie(b.latency, b.primitives);
                         });
        members.clear();
        for (size_t i = 0; i < kept; ++i)
            members.push_back(std::move(feasible[i].degrees));
        search.note("strategy", "stage2",
                    "beam: kept " + std::to_string(kept) + " of " +
                        std::to_string(feasible.size()) +
                        " feasible candidates");
        search.endRound();
    }
    return best;
}

/** Batched simulated annealing: each round draws `kAnnealBatch`
 *  neighbors of the round's starting configuration (double or halve
 *  one unit's degree) before it evaluates any, then applies Metropolis
 *  acceptance to each in draw order. All randomness comes from one
 *  seeded stream, so the trajectory is the same on every run. */
Degrees
anneal(const StrategyContext &ctx, const PointEval &init, Search &search)
{
    support::SplitMix64 rng(kAnnealSeed);
    Degrees current(ctx.numUnits(), 1);
    Degrees best = current;
    bool feasible = fits(ctx, init);
    std::uint64_t currentLatency =
        feasible ? init.report.latencyCycles : UINT64_MAX;
    std::uint64_t bestLatency = currentLatency;
    double temperature = std::max<double>(
        1.0, static_cast<double>(init.report.latencyCycles) * 0.25);
    size_t evaluated = 0;
    for (int round = 1; round <= kAnnealRounds && evaluated < kPointBudget;
         ++round) {
        std::vector<Degrees> proposals;
        for (int b = 0; b < kAnnealBatch; ++b) {
            size_t u = static_cast<size_t>(rng.next() % ctx.numUnits());
            bool up = (rng.next() & 1) != 0;
            Degrees cfg = current;
            bool can_double = ctx.canDouble(u, cfg[u]);
            bool can_halve = cfg[u] > 1;
            if (can_double && (up || !can_halve))
                cfg[u] *= 2;
            else if (can_halve)
                cfg[u] /= 2;
            else
                continue; // degree pinned at 1; nothing to propose
            proposals.push_back(std::move(cfg));
            if (evaluated + proposals.size() >= kPointBudget)
                break;
        }
        // A fully pinned design space (every unit at max degree 1)
        // produces no proposals; terminate instead of spinning.
        if (proposals.empty())
            break;

        for (Degrees &cfg : proposals) {
            PointEval ev = search.evaluate(cfg);
            ++evaluated;
            if (!fits(ctx, ev)) {
                search.point(ev, "rejected", "exceeds resource budget");
                continue;
            }
            std::uint64_t lat = ev.report.latencyCycles;
            bool accept = !feasible || lat < currentLatency ||
                          rng.nextUnit() <
                              std::exp(-static_cast<double>(
                                           lat - currentLatency) /
                                       temperature);
            if (!accept) {
                search.point(ev, "rejected", "metropolis reject");
                continue;
            }
            search.point(ev, "accepted", "metropolis accept");
            feasible = true;
            currentLatency = lat;
            current = std::move(cfg);
            if (lat < bestLatency) {
                bestLatency = lat;
                best = current;
            }
        }
        temperature = std::max(1.0, temperature * 0.8);
        search.note("strategy", "stage2",
                    "anneal: round " + std::to_string(round) + " of " +
                        std::to_string(kAnnealRounds) + " done");
        search.endRound();
    }
    return best;
}

} // namespace

std::vector<std::int64_t>
runStrategy(StrategyKind kind, const StrategyContext &ctx,
            const PointEval &init, Search &search)
{
    switch (kind) {
      case StrategyKind::Greedy: return greedy(ctx, init, search);
      case StrategyKind::Beam: return beam(ctx, init, search);
      case StrategyKind::Anneal: return anneal(ctx, init, search);
    }
    return greedy(ctx, init, search);
}

} // namespace pom::dse
