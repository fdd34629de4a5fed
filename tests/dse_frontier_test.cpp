/**
 * @file
 * Property tests for the Pareto frontier (src/dse/pareto.h) and the
 * pluggable search strategies (src/dse/strategy.h): randomized
 * dominance invariants, insertion-order independence, no-op re-inserts,
 * run-to-run journal-v2 byte determinism, and the v2 round-trip
 * through the journal parser.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "cold_memos.h"
#include "dse/dse.h"
#include "dse/pareto.h"
#include "dse/strategy.h"
#include "obs/journal.h"
#include "obs/obs.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;
using dse::dominates;
using dse::FrontierPoint;
using dse::ParetoFrontier;

FrontierPoint
mk(std::uint64_t lat, std::int64_t dsp, std::int64_t bram,
   std::int64_t lut, const std::string &prims = "p", int point = 0)
{
    FrontierPoint p;
    p.point = point;
    p.primitives = prims;
    p.latencyCycles = lat;
    p.dsp = dsp;
    p.bramBits = bram;
    p.lut = lut;
    return p;
}

TEST(Dominance, StrictPartialOrder)
{
    FrontierPoint a = mk(100, 10, 0, 50);
    FrontierPoint b = mk(200, 10, 0, 50); // worse latency, equal rest
    FrontierPoint c = mk(200, 5, 0, 50);  // trades latency for DSPs

    EXPECT_TRUE(dominates(a, b));
    EXPECT_FALSE(dominates(b, a));
    EXPECT_FALSE(dominates(a, c)); // incomparable: c uses fewer DSPs
    EXPECT_FALSE(dominates(c, a));
    EXPECT_FALSE(dominates(a, a)); // irreflexive (strict dominance)
    // Equal objectives never dominate, whatever the primitives.
    FrontierPoint a2 = mk(100, 10, 0, 50, "other");
    EXPECT_FALSE(dominates(a, a2));
    EXPECT_FALSE(dominates(a2, a));
}

TEST(Frontier, KeepsIncomparableAndPrunesDominated)
{
    ParetoFrontier f;
    EXPECT_EQ(f.insert(mk(100, 10, 0, 50)), ParetoFrontier::Insert::Added);
    EXPECT_EQ(f.insert(mk(50, 20, 0, 50)), ParetoFrontier::Insert::Added);
    ASSERT_EQ(f.size(), 2u);

    // Dominates both members: they are pruned.
    EXPECT_EQ(f.insert(mk(40, 5, 0, 40)), ParetoFrontier::Insert::Added);
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f.points()[0].latencyCycles, 40u);

    // A dominated candidate never enters.
    EXPECT_EQ(f.insert(mk(40, 5, 0, 41)),
              ParetoFrontier::Insert::Dominated);
    EXPECT_EQ(f.size(), 1u);

    // Same objectives, different primitives: both designs coexist.
    EXPECT_EQ(f.insert(mk(40, 5, 0, 40, "alt")),
              ParetoFrontier::Insert::Added);
    EXPECT_EQ(f.size(), 2u);
    // Same objectives, same primitives: exact duplicate, a no-op.
    EXPECT_EQ(f.insert(mk(40, 5, 0, 40, "alt")),
              ParetoFrontier::Insert::Duplicate);
    EXPECT_EQ(f.size(), 2u);
}

// ----- randomized properties --------------------------------------------

/** Small coordinate ranges force plenty of dominance and ties. */
std::vector<FrontierPoint>
randomPoints(std::mt19937_64 &rng, size_t n)
{
    std::vector<FrontierPoint> pts;
    for (size_t i = 0; i < n; ++i) {
        FrontierPoint p;
        p.point = static_cast<int>(i);
        p.latencyCycles = rng() % 8;
        p.dsp = static_cast<std::int64_t>(rng() % 8);
        p.bramBits = static_cast<std::int64_t>(rng() % 4);
        p.lut = static_cast<std::int64_t>(rng() % 8);
        p.primitives = "p" + std::to_string(rng() % 3);
        pts.push_back(std::move(p));
    }
    return pts;
}

/** Canonical identity of a frontier member (the point id numbers the
 *  estimation order and is not part of the set identity). */
std::vector<std::string>
canonical(const ParetoFrontier &f)
{
    std::vector<std::string> keys;
    for (const auto &p : f.points()) {
        keys.push_back(std::to_string(p.latencyCycles) + "/" +
                       std::to_string(p.dsp) + "/" +
                       std::to_string(p.bramBits) + "/" +
                       std::to_string(p.lut) + "/" + p.primitives);
    }
    return keys;
}

/** Deterministic Fisher-Yates (std::shuffle is not portable). */
void
shuffle(std::vector<FrontierPoint> &pts, std::mt19937_64 &rng)
{
    for (size_t i = pts.size(); i > 1; --i)
        std::swap(pts[i - 1], pts[rng() % i]);
}

TEST(FrontierProperty, MembersAreMutuallyNonDominated)
{
    std::mt19937_64 rng(20240601);
    for (int trial = 0; trial < 1000; ++trial) {
        ParetoFrontier f;
        auto pts = randomPoints(rng, 1 + rng() % 24);
        for (const auto &p : pts)
            f.insert(p);

        const auto &m = f.points();
        ASSERT_FALSE(m.empty());
        for (size_t i = 0; i < m.size(); ++i) {
            for (size_t j = 0; j < m.size(); ++j) {
                if (i == j)
                    continue;
                EXPECT_FALSE(dominates(m[i], m[j]))
                    << "trial " << trial << ": member " << i
                    << " dominates member " << j;
            }
        }
        // Completeness: every inserted point is represented -- either a
        // member, or (weakly) dominated by one.
        for (const auto &p : pts) {
            bool covered = false;
            for (const auto &mem : m) {
                if (dominates(mem, p) ||
                    (mem.latencyCycles == p.latencyCycles &&
                     mem.dsp == p.dsp && mem.bramBits == p.bramBits &&
                     mem.lut == p.lut)) {
                    covered = true;
                    break;
                }
            }
            EXPECT_TRUE(covered) << "trial " << trial << ": point "
                                 << p.point << " fell through";
        }
    }
}

TEST(FrontierProperty, InsertionOrderDoesNotMatter)
{
    std::mt19937_64 rng(987654321);
    for (int trial = 0; trial < 1000; ++trial) {
        auto pts = randomPoints(rng, 1 + rng() % 16);

        ParetoFrontier ref;
        for (const auto &p : pts)
            ref.insert(p);
        auto ref_keys = canonical(ref);

        for (int s = 0; s < 3; ++s) {
            shuffle(pts, rng);
            ParetoFrontier f;
            for (const auto &p : pts)
                f.insert(p);
            EXPECT_EQ(canonical(f), ref_keys) << "trial " << trial;
        }
    }
}

TEST(FrontierProperty, DominatedAndDuplicateReinsertsAreNoOps)
{
    std::mt19937_64 rng(13371337);
    for (int trial = 0; trial < 1000; ++trial) {
        ParetoFrontier f;
        auto pts = randomPoints(rng, 4 + rng() % 16);
        for (const auto &p : pts)
            f.insert(p);
        auto before = canonical(f);

        // Re-inserting any original point must never change the set:
        // it is a duplicate of a member, has equal objectives to one,
        // or is dominated.
        for (const auto &p : pts) {
            auto r = f.insert(p);
            EXPECT_NE(r, ParetoFrontier::Insert::Added)
                << "trial " << trial;
            EXPECT_EQ(canonical(f), before) << "trial " << trial;
        }

        // An explicitly worsened member is always rejected.
        FrontierPoint worse = f.points()[rng() % f.size()];
        worse.latencyCycles += 1;
        worse.dsp += 1;
        EXPECT_EQ(f.insert(worse), ParetoFrontier::Insert::Dominated);
        EXPECT_EQ(canonical(f), before);
    }
}

// ----- strategies on the real DSE ---------------------------------------

/** One search on cold process memos, so every run does its own work. */
dse::DseResult
runDse(const std::string &name, std::int64_t size,
       dse::StrategyKind strategy)
{
    cold::clearProcessMemos();
    auto w = workloads::makeByName(name, size);
    dse::DseOptions opt;
    opt.strategy = strategy;
    return dse::autoDSE(w->func(), opt);
}

TEST(StrategyDeterminism, RepeatedRunsAreIdentical)
{
    // The anneal driver must be reproducible run-to-run (seeded
    // portable PRNG, no wall-clock or address-dependent state).
    dse::DseResult a = runDse("bicg", 64, dse::StrategyKind::Anneal);
    dse::DseResult b = runDse("bicg", 64, dse::StrategyKind::Anneal);
    EXPECT_EQ(obs::journalJsonV2(a.journal, a.frontierRounds),
              obs::journalJsonV2(b.journal, b.frontierRounds));
}

TEST(StrategyFrontier, InvariantsHoldOnRealSearches)
{
    for (auto kind : {dse::StrategyKind::Greedy, dse::StrategyKind::Beam,
                      dse::StrategyKind::Anneal}) {
        std::int64_t inserts0 = obs::counterValue("dse.frontier.inserts");
        dse::DseResult res = runDse("2mm", 64, kind);

        // The final journal-v2 round is the result's frontier: it is
        // non-empty and mutually non-dominated.
        ASSERT_FALSE(res.frontierRounds.empty());
        const auto &last = res.frontierRounds.back();
        EXPECT_EQ(last.strategy, dse::strategyName(kind));
        const std::vector<dse::FrontierPoint> &frontier = last.points;
        ASSERT_FALSE(frontier.empty()) << dse::strategyName(kind);
        for (size_t i = 0; i < frontier.size(); ++i) {
            for (size_t j = 0; j < frontier.size(); ++j) {
                if (i != j) {
                    EXPECT_FALSE(dominates(frontier[i], frontier[j]))
                        << dse::strategyName(kind);
                }
            }
        }
        // Rounds are numbered 1..N and the metrics moved.
        for (size_t i = 0; i < res.frontierRounds.size(); ++i)
            EXPECT_EQ(res.frontierRounds[i].round,
                      static_cast<int>(i) + 1);
        EXPECT_GT(obs::counterValue("dse.frontier.inserts"), inserts0);

        // The selected design is a frontier member (it must not be
        // dominated by anything the search estimated).
        bool selected_on_frontier = false;
        for (const auto &p : frontier) {
            if (p.latencyCycles == res.report.latencyCycles &&
                p.dsp == res.report.resources.dsp) {
                selected_on_frontier = true;
                break;
            }
        }
        EXPECT_TRUE(selected_on_frontier) << dse::strategyName(kind);
    }
}

TEST(JournalV2, RoundTripsThroughTheParser)
{
    dse::DseResult res = runDse("gemm", 64, dse::StrategyKind::Beam);
    std::string doc = obs::journalJsonV2(res.journal, res.frontierRounds);

    std::vector<obs::JournalEntry> entries;
    std::vector<obs::FrontierRound> rounds;
    std::string error;
    ASSERT_TRUE(obs::parseJournalJson(doc, entries, rounds, error))
        << error;
    ASSERT_EQ(entries.size(), res.journal.size());
    ASSERT_EQ(rounds.size(), res.frontierRounds.size());
    for (size_t r = 0; r < rounds.size(); ++r) {
        EXPECT_EQ(rounds[r].round, res.frontierRounds[r].round);
        EXPECT_EQ(rounds[r].strategy, res.frontierRounds[r].strategy);
        ASSERT_EQ(rounds[r].points.size(),
                  res.frontierRounds[r].points.size());
        for (size_t i = 0; i < rounds[r].points.size(); ++i) {
            const auto &got = rounds[r].points[i];
            const auto &want = res.frontierRounds[r].points[i];
            EXPECT_EQ(got.point, want.point);
            EXPECT_EQ(got.primitives, want.primitives);
            EXPECT_EQ(got.latencyCycles, want.latencyCycles);
            EXPECT_EQ(got.dsp, want.dsp);
            EXPECT_EQ(got.bramBits, want.bramBits);
            EXPECT_EQ(got.lut, want.lut);
        }
    }

    // A v1 document parses with zero frontier rounds.
    std::string v1 = obs::journalJson(res.journal);
    ASSERT_TRUE(obs::parseJournalJson(v1, entries, rounds, error))
        << error;
    EXPECT_TRUE(rounds.empty());
}

TEST(StrategyNames, ParseIsStrictAndTotal)
{
    dse::StrategyKind kind = dse::StrategyKind::Beam;
    EXPECT_TRUE(dse::parseStrategy("greedy", kind));
    EXPECT_EQ(kind, dse::StrategyKind::Greedy);
    EXPECT_TRUE(dse::parseStrategy("beam", kind));
    EXPECT_EQ(kind, dse::StrategyKind::Beam);
    EXPECT_TRUE(dse::parseStrategy("anneal", kind));
    EXPECT_EQ(kind, dse::StrategyKind::Anneal);

    // Unknown names fail without touching the output (no silent
    // default -- pomc turns this into a hard error).
    kind = dse::StrategyKind::Anneal;
    EXPECT_FALSE(dse::parseStrategy("", kind));
    EXPECT_FALSE(dse::parseStrategy("Greedy", kind));
    EXPECT_FALSE(dse::parseStrategy("bogus", kind));
    EXPECT_EQ(kind, dse::StrategyKind::Anneal);
    EXPECT_EQ(dse::strategyNames(), "greedy, beam, anneal");
}

} // namespace
