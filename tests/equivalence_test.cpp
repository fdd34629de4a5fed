/**
 * @file
 * Tests for the differential equivalence oracle, the dependence-legality
 * check and the schedule fuzzer (src/check/): a fixed-seed fuzz sweep
 * over every built-in workload, oracle detection of an intentionally
 * illegal transform, the golden digests of the fuzzer's schedules
 * (golden/fuzz_schedule_digests.txt), and DSE point-by-point
 * verification. Regenerate the digests (only for an intended change to
 * what the fuzzer generates or accepts) with
 *   POM_UPDATE_EXPECTED=1 ./equivalence_test \
 *       --gtest_filter='Fuzzer.SchedulesMatchTheGolden'
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "check/legality.h"
#include "check/oracle.h"
#include "dse/dse.h"
#include "golden_digests.h"
#include "lower/lower.h"
#include "support/diagnostics.h"
#include "transform/poly_stmt.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;
using pom::support::FatalError;

// ----- Oracle ------------------------------------------------------------

TEST(Oracle, UnscheduledFunctionIsEquivalentToItself)
{
    auto w = workloads::makeByName("gemm", 8);
    auto res = check::checkFunction(w->func());
    EXPECT_TRUE(res.equivalent);
    EXPECT_TRUE(res.message.empty());
    EXPECT_GT(res.refWork, 0u);
    EXPECT_EQ(res.refWork, res.testWork);
}

TEST(Oracle, LegalScheduleIsEquivalent)
{
    auto w = workloads::makeByName("gemm", 8);
    dsl::Compute *s = w->func().findCompute("s");
    ASSERT_NE(s, nullptr);
    dsl::Var i("i"), j("j"), i0("i0"), j0("j0"), i1("i1"), j1("j1");
    s->tile(i, j, 4, 4, i0, j0, i1, j1);
    s->pipeline(j0, 1);
    s->unroll(j1, 4);
    auto res = check::checkFunction(w->func());
    EXPECT_TRUE(res.equivalent) << res.message;
}

TEST(Oracle, CatchesIllegalTimeLoopInterchange)
{
    // Seidel is an in-place stencil: hoisting the spatial loop above the
    // time loop reverses the (t, i+1) -> (t+1, i) value flow. The oracle
    // must see diverging buffers and name the offending primitive.
    auto w = workloads::makeByName("seidel", 8);
    dsl::Compute *s = w->func().findCompute("s");
    ASSERT_NE(s, nullptr);
    s->interchange(dsl::Var("t"), dsl::Var("i"));
    auto res = check::checkFunction(w->func());
    ASSERT_FALSE(res.equivalent);
    ASSERT_TRUE(res.divergence.has_value());
    EXPECT_EQ(res.divergence->array, "A");
    EXPECT_NE(res.message.find("interchange(t, i)"), std::string::npos)
        << res.message;
}

// ----- Dependence legality ------------------------------------------------

TEST(Legality, GemmReductionInterchangeIsLegal)
{
    auto w = workloads::makeByName("gemm", 8);
    auto stmts = lower::extractStmts(w->func());
    ASSERT_EQ(stmts.size(), 1u);
    transform::interchange(stmts[0], "j", "k");
    EXPECT_TRUE(check::schedulePreservesDependences(stmts[0]));
}

TEST(Legality, ConvKernelInterchangeIsFlagged)
{
    // Strictness: swapping the reduction loops reorders a floating-point
    // accumulation, which the checker treats as a violated dependence.
    auto w = workloads::makeByName("conv2d", 8);
    auto stmts = lower::extractStmts(w->func());
    ASSERT_EQ(stmts.size(), 1u);
    transform::interchange(stmts[0], "ky", "kx");
    auto violation = check::findDependenceViolation(stmts[0]);
    ASSERT_TRUE(violation.has_value());
    EXPECT_NE(violation->find("out"), std::string::npos) << *violation;
}

TEST(Legality, SeidelTimeInterchangeIsFlagged)
{
    auto w = workloads::makeByName("seidel", 8);
    auto stmts = lower::extractStmts(w->func());
    ASSERT_EQ(stmts.size(), 1u);
    transform::interchange(stmts[0], "t", "i");
    EXPECT_FALSE(check::schedulePreservesDependences(stmts[0]));
}

TEST(Legality, SplitPreservesDependences)
{
    auto w = workloads::makeByName("seidel", 8);
    auto stmts = lower::extractStmts(w->func());
    transform::split(stmts[0], "i", 3, "i0", "i1");
    EXPECT_TRUE(check::schedulePreservesDependences(stmts[0]));
}

// ----- Fuzzer -------------------------------------------------------------

class FuzzSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(FuzzSweep, LegalSchedulesPassTheOracle)
{
    check::FuzzOptions options;
    options.seed = 7;
    options.cases = 10;
    auto res = check::fuzzWorkload(GetParam(), options);
    EXPECT_EQ(res.casesRun, 10);
    EXPECT_GT(res.opsGenerated, 0);
    EXPECT_TRUE(res.ok()) << res.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FuzzSweep,
    ::testing::Values("gemm", "bicg", "gesummv", "2mm", "3mm", "atax",
                      "mvt", "syrk", "conv2d", "jacobi1d", "jacobi2d",
                      "heat1d", "seidel", "edgedetect", "gaussian",
                      "blur", "vgg16", "resnet18"));

TEST(Fuzzer, UngatedTransformsAreCaughtAndShrunk)
{
    // With the legality gate off the fuzzer emits semantics-breaking
    // schedules on the in-place stencil; the oracle must catch at least
    // one, and the shrunk reproducer must itself still fail.
    check::FuzzOptions options;
    options.seed = 5;
    options.cases = 20;
    options.checkLegality = false;
    auto res = check::fuzzWorkload("seidel", options);
    ASSERT_FALSE(res.failures.empty());

    const check::FuzzFailure &f = res.failures.front();
    ASSERT_FALSE(f.ops.empty());
    EXPECT_FALSE(f.message.empty());
    EXPECT_FALSE(f.dsl.empty());
    EXPECT_NE(f.dsl.find("codegen()"), std::string::npos);

    // Replay the minimal reproducer from scratch: it must still diverge.
    auto w = workloads::makeByName(f.workload, f.size);
    ASSERT_TRUE(check::applyScheduleOps(*w, f.ops));
    bool failed = false;
    try {
        failed = !check::checkFunction(w->func()).equivalent;
    } catch (const FatalError &) {
        failed = true; // shrunk to a lowering crash: also a failure
    }
    EXPECT_TRUE(failed) << res.summary();

    // Minimality: removing any single primitive makes the case pass (or
    // invalidates the sequence), otherwise the shrinker missed a step.
    for (size_t skip = 0; skip < f.ops.size(); ++skip) {
        std::vector<check::ScheduleOp> trimmed = f.ops;
        trimmed.erase(trimmed.begin() + static_cast<std::ptrdiff_t>(skip));
        auto w2 = workloads::makeByName(f.workload, f.size);
        if (!check::applyScheduleOps(*w2, trimmed))
            continue;
        try {
            EXPECT_TRUE(check::checkFunction(w2->func()).equivalent)
                << "sub-sequence without op " << skip << " still fails";
        } catch (const FatalError &) {
            ADD_FAILURE() << "sub-sequence without op " << skip
                          << " still crashes";
        }
    }
}

TEST(Fuzzer, IsDeterministicPerSeed)
{
    check::FuzzOptions options;
    options.seed = 11;
    options.cases = 5;
    auto a = check::fuzzWorkload("jacobi2d", options);
    auto b = check::fuzzWorkload("jacobi2d", options);
    EXPECT_EQ(a.opsGenerated, b.opsGenerated);
    EXPECT_EQ(a.failures.size(), b.failures.size());
}

TEST(Fuzzer, LegalityGateScalesToLargeDomains)
{
    // The legality gate names a witness for each rejected candidate
    // with IntegerSet::lexMin(). At vgg16@64 seed 2 that violation
    // polytope has far more points than enumerate()'s limit, so lexMin
    // must stop at the first point instead of enumerating the set.
    auto w = workloads::makeByName("vgg16", 64);
    auto ops = check::generateSchedule(*w, 2);
    EXPECT_FALSE(ops.empty());
    auto replay = workloads::makeByName("vgg16", 64);
    EXPECT_TRUE(check::applyScheduleOps(*replay, ops));
}

TEST(Fuzzer, RejectsInvalidReplaySequences)
{
    auto w = workloads::makeByName("gemm", 8);
    check::ScheduleOp op;
    op.kind = check::ScheduleOp::Kind::Interchange;
    op.target = "s";
    op.vars = {"i", "nope"};
    EXPECT_FALSE(check::applyScheduleOps(*w, {op}));
}

/**
 * What one cell of golden/fuzz_schedule_digests.txt digests: the ops
 * check::generateSchedule() returns for @p name at its fuzz size, one
 * ScheduleOp::str() a line, then applyScheduleOps()' verdict ('1'
 * replays, '0' is refused) on each subsequence with one op removed --
 * the subsequences the shrinker tries.
 */
std::string
fuzzScheduleText(const std::string &name, unsigned seed, bool legality)
{
    const std::int64_t size = check::defaultFuzzSize(name);
    check::FuzzOptions options;
    options.checkLegality = legality;
    auto w = workloads::makeByName(name, size);
    const std::vector<check::ScheduleOp> ops =
        check::generateSchedule(*w, seed, options);
    std::string text;
    for (const auto &op : ops)
        text += op.str() + "\n";
    for (size_t skip = 0; skip < ops.size(); ++skip) {
        std::vector<check::ScheduleOp> trimmed = ops;
        trimmed.erase(trimmed.begin() + static_cast<std::ptrdiff_t>(skip));
        auto replay = workloads::makeByName(name, size);
        text += check::applyScheduleOps(*replay, trimmed) ? '1' : '0';
    }
    return text;
}

TEST(Fuzzer, SchedulesMatchTheGolden)
{
    // Seeds 1-8 of every workload, with the legality gate on and off:
    // which ops the fuzzer generates and which subsequences it replays
    // must not change behind a refactor of the fuzzer or the transforms.
    constexpr unsigned kSeeds = 8;
    const std::string path = golden::goldenPath("fuzz_schedule_digests.txt");
    golden::DigestTable table = golden::readDigestTable(path);
    const bool update = golden::updatingGoldens();
    for (const auto &name : workloads::allNames()) {
        for (bool legality : {true, false}) {
            const std::string gate = legality ? "on" : "off";
            std::vector<std::string> row;
            for (unsigned seed = 1; seed <= kSeeds; ++seed) {
                row.push_back(golden::digestOf(
                    fuzzScheduleText(name, seed, legality)));
            }
            if (update) {
                table[{name, gate}] = std::move(row);
                continue;
            }
            auto it = table.find({name, gate});
            if (it == table.end()) {
                ADD_FAILURE() << name << " " << gate << " has no row in "
                              << path
                              << " (regenerate with POM_UPDATE_EXPECTED=1)";
                continue;
            }
            EXPECT_EQ(it->second, row)
                << name << " legality " << gate
                << ": the generated schedules or their replay verdicts "
                   "changed";
        }
    }
    if (update) {
        EXPECT_TRUE(golden::writeDigestTable(
            path,
            "workload legality fnv1a64(generateSchedule ops + replay "
            "verdict of each one-op-removed subsequence) for seeds 1-8 at "
            "the fuzz size",
            workloads::allNames(), {"on", "off"}, table))
            << "cannot write " << path;
    }
}

// ----- DSE integration ----------------------------------------------------

TEST(DseVerify, EveryExploredPointPassesTheOracle)
{
    auto w = workloads::makeByName("gemm", 8);
    w->func().autoDSE();
    dse::DseOptions options;
    options.verifyEachPoint = true;
    auto res = dse::autoDSE(w->func(), options);
    EXPECT_GT(res.pointsExplored, 0);
    EXPECT_EQ(res.pointsVerified, res.pointsExplored);
}

TEST(DseVerify, OffByDefault)
{
    auto w = workloads::makeByName("gemm", 8);
    w->func().autoDSE();
    auto res = dse::autoDSE(w->func());
    EXPECT_GT(res.pointsExplored, 0);
    EXPECT_EQ(res.pointsVerified, 0);
}

} // namespace
