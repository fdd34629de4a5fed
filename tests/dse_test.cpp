/**
 * @file
 * Tests for the two-stage DSE engine and the baseline strategies:
 * stage-1 split-interchange-merge on BICG (Fig. 10), skew convergence on
 * Seidel, bottleneck-driven stage 2, resource-constraint compliance,
 * the semantic-preservation property of every selected design, and the
 * golden digests of every `--framework` baseline's report line and HLS
 * C (golden/framework_digests.txt). Regenerate those (only for an
 * intended baseline, estimator or codegen change) with
 *   POM_UPDATE_EXPECTED=1 ./dse_test --gtest_filter='FrameworkDigests.*'
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "check/fuzzer.h"
#include "dse/dse.h"
#include "golden_digests.h"
#include "ir/interpreter.h"
#include "ir/verifier.h"
#include "lower/lower.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;
using workloads::makeByName;

/** The selected design must compute the same values as the input. */
void
expectDesignPreservesSemantics(dsl::Function &func,
                               const lower::LoweredFunction &design)
{
    auto ref_stmts = lower::extractStmts(func);
    lower::applyDirectives(func, ref_stmts, /*ordering_only=*/true);
    auto plain = lower::lowerStmts(func, std::move(ref_stmts));
    ASSERT_TRUE(ir::verify(*plain.func).empty());
    ASSERT_TRUE(ir::verify(*design.func).empty());
    auto b1 = ir::makeBuffersFor(*plain.func, 77);
    auto b2 = ir::makeBuffersFor(*design.func, 77);
    ir::runFunction(*plain.func, b1);
    ir::runFunction(*design.func, b2);
    for (const auto &[name, buf] : b1) {
        const auto &got = b2.at(name)->data();
        for (size_t i = 0; i < buf->data().size(); ++i) {
            ASSERT_DOUBLE_EQ(got[i], buf->data()[i])
                << "buffer " << name << " index " << i;
        }
    }
}

/** The journaled stage-1 decisions of a search, in order. */
std::vector<std::string>
stage1Details(const dse::DseResult &result)
{
    std::vector<std::string> out;
    for (const auto &e : result.journal) {
        if (e.kind == "stage1")
            out.push_back(e.detail);
    }
    return out;
}

TEST(Dse, GemmFindsParallelDesign)
{
    auto w = makeByName("gemm", 64);
    auto result = dse::autoDSE(w->func());
    EXPECT_GT(result.speedup(), 20.0);
    EXPECT_TRUE(
        result.report.resources.fitsIn(hls::Device::xc7z020()));
    EXPECT_LE(result.report.worstII(), 2);
    EXPECT_GT(result.pointsExplored, 2);
    EXPECT_GE(result.dseSeconds, 0.0);
    expectDesignPreservesSemantics(w->func(), result.design->lowered);
}

TEST(Dse, BicgSplitInterchangeMerge)
{
    auto w = makeByName("bicg", 64);
    auto result = dse::autoDSE(w->func());
    // Stage 1 must split the fused nest (conflicting strategies),
    // transform, and conservatively re-fuse (Fig. 10).
    bool saw_split = false, saw_refuse = false;
    for (const std::string &detail : stage1Details(result)) {
        if (detail.find("split fused nest") != std::string::npos)
            saw_split = true;
        if (detail.find("re-fused") != std::string::npos)
            saw_refuse = true;
    }
    EXPECT_TRUE(saw_split);
    EXPECT_TRUE(saw_refuse);
    EXPECT_LE(result.report.worstII(), 4);
    EXPECT_GT(result.speedup(), 10.0);
    expectDesignPreservesSemantics(w->func(), result.design->lowered);
}

TEST(Dse, SeidelSkewConverges)
{
    auto w = makeByName("seidel", 18); // small for interpretation
    auto result = dse::autoDSE(w->func());
    bool saw_skew = false, saw_interchange = false;
    for (const std::string &detail : stage1Details(result)) {
        if (detail.find("skew") != std::string::npos)
            saw_skew = true;
        if (detail.find("interchange") != std::string::npos)
            saw_interchange = true;
    }
    EXPECT_TRUE(saw_skew);
    EXPECT_TRUE(saw_interchange);
    EXPECT_GT(result.speedup(), 1.0);
    expectDesignPreservesSemantics(w->func(), result.design->lowered);
}

TEST(Dse, JacobiSharedTimeLoopSurvives)
{
    auto w = makeByName("jacobi1d", 34);
    auto result = dse::autoDSE(w->func());
    EXPECT_GT(result.speedup(), 3.0);
    expectDesignPreservesSemantics(w->func(), result.design->lowered);
}

TEST(Dse, ResourceFractionLimitsParallelism)
{
    auto w_full = makeByName("gemm", 64);
    dse::DseOptions full;
    auto r_full = dse::autoDSE(w_full->func(), full);

    auto w_quarter = makeByName("gemm", 64);
    dse::DseOptions quarter;
    quarter.resourceFraction = 0.25;
    auto r_quarter = dse::autoDSE(w_quarter->func(), quarter);

    EXPECT_TRUE(r_quarter.report.resources.fitsIn(
        hls::Device::xc7z020().scaled(0.25)));
    EXPECT_LE(r_full.report.latencyCycles,
              r_quarter.report.latencyCycles);
    EXPECT_GE(r_full.report.resources.dsp,
              r_quarter.report.resources.dsp);
}

TEST(Dse, ParallelismRecordedPerStatement)
{
    auto w = makeByName("2mm", 64);
    auto result = dse::autoDSE(w->func());
    ASSERT_EQ(result.parallelism.size(), 2u);
    for (const auto &[name, degree] : result.parallelism)
        EXPECT_GE(degree, 1);
    EXPECT_GT(result.speedup(), 10.0);
}

TEST(Baselines, OrderingOnBicg)
{
    // The paper's Fig. 2 ordering: baseline ~ Pluto < POLSCA < ScaleHLS
    // < POM.
    auto base = makeByName("bicg", 256);
    auto r_unopt = baselines::runUnoptimized(base->func());

    auto w_pluto = makeByName("bicg", 256);
    auto r_pluto = baselines::runPlutoLike(w_pluto->func());

    auto w_polsca = makeByName("bicg", 256);
    auto r_polsca = baselines::runPolscaLike(w_polsca->func());

    auto w_scale = makeByName("bicg", 256);
    auto r_scale = baselines::runScaleHlsLike(w_scale->func());

    auto w_pom = makeByName("bicg", 256);
    auto r_pom = baselines::runPom(w_pom->func());

    double pluto = r_pluto.report.speedupOver(r_unopt.report);
    double polsca = r_polsca.report.speedupOver(r_unopt.report);
    double scale = r_scale.report.speedupOver(r_unopt.report);
    double pom = r_pom.report.speedupOver(r_unopt.report);

    EXPECT_NEAR(pluto, 1.0, 0.5);      // CPU schedule: no FPGA benefit
    EXPECT_GT(polsca, pluto * 0.9);    // pipelining helps a little
    EXPECT_LT(polsca, 6.0);            // ... but dependences remain
    EXPECT_GT(scale, polsca);          // directives DSE helps more
    EXPECT_GT(pom, scale * 1.5);       // split-interchange-merge wins
    // ScaleHLS cannot relieve both statements: its II stays high.
    EXPECT_GT(r_scale.report.worstII(), r_pom.report.worstII());
}

TEST(Baselines, ScaleHlsCliffAtHugeSizes)
{
    auto w = makeByName("gemm", 8192);
    auto r = baselines::runScaleHlsLike(w->func());
    EXPECT_NE(r.notes.find("basic pipelining"), std::string::npos);

    auto w2 = makeByName("gemm", 8192);
    auto r_pom = baselines::runPom(w2->func());
    EXPECT_LT(r_pom.report.latencyCycles, r.report.latencyCycles);

    // The cliff is exactly at 8192: one size below, the design space
    // still holds tile/unroll/partition.
    auto below = makeByName("gemm", 4096);
    auto r_below = baselines::runScaleHlsLike(below->func());
    EXPECT_EQ(r_below.notes.find("basic pipelining"), std::string::npos)
        << r_below.notes;
}

TEST(Baselines, DesignsPreserveSemantics)
{
    // Each baseline's transformed design must still compute the same
    // function (annotations never change semantics).
    auto check = [](auto runner) {
        auto w = makeByName("bicg", 24);
        auto r = runner(w->func());
        expectDesignPreservesSemantics(w->func(), r.design->lowered);
    };
    check([](dsl::Function &f) { return baselines::runPlutoLike(f); });
    check([](dsl::Function &f) { return baselines::runPolscaLike(f); });
    check([](dsl::Function &f) { return baselines::runScaleHlsLike(f); });
}

// ----- golden digests of the --framework baselines -------------------------

/**
 * The golden table: (framework, workload) -> digests of its report line
 * and HLS C.
 */
const std::string &
frameworkDigestPath()
{
    static const std::string path =
        golden::goldenPath("framework_digests.txt");
    return path;
}

/**
 * Run one baseline on every workload at size 64 and hold the report
 * line `pomc --framework` prints and the HLS C of its design to their
 * golden digests: the baselines share the estimator and the lowering
 * with POM, and nothing else pins their output.
 */
void
checkFrameworkDigests(
    const std::string &framework,
    const std::function<baselines::BaselineResult(dsl::Function &)> &run)
{
    golden::DigestTable table =
        golden::readDigestTable(frameworkDigestPath());
    const bool update = golden::updatingGoldens();
    const hls::Device device = hls::Device::xc7z020();
    for (const auto &name : workloads::allNames()) {
        auto w = makeByName(name, 64);
        baselines::BaselineResult r = run(w->func());
        std::string report = golden::digestOf(r.report.str(device));
        std::string hls_c = golden::digestOf(r.design->hlsC());
        if (update) {
            table[{framework, name}] = {report, hls_c};
            continue;
        }
        auto it = table.find({framework, name});
        if (it == table.end() || it->second.size() != 2) {
            ADD_FAILURE() << framework << " " << name
                          << " has no digest in " << frameworkDigestPath()
                          << " (regenerate with POM_UPDATE_EXPECTED=1)";
            continue;
        }
        EXPECT_EQ(it->second[0], report)
            << framework << " " << name << ": the report line changed";
        EXPECT_EQ(it->second[1], hls_c)
            << framework << " " << name << ": the HLS C changed";
    }
    if (update) {
        EXPECT_TRUE(golden::writeDigestTable(
            frameworkDigestPath(),
            "framework workload fnv1a64(report line) fnv1a64(HLS C) at "
            "size 64",
            {"scalehls", "polsca", "pluto", "none"}, workloads::allNames(),
            table))
            << "cannot write " << frameworkDigestPath();
    }
}

TEST(FrameworkDigests, ScaleHlsLike)
{
    checkFrameworkDigests("scalehls", [](dsl::Function &f) {
        return baselines::runScaleHlsLike(f);
    });
}

TEST(FrameworkDigests, PolscaLike)
{
    checkFrameworkDigests("polsca", [](dsl::Function &f) {
        return baselines::runPolscaLike(f);
    });
}

TEST(FrameworkDigests, PlutoLike)
{
    checkFrameworkDigests("pluto", [](dsl::Function &f) {
        return baselines::runPlutoLike(f);
    });
}

TEST(FrameworkDigests, Unoptimized)
{
    checkFrameworkDigests("none", [](dsl::Function &f) {
        return baselines::runUnoptimized(f);
    });
}

/**
 * Property sweep: the design every search strategy selects stays
 * correct across workloads, at the size `pomc --verify` checks and,
 * for twelve of them, also at a larger size of their own. The name is
 * a std::string so the test name prints it, not its address.
 */
class DseSemanticsSweep
    : public ::testing::TestWithParam<std::pair<std::string, int>>
{};

TEST_P(DseSemanticsSweep, DesignMatchesReference)
{
    auto [name, size] = GetParam();
    for (auto kind : {dse::StrategyKind::Greedy, dse::StrategyKind::Beam,
                      dse::StrategyKind::Anneal}) {
        SCOPED_TRACE(dse::strategyName(kind));
        auto w = makeByName(name, size);
        dse::DseOptions opt;
        opt.strategy = kind;
        auto result = dse::autoDSE(w->func(), opt);
        expectDesignPreservesSemantics(w->func(), result.design->lowered);
        EXPECT_GE(result.speedup(), 1.0);
    }
}

/** A sweep case at the size `pomc --verify` uses for @p name. */
std::pair<std::string, int>
verifySized(const std::string &name)
{
    return {name, static_cast<int>(check::defaultFuzzSize(name))};
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DseSemanticsSweep,
    ::testing::Values(std::make_pair("gemm", 20),
                      std::make_pair("bicg", 24),
                      std::make_pair("gesummv", 24),
                      std::make_pair("2mm", 16),
                      std::make_pair("3mm", 12),
                      std::make_pair("jacobi1d", 34),
                      std::make_pair("heat1d", 34),
                      std::make_pair("jacobi2d", 18),
                      std::make_pair("seidel", 14),
                      std::make_pair("blur", 16),
                      std::make_pair("gaussian", 16),
                      std::make_pair("edgedetect", 16),
                      verifySized("gemm"), verifySized("bicg"),
                      verifySized("gesummv"), verifySized("2mm"),
                      verifySized("3mm"), verifySized("jacobi1d"),
                      verifySized("heat1d"), verifySized("jacobi2d"),
                      verifySized("seidel"), verifySized("blur"),
                      verifySized("gaussian"), verifySized("edgedetect"),
                      verifySized("atax"), verifySized("mvt"),
                      verifySized("syrk"), verifySized("conv2d"),
                      verifySized("vgg16"), verifySized("resnet18")));

} // namespace
