/**
 * @file
 * Structural tests for the benchmark workloads: statement counts, loop
 * depths, fusion structure, and functional spot checks against plain
 * C++ references at small sizes.
 */

#include <gtest/gtest.h>

#include "check/fuzzer.h"
#include "ir/interpreter.h"
#include "ir/verifier.h"
#include "lower/lower.h"
#include "support/diagnostics.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;
using workloads::makeByName;

TEST(Workloads, AllByNameConstructAndVerify)
{
    for (const auto &name : workloads::allNames()) {
        // The DNN stacks' channel counts scale with the size.
        bool dnn = name == "vgg16" || name == "resnet18";
        auto w = makeByName(name, dnn ? check::defaultFuzzSize(name) : 32);
        auto lowered = lower::lower(w->func());
        auto errors = ir::verify(*lowered.func);
        EXPECT_TRUE(errors.empty()) << name << ": " << errors.size();
    }
}

TEST(Workloads, UnknownNameIsFatal)
{
    EXPECT_THROW(makeByName("nonsense", 32), support::FatalError);
}

TEST(Workloads, BicgIsOneFusedNest)
{
    auto w = makeByName("bicg", 32);
    auto lowered = lower::lower(w->func());
    // Exactly one i-loop at the top (both statements fused).
    EXPECT_EQ(lowered.astRoot->kind(), ast::AstNode::Kind::For);
    EXPECT_EQ(w->func().computes().size(), 2u);
}

TEST(Workloads, DnnCriticalLoopCounts)
{
    auto vgg = makeByName("vgg16", 512);
    // 13 critical conv loops (paper §VII.E).
    EXPECT_EQ(vgg->func().computes().size(), 13u);
    for (const dsl::Compute *c : vgg->func().computes())
        EXPECT_EQ(c->iters().size(), 6u);

    auto resnet = makeByName("resnet18", 512);
    // 17 convs + 3 residual loops = 20 critical loops.
    EXPECT_EQ(resnet->func().computes().size(), 20u);
    int convs = 0, residuals = 0;
    for (const dsl::Compute *c : resnet->func().computes()) {
        if (c->name().rfind("conv", 0) == 0)
            ++convs;
        if (c->name().rfind("residual", 0) == 0)
            ++residuals;
    }
    EXPECT_EQ(convs, 17);
    EXPECT_EQ(residuals, 3);
}

TEST(Workloads, GemmComputesMatMul)
{
    const std::int64_t n = 8;
    auto w = makeByName("gemm", n);
    auto lowered = lower::lower(w->func());
    auto buffers = ir::makeBuffersFor(*lowered.func, 5);
    std::vector<double> ref = buffers["C"]->data();
    const auto &a = buffers["A"]->data();
    const auto &b = buffers["B"]->data();
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t j = 0; j < n; ++j)
            for (std::int64_t k = 0; k < n; ++k)
                ref[i * n + j] += a[i * n + k] * b[k * n + j];
    ir::runFunction(*lowered.func, buffers);
    for (size_t x = 0; x < ref.size(); ++x)
        ASSERT_DOUBLE_EQ(buffers["C"]->data()[x], ref[x]);
}

TEST(Workloads, BicgComputesBothProducts)
{
    const std::int64_t n = 8;
    auto w = makeByName("bicg", n);
    auto lowered = lower::lower(w->func());
    auto buffers = ir::makeBuffersFor(*lowered.func, 9);
    std::vector<double> q_ref = buffers["q"]->data();
    std::vector<double> s_ref = buffers["s"]->data();
    const auto &a = buffers["A"]->data();
    const auto &p = buffers["p"]->data();
    const auto &r = buffers["r"]->data();
    for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            q_ref[i] += a[i * n + j] * p[j];
            s_ref[j] += r[i] * a[i * n + j];
        }
    }
    ir::runFunction(*lowered.func, buffers);
    for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_DOUBLE_EQ(buffers["q"]->data()[i], q_ref[i]);
        ASSERT_DOUBLE_EQ(buffers["s"]->data()[i], s_ref[i]);
    }
}

TEST(Workloads, SeidelInPlaceSemantics)
{
    const std::int64_t n = 10, steps = 2;
    auto w = workloads::makeSeidel2d(n, steps);
    auto lowered = lower::lower(w->func());
    auto buffers = ir::makeBuffersFor(*lowered.func, 3);
    std::vector<double> a = buffers["A"]->data();
    for (std::int64_t t = 0; t < steps; ++t) {
        for (std::int64_t i = 1; i < n - 1; ++i) {
            for (std::int64_t j = 1; j < n - 1; ++j) {
                a[i * n + j] =
                    (a[(i - 1) * n + j] + a[i * n + j - 1] + a[i * n + j] +
                     a[i * n + j + 1] + a[(i + 1) * n + j]) /
                    5.0;
            }
        }
    }
    ir::runFunction(*lowered.func, buffers);
    for (size_t x = 0; x < a.size(); ++x)
        ASSERT_DOUBLE_EQ(buffers["A"]->data()[x], a[x]);
}

TEST(Workloads, BlurMatchesReference)
{
    const std::int64_t n = 12;
    auto w = makeByName("blur", n);
    auto lowered = lower::lower(w->func());
    auto buffers = ir::makeBuffersFor(*lowered.func, 21);
    const auto &img = buffers["img"]->data();
    std::vector<double> bx(n * n, 0.0), out(n * n, 0.0);
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t j = 0; j < n - 2; ++j)
            bx[i * n + j] = (img[i * n + j] + img[i * n + j + 1] +
                             img[i * n + j + 2]) /
                            3.0;
    for (std::int64_t i = 0; i < n - 2; ++i)
        for (std::int64_t j = 0; j < n - 2; ++j)
            out[i * n + j] = (bx[i * n + j] + bx[(i + 1) * n + j] +
                              bx[(i + 2) * n + j]) /
                             3.0;
    ir::runFunction(*lowered.func, buffers);
    for (std::int64_t i = 0; i < n - 2; ++i) {
        for (std::int64_t j = 0; j < n - 2; ++j) {
            ASSERT_DOUBLE_EQ(buffers["out"]->data()[i * n + j],
                             out[i * n + j]);
        }
    }
}

TEST(Workloads, Jacobi1dMatchesFig16Reference)
{
    const std::int64_t n = 16, steps = 3;
    auto w = workloads::makeJacobi1d(n, steps);
    auto lowered = lower::lower(w->func());
    auto buffers = ir::makeBuffersFor(*lowered.func, 8);
    std::vector<double> a = buffers["A"]->data();
    std::vector<double> b = buffers["B"]->data();
    for (std::int64_t t = 0; t < steps; ++t) {
        for (std::int64_t i = 1; i < n - 1; ++i)
            b[i] = (a[i - 1] + a[i] + a[i + 1]) / 3.0;
        for (std::int64_t i = 1; i < n - 1; ++i)
            a[i] = b[i];
    }
    ir::runFunction(*lowered.func, buffers);
    for (std::int64_t i = 0; i < n; ++i)
        ASSERT_DOUBLE_EQ(buffers["A"]->data()[i], a[i]);
}

TEST(Workloads, EdgeDetectUsesAbsViaMax)
{
    const std::int64_t n = 10;
    auto w = makeByName("edgedetect", n);
    auto lowered = lower::lower(w->func());
    auto buffers = ir::makeBuffersFor(*lowered.func, 4);
    ir::runFunction(*lowered.func, buffers);
    // |gx| + |gy| is non-negative everywhere it was written.
    for (std::int64_t i = 1; i < n - 1; ++i) {
        for (std::int64_t j = 1; j < n - 1; ++j)
            EXPECT_GE(buffers["out"]->data()[i * n + j], 0.0);
    }
}

} // namespace
