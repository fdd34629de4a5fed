/**
 * @file
 * Focused interpreter tests beyond the ir_test basics: affine.if guards
 * (inequality and equality), non-rectangular loop bounds (triangular,
 * divisor-carrying, and DSL-skewed nests) and reduction statements.
 */

#include <gtest/gtest.h>

#include "dsl/dsl.h"
#include "ir/builder.h"
#include "ir/interpreter.h"
#include "ir/verifier.h"
#include "lower/lower.h"
#include "workloads/workloads.h"

namespace {

using namespace pom::ir;
using pom::poly::AffineMap;
using pom::poly::Bound;
using pom::poly::Constraint;
using pom::poly::DimBounds;
using pom::poly::LinearExpr;

DimBounds
constBounds(size_t depth, std::int64_t lo, std::int64_t hi)
{
    DimBounds b;
    b.lower.push_back(Bound{LinearExpr::constant(depth + 1, lo), 1});
    b.upper.push_back(Bound{LinearExpr::constant(depth + 1, hi), 1});
    return b;
}

// ----- affine.if ----------------------------------------------------------

TEST(InterpreterIf, ConjunctionOfInequalities)
{
    // for i in 0..9: if (i >= 3 && 7 - i >= 0) A[i] = 1
    auto func = OpBuilder::makeFunc("band");
    Value *a = OpBuilder::addFuncArg(
        *func, Type::memref(ScalarKind::F32, {10}), "A");
    OpBuilder builder(&func->region(0));
    Operation *loop = builder.createFor(constBounds(0, 0, 9), "i", {});
    Value *iv = loop->region(0).argument(0);
    builder.setInsertionBlock(&loop->region(0));
    Operation *guard = builder.createIf(
        {Constraint{LinearExpr({1}, -3), false},
         Constraint{LinearExpr({-1}, 7), false}},
        {iv});
    builder.setInsertionBlock(&guard->region(0));
    Value *one = builder.createConstant(1.0, Type::f32());
    builder.createStore(one, a,
                        AffineMap({"i"}, {LinearExpr::dim(1, 0)}), {iv});

    EXPECT_TRUE(verify(*func).empty());
    BufferMap buffers = makeBuffersFor(*func);
    buffers["A"]->fill(0.0);
    runFunction(*func, buffers);
    for (std::int64_t i = 0; i < 10; ++i) {
        EXPECT_DOUBLE_EQ(buffers["A"]->data()[i],
                         (i >= 3 && i <= 7) ? 1.0 : 0.0)
            << "i=" << i;
    }
}

TEST(InterpreterIf, EqualityConstraint)
{
    // for i in 0..9: if (i - 4 == 0) A[i] = 1
    auto func = OpBuilder::makeFunc("spike");
    Value *a = OpBuilder::addFuncArg(
        *func, Type::memref(ScalarKind::F32, {10}), "A");
    OpBuilder builder(&func->region(0));
    Operation *loop = builder.createFor(constBounds(0, 0, 9), "i", {});
    Value *iv = loop->region(0).argument(0);
    builder.setInsertionBlock(&loop->region(0));
    Operation *guard =
        builder.createIf({Constraint{LinearExpr({1}, -4), true}}, {iv});
    builder.setInsertionBlock(&guard->region(0));
    Value *one = builder.createConstant(1.0, Type::f32());
    builder.createStore(one, a,
                        AffineMap({"i"}, {LinearExpr::dim(1, 0)}), {iv});

    BufferMap buffers = makeBuffersFor(*func);
    buffers["A"]->fill(0.0);
    runFunction(*func, buffers);
    for (std::int64_t i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(buffers["A"]->data()[i], i == 4 ? 1.0 : 0.0);
}

// ----- Non-rectangular bounds --------------------------------------------

TEST(InterpreterBounds, TriangularNest)
{
    // for i in 0..7: for j in i..7: A[i][j] = 1 (upper triangle only).
    const std::int64_t n = 8;
    auto func = OpBuilder::makeFunc("tri");
    Value *a = OpBuilder::addFuncArg(
        *func, Type::memref(ScalarKind::F32, {n, n}), "A");
    OpBuilder builder(&func->region(0));
    Operation *fi = builder.createFor(constBounds(0, 0, n - 1), "i", {});
    Value *iv_i = fi->region(0).argument(0);
    builder.setInsertionBlock(&fi->region(0));
    DimBounds jb;
    jb.lower.push_back(Bound{LinearExpr::dim(2, 0), 1}); // j >= i
    jb.upper.push_back(Bound{LinearExpr::constant(2, n - 1), 1});
    Operation *fj = builder.createFor(jb, "j", {iv_i});
    Value *iv_j = fj->region(0).argument(0);
    builder.setInsertionBlock(&fj->region(0));
    Value *one = builder.createConstant(1.0, Type::f32());
    builder.createStore(
        one, a,
        AffineMap({"i", "j"}, {LinearExpr::dim(2, 0), LinearExpr::dim(2, 1)}),
        {iv_i, iv_j});

    BufferMap buffers = makeBuffersFor(*func);
    buffers["A"]->fill(0.0);
    runFunction(*func, buffers);
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t j = 0; j < n; ++j)
            EXPECT_DOUBLE_EQ(buffers["A"]->data()[i * n + j],
                             j >= i ? 1.0 : 0.0)
                << i << "," << j;
}

TEST(InterpreterBounds, DivisorBounds)
{
    // for i in 0..9: for j in 0..floor(i/2): A[j] += 1.
    // Column j ends up with count |{i : floor(i/2) >= j}| = 10 - 2j.
    auto func = OpBuilder::makeFunc("halves");
    Value *a = OpBuilder::addFuncArg(
        *func, Type::memref(ScalarKind::F32, {10}), "A");
    OpBuilder builder(&func->region(0));
    Operation *fi = builder.createFor(constBounds(0, 0, 9), "i", {});
    Value *iv_i = fi->region(0).argument(0);
    builder.setInsertionBlock(&fi->region(0));
    DimBounds jb;
    jb.lower.push_back(Bound{LinearExpr::constant(2, 0), 1});
    jb.upper.push_back(Bound{LinearExpr::dim(2, 0), 2}); // j <= i/2
    Operation *fj = builder.createFor(jb, "j", {iv_i});
    Value *iv_j = fj->region(0).argument(0);
    builder.setInsertionBlock(&fj->region(0));
    AffineMap a_map({"i", "j"}, {LinearExpr::dim(2, 1)});
    Value *cur = builder.createLoad(a, a_map, {iv_i, iv_j});
    Value *one = builder.createConstant(1.0, Type::f32());
    Value *inc = builder.createBinary("arith.addf", cur, one);
    builder.createStore(inc, a, a_map, {iv_i, iv_j});

    BufferMap buffers = makeBuffersFor(*func);
    buffers["A"]->fill(0.0);
    runFunction(*func, buffers);
    for (std::int64_t j = 0; j < 10; ++j) {
        double expect = j <= 4 ? 10.0 - 2.0 * j : 0.0;
        EXPECT_DOUBLE_EQ(buffers["A"]->data()[j], expect) << "j=" << j;
    }
}

TEST(InterpreterBounds, SkewedStencilMatchesUnskewed)
{
    // Skewing jacobi2d's spatial loops produces a parallelogram domain
    // (jp ranges over [ip+1, ip+6] at each ip); the interpreter must
    // visit exactly the original statement instances, so the result
    // matches the rectangular original bit for bit.
    auto plain = pom::workloads::makeByName("jacobi2d", 8);
    auto skewed = pom::workloads::makeByName("jacobi2d", 8);
    pom::dsl::Compute *s1 = skewed->func().findCompute("s1");
    ASSERT_NE(s1, nullptr);
    s1->skew(pom::dsl::Var("i"), pom::dsl::Var("j"), 1,
             pom::dsl::Var("ip"), pom::dsl::Var("jp"));

    auto plain_low = pom::lower::lower(plain->func());
    auto skew_low = pom::lower::lower(skewed->func());
    BufferMap pb = makeBuffersFor(*plain_low.func, 3);
    BufferMap sb = makeBuffersFor(*skew_low.func, 3);
    runFunction(*plain_low.func, pb);
    runFunction(*skew_low.func, sb);
    for (const auto &[name, buf] : pb) {
        ASSERT_TRUE(sb.count(name));
        EXPECT_EQ(buf->data(), sb[name]->data()) << "array " << name;
    }
}

// ----- Reduction statements ----------------------------------------------

TEST(InterpreterReduction, GemvAccumulates)
{
    // y(i) += A(i, j) * x(j), lowered from the DSL.
    const std::int64_t n = 6;
    pom::workloads::Workload w("gemv");
    pom::dsl::Var i("i", 0, n), j("j", 0, n);
    auto &A = w.array("A", {n, n});
    auto &x = w.array("x", {n});
    auto &y = w.array("y", {n});
    w.compute("s", {i, j}, y(i) + A(i, j) * x(j), y(i));

    auto low = pom::lower::lower(w.func());
    BufferMap buffers = makeBuffersFor(*low.func, 9);
    std::vector<double> ref = buffers["y"]->data();
    for (std::int64_t ii = 0; ii < n; ++ii)
        for (std::int64_t jj = 0; jj < n; ++jj)
            ref[ii] += buffers["A"]->data()[ii * n + jj] *
                       buffers["x"]->data()[jj];
    runFunction(*low.func, buffers);
    for (std::int64_t ii = 0; ii < n; ++ii)
        EXPECT_DOUBLE_EQ(buffers["y"]->data()[ii], ref[ii]) << ii;
}

} // namespace
