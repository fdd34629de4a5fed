/**
 * @file
 * Tests for the IR kernel: op construction, verification, printing, and
 * interpretation of a hand-built GEMM against a plain C++ reference.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "ir/builder.h"
#include "ir/interpreter.h"
#include "ir/operation.h"
#include "ir/verifier.h"
#include "support/diagnostics.h"

namespace {

using namespace pom::ir;
using pom::poly::AffineMap;
using pom::poly::Bound;
using pom::poly::DimBounds;
using pom::poly::LinearExpr;

/** Constant bounds lo..hi for a loop at the given depth. */
DimBounds
constBounds(size_t depth, std::int64_t lo, std::int64_t hi)
{
    DimBounds b;
    b.lower.push_back(Bound{LinearExpr::constant(depth + 1, lo), 1});
    b.upper.push_back(Bound{LinearExpr::constant(depth + 1, hi), 1});
    return b;
}

/** Build C[i][j] += A[i][k] * B[k][j] over n x n f32 matrices. */
std::unique_ptr<Operation>
buildGemm(std::int64_t n)
{
    auto func = OpBuilder::makeFunc("gemm");
    Type mat = Type::memref(ScalarKind::F32, {n, n});
    Value *a = OpBuilder::addFuncArg(*func, mat, "A");
    Value *b = OpBuilder::addFuncArg(*func, mat, "B");
    Value *c = OpBuilder::addFuncArg(*func, mat, "C");

    OpBuilder builder(&func->region(0));
    Operation *fi = builder.createFor(constBounds(0, 0, n - 1), "i", {});
    Value *iv_i = fi->region(0).argument(0);
    builder.setInsertionBlock(&fi->region(0));
    Operation *fj = builder.createFor(constBounds(1, 0, n - 1), "j",
                                      {iv_i});
    Value *iv_j = fj->region(0).argument(0);
    builder.setInsertionBlock(&fj->region(0));
    Operation *fk = builder.createFor(constBounds(2, 0, n - 1), "k",
                                      {iv_i, iv_j});
    Value *iv_k = fk->region(0).argument(0);
    builder.setInsertionBlock(&fk->region(0));

    std::vector<Value *> ivs = {iv_i, iv_j, iv_k};
    AffineMap a_map({"i", "j", "k"},
                    {LinearExpr::dim(3, 0), LinearExpr::dim(3, 2)});
    AffineMap b_map({"i", "j", "k"},
                    {LinearExpr::dim(3, 2), LinearExpr::dim(3, 1)});
    AffineMap c_map({"i", "j", "k"},
                    {LinearExpr::dim(3, 0), LinearExpr::dim(3, 1)});
    Value *va = builder.createLoad(a, a_map, ivs);
    Value *vb = builder.createLoad(b, b_map, ivs);
    Value *vc = builder.createLoad(c, c_map, ivs);
    Value *prod = builder.createBinary("arith.mulf", va, vb);
    Value *sum = builder.createBinary("arith.addf", vc, prod);
    builder.createStore(sum, c, c_map, ivs);
    return func;
}

TEST(Ir, TypeBasics)
{
    Type t = Type::memref(ScalarKind::F32, {32, 16});
    EXPECT_TRUE(t.isMemRef());
    EXPECT_EQ(t.rank(), 2u);
    EXPECT_EQ(t.numElements(), 512);
    EXPECT_EQ(t.str(), "memref<32x16xf32>");
    EXPECT_EQ(Type::f32().str(), "f32");
    EXPECT_EQ(bitWidth(ScalarKind::I16), 16);
    EXPECT_EQ(scalarCName(ScalarKind::U8), "uint8_t");
    EXPECT_TRUE(isFloat(ScalarKind::F64));
    EXPECT_FALSE(isFloat(ScalarKind::I32));
}

TEST(Ir, GemmVerifies)
{
    auto func = buildGemm(8);
    auto errors = verify(*func);
    for (const auto &e : errors)
        ADD_FAILURE() << e;
    EXPECT_TRUE(errors.empty());
}

TEST(Ir, GemmInterpretsCorrectly)
{
    const std::int64_t n = 8;
    auto func = buildGemm(n);
    BufferMap buffers = makeBuffersFor(*func, 42);
    // Reference result.
    std::vector<double> ref = buffers["C"]->data();
    const auto &da = buffers["A"]->data();
    const auto &db = buffers["B"]->data();
    for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            for (std::int64_t k = 0; k < n; ++k) {
                ref[i * n + j] += da[i * n + k] * db[k * n + j];
            }
        }
    }
    std::uint64_t work = runFunction(*func, buffers);
    EXPECT_GT(work, 0u);
    for (size_t i = 0; i < ref.size(); ++i)
        EXPECT_DOUBLE_EQ(buffers["C"]->data()[i], ref[i]) << "at " << i;
}

TEST(Ir, PrinterShowsStructure)
{
    auto func = buildGemm(4);
    std::string printed = func->str();
    EXPECT_NE(printed.find("func.func"), std::string::npos);
    EXPECT_NE(printed.find("affine.for"), std::string::npos);
    EXPECT_NE(printed.find("affine.load"), std::string::npos);
    EXPECT_NE(printed.find("arith.mulf"), std::string::npos);
    EXPECT_NE(printed.find("memref<4x4xf32>"), std::string::npos);
}

TEST(Ir, CollidingResultNamesPrintDistinct)
{
    // Both loads are default-named "affine.load.r0"; the printed form
    // must still name them apart, and the add must use both.
    auto func = OpBuilder::makeFunc("collide");
    Value *a = OpBuilder::addFuncArg(
        *func, Type::memref(ScalarKind::F32, {4}), "A");
    OpBuilder builder(&func->region(0));
    Operation *loop = builder.createFor(constBounds(0, 0, 3), "i", {});
    Value *iv = loop->region(0).argument(0);
    builder.setInsertionBlock(&loop->region(0));
    AffineMap map({"i"}, {LinearExpr::dim(1, 0)});
    Value *v1 = builder.createLoad(a, map, {iv});
    Value *v2 = builder.createLoad(a, map, {iv});
    ASSERT_EQ(v1->name(), v2->name());
    builder.createStore(builder.createBinary("arith.addf", v1, v2), a, map,
                        {iv});

    std::istringstream lines(func->str());
    std::vector<std::string> loads;
    std::string add, line;
    while (std::getline(lines, line)) {
        std::size_t def = line.find('%');
        std::size_t eq = line.find(" = affine.load");
        if (eq != std::string::npos)
            loads.push_back(line.substr(def, eq - def));
        if (line.find("arith.addf") != std::string::npos)
            add = line;
    }
    ASSERT_EQ(loads.size(), 2u);
    EXPECT_NE(loads[0], loads[1]);
    EXPECT_NE(add.find("arith.addf " + loads[0] + ", " + loads[1] + " "),
              std::string::npos)
        << add;
}

TEST(Ir, VerifierCatchesBadPipelineII)
{
    auto func = buildGemm(4);
    func->walk([](Operation &op) {
        if (op.opName() == "affine.for")
            op.setAttr(kAttrPipelineII, Attribute(std::int64_t(0)));
    });
    EXPECT_FALSE(verify(*func).empty());
}

TEST(Ir, VerifierCatchesMissingBounds)
{
    auto func = buildGemm(4);
    func->walk([](Operation &op) {
        if (op.opName() == "affine.for")
            op.removeAttr(kAttrLowerBounds);
    });
    EXPECT_FALSE(verify(*func).empty());
}

TEST(Ir, VerifierCatchesUnknownOp)
{
    auto func = OpBuilder::makeFunc("f");
    func->region(0).push(
        Operation::create("bogus.op", {}, {}, {}));
    EXPECT_FALSE(verify(*func).empty());
}

TEST(Ir, AffineIfGuardsExecution)
{
    // for i in 0..9: if (i - 5 >= 0) A[i] = 1.0
    auto func = OpBuilder::makeFunc("guarded");
    Value *a = OpBuilder::addFuncArg(
        *func, Type::memref(ScalarKind::F32, {10}), "A");
    OpBuilder builder(&func->region(0));
    Operation *loop = builder.createFor(constBounds(0, 0, 9), "i", {});
    Value *iv = loop->region(0).argument(0);
    builder.setInsertionBlock(&loop->region(0));
    Operation *guard = builder.createIf(
        {pom::poly::Constraint{LinearExpr({1}, -5), false}}, {iv});
    builder.setInsertionBlock(&guard->region(0));
    Value *one = builder.createConstant(1.0, Type::f32());
    AffineMap a_map({"i"}, {LinearExpr::dim(1, 0)});
    builder.createStore(one, a, a_map, {iv});

    EXPECT_TRUE(verify(*func).empty());
    BufferMap buffers;
    buffers["A"] = std::make_shared<Buffer>(a->type());
    buffers["A"]->fill(0.0);
    runFunction(*func, buffers);
    for (std::int64_t i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(buffers["A"]->data()[i], i >= 5 ? 1.0 : 0.0);
}

TEST(Ir, MinMaxBoundsInLoops)
{
    // for i = 0 .. min(9, 6): touch A[i]. Two upper bounds.
    auto func = OpBuilder::makeFunc("minmax");
    Value *a = OpBuilder::addFuncArg(
        *func, Type::memref(ScalarKind::F32, {10}), "A");
    OpBuilder builder(&func->region(0));
    DimBounds bounds;
    bounds.lower.push_back(Bound{LinearExpr::constant(1, 0), 1});
    bounds.upper.push_back(Bound{LinearExpr::constant(1, 9), 1});
    bounds.upper.push_back(Bound{LinearExpr::constant(1, 6), 1});
    Operation *loop = builder.createFor(bounds, "i", {});
    Value *iv = loop->region(0).argument(0);
    builder.setInsertionBlock(&loop->region(0));
    Value *one = builder.createConstant(1.0, Type::f32());
    builder.createStore(one, a,
                        AffineMap({"i"}, {LinearExpr::dim(1, 0)}), {iv});
    BufferMap buffers;
    buffers["A"] = std::make_shared<Buffer>(a->type());
    runFunction(*func, buffers);
    EXPECT_DOUBLE_EQ(buffers["A"]->data()[6], 1.0);
    EXPECT_DOUBLE_EQ(buffers["A"]->data()[7], 0.0);
}

TEST(Ir, BufferPatternIsDeterministic)
{
    Buffer b1(Type::memref(ScalarKind::F32, {16}));
    Buffer b2(Type::memref(ScalarKind::F32, {16}));
    b1.fillPattern(7);
    b2.fillPattern(7);
    EXPECT_EQ(b1.data(), b2.data());
    b2.fillPattern(8);
    EXPECT_NE(b1.data(), b2.data());
    for (double v : b1.data()) {
        EXPECT_GE(v, -1.0);
        EXPECT_LE(v, 1.0);
    }
}

TEST(Ir, MissingBufferIsFatal)
{
    auto func = buildGemm(4);
    BufferMap buffers; // empty
    EXPECT_THROW(runFunction(*func, buffers), pom::support::FatalError);
}

TEST(Ir, AttributeRoundTrip)
{
    auto op = Operation::create("affine.for", {}, {}, {}, 1);
    op->setAttr(kAttrPipelineII, Attribute(std::int64_t(2)));
    op->setAttr("note", Attribute("hello"));
    EXPECT_EQ(op->attr(kAttrPipelineII).asInt(), 2);
    EXPECT_EQ(op->attr("note").asString(), "hello");
    EXPECT_EQ(op->intAttrOr("missing", 7), 7);
    op->removeAttr("note");
    EXPECT_FALSE(op->hasAttr("note"));
}

} // namespace
