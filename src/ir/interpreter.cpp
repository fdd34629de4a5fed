#include "ir/interpreter.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "support/diagnostics.h"
#include "support/math_util.h"

namespace pom::ir {

Buffer::Buffer(Type type) : type_(type)
{
    POM_ASSERT(type.isMemRef(), "Buffer needs a memref type");
    data_.assign(static_cast<size_t>(type.numElements()), 0.0);
}

size_t
Buffer::flatten(const std::vector<std::int64_t> &indices) const
{
    const auto &shape = type_.shape();
    POM_ASSERT(indices.size() == shape.size(), "buffer rank mismatch");
    size_t flat = 0;
    for (size_t i = 0; i < indices.size(); ++i) {
        POM_ASSERT(indices[i] >= 0 && indices[i] < shape[i],
                   "buffer index out of range: dim ", i, " index ",
                   indices[i], " extent ", shape[i]);
        flat = flat * static_cast<size_t>(shape[i]) +
               static_cast<size_t>(indices[i]);
    }
    return flat;
}

double &
Buffer::at(const std::vector<std::int64_t> &indices)
{
    return data_[flatten(indices)];
}

void
Buffer::fillPattern(unsigned seed)
{
    // xorshift-based deterministic pattern in [-1, 1].
    std::uint32_t state = seed * 2654435761u + 1u;
    for (auto &v : data_) {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        v = (static_cast<double>(state % 20001) - 10000.0) / 10000.0;
    }
}

void
Buffer::fill(double value)
{
    std::fill(data_.begin(), data_.end(), value);
}

namespace {

/** Execution environment: SSA value bindings and memref buffers. */
struct Env
{
    std::unordered_map<const Value *, double> scalars;
    std::unordered_map<const Value *, std::int64_t> indices;
    std::unordered_map<const Value *, Buffer *> memrefs;
    std::uint64_t work = 0;
};

std::int64_t
indexOf(const Env &env, const Value *v)
{
    auto it = env.indices.find(v);
    POM_ASSERT(it != env.indices.end(), "unbound index value %", v->name());
    return it->second;
}

double
scalarOf(const Env &env, const Value *v)
{
    auto it = env.scalars.find(v);
    POM_ASSERT(it != env.scalars.end(), "unbound scalar value %",
               v->name());
    return it->second;
}

std::vector<std::int64_t>
evalIndices(const Env &env, const Operation &op, size_t first_iv)
{
    const poly::AffineMap &map = op.attr(kAttrAccessMap).asMap();
    std::vector<std::int64_t> ivs;
    ivs.reserve(op.numOperands() - first_iv);
    for (size_t i = first_iv; i < op.numOperands(); ++i)
        ivs.push_back(indexOf(env, op.operand(i)));
    return map.apply(ivs);
}

void execBlock(const Block &block, Env &env);

void
execOp(const Operation &op, Env &env)
{
    const std::string &name = op.opName();
    if (name == "affine.for") {
        const auto &lower = op.attr(kAttrLowerBounds).asBounds().lower;
        const auto &upper = op.attr(kAttrUpperBounds).asBounds().upper;
        POM_ASSERT(!lower.empty() && !upper.empty(),
                   "affine.for without bounds");
        std::vector<std::int64_t> outer(op.numOperands() + 1, 0);
        for (size_t i = 0; i < op.numOperands(); ++i)
            outer[i] = indexOf(env, op.operand(i));
        std::int64_t lo = 0, hi = -1;
        bool first = true;
        for (const auto &b : lower) {
            std::int64_t v =
                support::ceilDiv(b.expr.evaluate(outer), b.divisor);
            lo = first ? v : std::max(lo, v);
            first = false;
        }
        first = true;
        for (const auto &b : upper) {
            std::int64_t v =
                support::floorDiv(b.expr.evaluate(outer), b.divisor);
            hi = first ? v : std::min(hi, v);
            first = false;
        }
        const Value *iv = op.region(0).argument(0);
        for (std::int64_t i = lo; i <= hi; ++i) {
            env.indices[iv] = i;
            execBlock(op.region(0), env);
        }
        env.indices.erase(iv);
        return;
    }
    if (name == "affine.if") {
        const auto &conds = op.attr(kAttrCondition).asConstraints();
        std::vector<std::int64_t> ivs;
        ivs.reserve(op.numOperands());
        for (size_t i = 0; i < op.numOperands(); ++i)
            ivs.push_back(indexOf(env, op.operand(i)));
        for (const auto &c : conds) {
            std::int64_t v = c.expr.evaluate(ivs);
            if (c.isEq ? (v != 0) : (v < 0))
                return;
        }
        execBlock(op.region(0), env);
        return;
    }
    if (name == "affine.load") {
        auto it = env.memrefs.find(op.operand(0));
        POM_ASSERT(it != env.memrefs.end(), "unbound memref %",
                   op.operand(0)->name());
        auto idx = evalIndices(env, op, 1);
        env.scalars[op.result(0)] = it->second->at(idx);
        ++env.work;
        return;
    }
    if (name == "affine.store") {
        auto it = env.memrefs.find(op.operand(1));
        POM_ASSERT(it != env.memrefs.end(), "unbound memref %",
                   op.operand(1)->name());
        auto idx = evalIndices(env, op, 2);
        it->second->at(idx) = scalarOf(env, op.operand(0));
        ++env.work;
        return;
    }
    if (name == "arith.constant") {
        env.scalars[op.result(0)] = op.attr(kAttrValue).asFloat();
        return;
    }
    if (op.numOperands() == 2 && op.numResults() == 1) {
        double a = scalarOf(env, op.operand(0));
        double b = scalarOf(env, op.operand(1));
        double r = 0.0;
        if (name == "arith.addf" || name == "arith.addi")
            r = a + b;
        else if (name == "arith.subf" || name == "arith.subi")
            r = a - b;
        else if (name == "arith.mulf" || name == "arith.muli")
            r = a * b;
        else if (name == "arith.divf")
            r = a / b;
        else if (name == "arith.maxf")
            r = std::max(a, b);
        else if (name == "arith.minf")
            r = std::min(a, b);
        else
            POM_ASSERT(false, "interpreter: unknown binary op ", name);
        env.scalars[op.result(0)] = r;
        ++env.work;
        return;
    }
    if (op.numOperands() == 1 && op.numResults() == 1) {
        double a = scalarOf(env, op.operand(0));
        double r = 0.0;
        if (name == "arith.negf")
            r = -a;
        else if (name == "math.sqrt")
            r = std::sqrt(a);
        else if (name == "math.exp")
            r = std::exp(a);
        else
            POM_ASSERT(false, "interpreter: unknown unary op ", name);
        env.scalars[op.result(0)] = r;
        ++env.work;
        return;
    }
    POM_ASSERT(false, "interpreter: unknown op ", name);
}

void
execBlock(const Block &block, Env &env)
{
    for (const auto &op : block.operations())
        execOp(*op, env);
}

} // namespace

std::uint64_t
runFunction(const Operation &func, BufferMap &buffers)
{
    POM_ASSERT(func.opName() == "func.func", "runFunction on non-func");
    Env env;
    const Block &body = func.region(0);
    for (const auto &arg : body.arguments()) {
        if (!arg->type().isMemRef()) {
            env.indices[arg.get()] = 0;
            continue;
        }
        auto it = buffers.find(arg->name());
        if (it == buffers.end()) {
            support::fatal("no buffer bound for parameter '" + arg->name() +
                           "'");
        }
        if (!(it->second->type() == arg->type())) {
            support::fatal("buffer type mismatch for parameter '" +
                           arg->name() + "': expected " + arg->type().str() +
                           ", got " + it->second->type().str());
        }
        env.memrefs[arg.get()] = it->second.get();
    }
    execBlock(body, env);
    return env.work;
}

BufferMap
makeBuffersFor(const Operation &func, unsigned seed)
{
    BufferMap buffers;
    const Block &body = func.region(0);
    unsigned i = 0;
    for (const auto &arg : body.arguments()) {
        if (!arg->type().isMemRef())
            continue;
        auto buf = std::make_shared<Buffer>(arg->type());
        buf->fillPattern(seed + 17 * i++);
        buffers[arg->name()] = std::move(buf);
    }
    return buffers;
}

} // namespace pom::ir
