#include "emit/hls_emitter.h"

#include <cctype>
#include <map>
#include <sstream>

#include "obs/obs.h"
#include "support/diagnostics.h"
#include "support/string_util.h"

namespace pom::emit {

using ir::Attribute;
using ir::Operation;
using ir::Value;
using poly::Bound;
using poly::LinearExpr;

namespace {

class Emitter
{
  public:
    std::string
    run(const Operation &func)
    {
        POM_ASSERT(func.opName() == "func.func", "emitHlsC needs func.func");
        std::ostringstream os;
        emitSignature(func, os);
        os << " {\n";
        emitPartitionPragmas(func, os);
        for (const auto &arg : func.region(0).arguments())
            iv_names_[arg.get()] = arg->name();
        emitBlock(func.region(0), os, 1);
        os << "}\n";
        return os.str();
    }

  private:
    static std::string
    indent(int level)
    {
        return support::repeat("  ", level);
    }

    /** Make a name a valid C identifier (e.g. "2mm" -> "_2mm"). */
    static std::string
    cIdentifier(const std::string &name)
    {
        std::string out = name;
        for (auto &ch : out) {
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])))
            out.insert(out.begin(), '_');
        return out;
    }

    void
    emitSignature(const Operation &func, std::ostringstream &os)
    {
        os << "void " << cIdentifier(func.attr(ir::kAttrSymName).asString())
           << "(";
        bool first = true;
        for (const auto &arg : func.region(0).arguments()) {
            if (!first)
                os << ", ";
            first = false;
            const ir::Type &t = arg->type();
            if (t.isMemRef()) {
                os << ir::scalarCName(t.elementKind()) << " "
                   << arg->name();
                for (auto d : t.shape())
                    os << "[" << d << "]";
            } else {
                os << ir::scalarCName(t.elementKind()) << " "
                   << arg->name();
            }
        }
        os << ")";
    }

    void
    emitPartitionPragmas(const Operation &func, std::ostringstream &os)
    {
        for (const auto &[key, value] : func.attrs()) {
            const std::string prefix = "hls.partition.";
            if (key.rfind(prefix, 0) != 0)
                continue;
            std::string array = key.substr(prefix.size());
            std::string kind =
                func.attr("hls.partition_kind." + array).asString();
            const auto &factors = value.asIntVector();
            for (size_t dim = 0; dim < factors.size(); ++dim) {
                if (factors[dim] <= 1)
                    continue;
                os << "#pragma HLS array_partition variable=" << array
                   << " " << kind;
                if (kind != "complete")
                    os << " factor=" << factors[dim];
                os << " dim=" << (dim + 1) << "\n";
            }
        }
    }

    /** Render a bound expression over the enclosing ivs. */
    std::string
    boundExpr(const Bound &b, const std::vector<std::string> &outer,
              bool is_lower) const
    {
        std::vector<std::string> names = outer;
        names.push_back("__self");
        POM_ASSERT(b.expr.numDims() == names.size(),
                   "bound arity mismatch in emitter");
        std::string e = b.expr.str(names);
        if (b.divisor == 1)
            return e;
        // Integer ceil/floor division on non-negative operands.
        if (is_lower) {
            return "((" + e + " + " + std::to_string(b.divisor - 1) +
                   ") / " + std::to_string(b.divisor) + ")";
        }
        return "((" + e + ") / " + std::to_string(b.divisor) + ")";
    }

    std::string
    combinedBound(const std::vector<Bound> &bounds,
                  const std::vector<std::string> &outer,
                  bool is_lower) const
    {
        POM_ASSERT(!bounds.empty(), "loop without bounds in emitter");
        std::string acc = boundExpr(bounds[0], outer, is_lower);
        for (size_t i = 1; i < bounds.size(); ++i) {
            std::string next = boundExpr(bounds[i], outer, is_lower);
            acc = std::string(is_lower ? "max" : "min") + "(" + acc +
                  ", " + next + ")";
        }
        return acc;
    }

    std::vector<std::string>
    outerNames(const Operation &op, size_t first) const
    {
        std::vector<std::string> names;
        for (size_t i = first; i < op.numOperands(); ++i)
            names.push_back(iv_names_.at(op.operand(i)));
        return names;
    }

    void
    emitBlock(const ir::Block &block, std::ostringstream &os, int level)
    {
        for (const auto &op : block.operations())
            emitOp(*op, os, level);
    }

    void
    emitOp(const Operation &op, std::ostringstream &os, int level)
    {
        const std::string &name = op.opName();
        if (name == "affine.for") {
            std::string iv = op.attr(ir::kAttrIterName).asString();
            iv_names_[op.region(0).argument(0)] = iv;
            auto outer = outerNames(op, 0);
            const auto &lower = op.attr(ir::kAttrLowerBounds).asBounds();
            const auto &upper = op.attr(ir::kAttrUpperBounds).asBounds();
            os << indent(level) << "for (int " << iv << " = "
               << combinedBound(lower.lower, outer, true) << "; " << iv
               << " <= " << combinedBound(upper.upper, outer, false)
               << "; ++" << iv << ") {\n";
            if (op.hasAttr(ir::kAttrPipelineII)) {
                os << indent(level) << "#pragma HLS pipeline II="
                   << op.attr(ir::kAttrPipelineII).asInt() << "\n";
            }
            if (op.hasAttr(ir::kAttrUnroll)) {
                std::int64_t factor = op.attr(ir::kAttrUnroll).asInt();
                os << indent(level) << "#pragma HLS unroll";
                if (factor > 1)
                    os << " factor=" << factor;
                os << "\n";
            }
            if (op.hasAttr(ir::kAttrDependenceFree)) {
                std::string names =
                    op.attr(ir::kAttrDependenceFree).asString();
                size_t start = 0;
                while (start < names.size()) {
                    size_t comma = names.find(',', start);
                    if (comma == std::string::npos)
                        comma = names.size();
                    os << indent(level)
                       << "#pragma HLS dependence variable="
                       << names.substr(start, comma - start)
                       << " inter false\n";
                    start = comma + 1;
                }
            }
            emitBlock(op.region(0), os, level + 1);
            os << indent(level) << "}\n";
            return;
        }
        if (name == "affine.if") {
            auto ivs = outerNames(op, 0);
            os << indent(level) << "if (";
            const auto &conds = op.attr(ir::kAttrCondition).asConstraints();
            for (size_t i = 0; i < conds.size(); ++i) {
                if (i)
                    os << " && ";
                os << "(" << conds[i].expr.str(ivs)
                   << (conds[i].isEq ? " == 0" : " >= 0") << ")";
            }
            os << ") {\n";
            emitBlock(op.region(0), os, level + 1);
            os << indent(level) << "}\n";
            return;
        }
        if (name == "affine.load") {
            exprs_[op.result(0)] = subscript(op, 1, op.operand(0)->name());
            return;
        }
        if (name == "affine.store") {
            os << indent(level) << subscript(op, 2, op.operand(1)->name())
               << " = " << exprs_.at(op.operand(0)) << ";\n";
            return;
        }
        if (name == "arith.constant") {
            std::string s =
                support::constantText(op.attr(ir::kAttrValue).asFloat());
            if (op.result(0)->type().isFloatScalar() &&
                s.find('.') == std::string::npos &&
                s.find('e') == std::string::npos) {
                s += ".0";
            }
            exprs_[op.result(0)] = s;
            return;
        }
        if (op.numOperands() == 2 && op.numResults() == 1) {
            std::string a = exprs_.at(op.operand(0));
            std::string b = exprs_.at(op.operand(1));
            std::string text;
            if (name == "arith.addf" || name == "arith.addi")
                text = "(" + a + " + " + b + ")";
            else if (name == "arith.subf" || name == "arith.subi")
                text = "(" + a + " - " + b + ")";
            else if (name == "arith.mulf" || name == "arith.muli")
                text = "(" + a + " * " + b + ")";
            else if (name == "arith.divf")
                text = "(" + a + " / " + b + ")";
            else if (name == "arith.maxf")
                text = "fmax(" + a + ", " + b + ")";
            else if (name == "arith.minf")
                text = "fmin(" + a + ", " + b + ")";
            else
                POM_ASSERT(false, "emitter: unknown binary op ", name);
            exprs_[op.result(0)] = text;
            return;
        }
        if (op.numOperands() == 1 && op.numResults() == 1) {
            std::string a = exprs_.at(op.operand(0));
            if (name == "arith.negf")
                exprs_[op.result(0)] = "(-" + a + ")";
            else if (name == "math.sqrt")
                exprs_[op.result(0)] = "sqrtf(" + a + ")";
            else if (name == "math.exp")
                exprs_[op.result(0)] = "expf(" + a + ")";
            else
                POM_ASSERT(false, "emitter: unknown unary op ", name);
            return;
        }
        POM_ASSERT(false, "emitter: unknown op ", name);
    }

    std::string
    subscript(const Operation &op, size_t first_iv,
              const std::string &array) const
    {
        const poly::AffineMap &map = op.attr(ir::kAttrAccessMap).asMap();
        std::vector<std::string> ivs;
        for (size_t i = first_iv; i < op.numOperands(); ++i)
            ivs.push_back(iv_names_.at(op.operand(i)));
        std::string out = array;
        for (size_t r = 0; r < map.numResults(); ++r)
            out += "[" + map.result(r).str(ivs) + "]";
        return out;
    }

    std::map<const Value *, std::string> iv_names_;
    std::map<const Value *, std::string> exprs_;
};

} // namespace

std::string
emitHlsC(const ir::Operation &func)
{
    obs::Span span("emit.hls-c", "emit");
    Emitter emitter;
    std::string code = emitter.run(func);
    span.arg("chars", static_cast<std::int64_t>(code.size()));
    if (obs::metricsEnabled()) {
        obs::counterAdd("emit.functions");
        std::int64_t lines = 0;
        for (char c : code)
            lines += c == '\n';
        obs::counterAdd("emit.lines", lines);
    }
    return code;
}

} // namespace pom::emit
