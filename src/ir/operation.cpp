#include "ir/operation.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

#include "support/diagnostics.h"
#include "support/string_util.h"

namespace pom::ir {

Value *
Block::addArgument(Type type, std::string name)
{
    args_.push_back(std::make_unique<Value>(type, std::move(name)));
    return args_.back().get();
}

Operation *
Block::push(std::unique_ptr<Operation> op)
{
    ops_.push_back(std::move(op));
    return ops_.back().get();
}

std::unique_ptr<Operation>
Operation::create(std::string name, std::vector<Value *> operands,
                  std::vector<Type> result_types, AttrMap attrs,
                  size_t num_regions)
{
    // make_unique cannot reach the private ctor.
    std::unique_ptr<Operation> op(new Operation());
    op->name_ = std::move(name);
    op->operands_ = std::move(operands);
    op->attrs_ = std::move(attrs);
    for (size_t i = 0; i < result_types.size(); ++i) {
        op->results_.push_back(std::make_unique<Value>(
            result_types[i], op->name_ + ".r" + std::to_string(i)));
    }
    for (size_t i = 0; i < num_regions; ++i)
        op->regions_.push_back(std::make_unique<Block>());
    return op;
}

bool
Operation::hasAttr(const std::string &key) const
{
    return attrs_.count(key) > 0;
}

const Attribute &
Operation::attr(const std::string &key) const
{
    auto it = attrs_.find(key);
    POM_ASSERT(it != attrs_.end(), "missing attribute '", key, "' on ",
               name_);
    return it->second;
}

void
Operation::setAttr(const std::string &key, Attribute value)
{
    attrs_[key] = std::move(value);
}

void
Operation::removeAttr(const std::string &key)
{
    attrs_.erase(key);
}

std::int64_t
Operation::intAttrOr(const std::string &key, std::int64_t dflt) const
{
    auto it = attrs_.find(key);
    if (it == attrs_.end())
        return dflt;
    return it->second.asInt();
}

namespace {

/** Shortest decimal form that strtod parses back to exactly @p v. */
std::string
formatDouble(double v)
{
    char buf[64];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    // Keep floats lexically distinct from integer attributes.
    if (std::strcspn(buf, ".eEni") == std::strlen(buf)) {
        std::strncat(buf, ".0", sizeof(buf) - std::strlen(buf) - 1);
    }
    return buf;
}

std::string
escapeString(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

/** Placeholder dim names d0..dN-1 for spaces without stored names. */
std::vector<std::string>
genericDims(size_t n)
{
    std::vector<std::string> names;
    names.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        std::string name = "d";
        name += std::to_string(i);
        names.push_back(std::move(name));
    }
    return names;
}

std::string
formatBoundList(const std::vector<poly::Bound> &list,
                const std::vector<std::string> &dims)
{
    return support::joinMapped(list, ", ", [&](const poly::Bound &b) {
        std::string s = "(";
        s += b.expr.str(dims);
        s += ")";
        if (b.divisor != 1) {
            s += "/";
            s += std::to_string(b.divisor);
        }
        return s;
    });
}

/**
 * Assigns every printed SSA value a unique textual name so the output
 * is unambiguous. Block arguments keep their stored names (uniquified
 * on collision); op results are numbered %v0, %v1... in print order.
 */
class Printer
{
  public:
    std::string
    print(const Operation &root, int indent)
    {
        std::ostringstream os;
        printOp(root, indent, os);
        return os.str();
    }

  private:
    static std::string
    sanitize(const std::string &name)
    {
        std::string out;
        for (char c : name) {
            bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.';
            out.push_back(ok ? c : '_');
        }
        if (out.empty())
            out.push_back('v');
        return out;
    }

    std::string
    assign(const Value *v, const std::string &hint)
    {
        std::string base = sanitize(hint);
        std::string candidate = base;
        for (int k = 1; used_.count(candidate); ++k) {
            candidate = base;
            candidate += "_";
            candidate += std::to_string(k);
        }
        used_.insert(candidate);
        names_[v] = candidate;
        return candidate;
    }

    /** Operands defined outside the printed subtree keep their name. */
    const std::string &
    ref(const Value *v)
    {
        auto it = names_.find(v);
        if (it != names_.end())
            return it->second;
        assign(v, v->name());
        return names_.at(v);
    }

    void
    printOp(const Operation &op, int indent, std::ostringstream &os)
    {
        std::string pad = support::repeat("  ", indent);
        os << pad;
        if (op.numResults() > 0) {
            for (size_t i = 0; i < op.numResults(); ++i) {
                if (i)
                    os << ", ";
                std::string hint = "v";
                hint += std::to_string(next_temp_++);
                os << "%" << assign(op.result(i), hint);
            }
            os << " = ";
        }
        os << op.opName();
        for (size_t i = 0; i < op.numOperands(); ++i)
            os << (i ? ", " : " ") << "%" << ref(op.operand(i));
        if (!op.attrs().empty()) {
            os << " {";
            bool first = true;
            for (const auto &[key, value] : op.attrs()) {
                if (!first)
                    os << ", ";
                first = false;
                os << key << " = " << value.str();
            }
            os << "}";
        }
        if (op.numResults() > 0) {
            os << " : ";
            for (size_t i = 0; i < op.numResults(); ++i) {
                if (i)
                    os << ", ";
                os << op.result(i)->type().str();
            }
        }
        for (size_t r = 0; r < op.numRegions(); ++r) {
            const Block &block = op.region(r);
            os << " {";
            if (block.numArguments() > 0) {
                os << " (";
                for (size_t i = 0; i < block.numArguments(); ++i) {
                    const Value *arg = block.argument(i);
                    if (i)
                        os << ", ";
                    os << "%" << assign(arg, arg->name()) << ": "
                       << arg->type().str();
                }
                os << ")";
            }
            os << "\n";
            for (const auto &inner : block.operations())
                printOp(*inner, indent + 1, os);
            os << pad << "}";
        }
        os << "\n";
    }

    std::map<const Value *, std::string> names_;
    std::set<std::string> used_;
    int next_temp_ = 0;
};

} // namespace

std::string
Attribute::str() const
{
    if (is<std::int64_t>())
        return std::to_string(asInt());
    if (is<double>())
        return formatDouble(asFloat());
    if (is<std::string>()) {
        std::string s = "\"";
        s += escapeString(asString());
        s += "\"";
        return s;
    }
    if (is<std::vector<std::int64_t>>()) {
        std::string s = "[";
        s += support::joinMapped(asIntVector(), ", ",
            [](std::int64_t v) { return std::to_string(v); });
        s += "]";
        return s;
    }
    if (is<poly::AffineMap>())
        return "affine_map<" + asMap().str() + ">";
    if (is<poly::DimBounds>()) {
        const auto &b = asBounds();
        size_t n = !b.lower.empty()   ? b.lower[0].expr.numDims()
                   : !b.upper.empty() ? b.upper[0].expr.numDims()
                                      : 0;
        auto dims = genericDims(n);
        return "bounds<" + std::to_string(n) + ", lo[" +
               formatBoundList(b.lower, dims) + "], hi[" +
               formatBoundList(b.upper, dims) + "]>";
    }
    if (is<std::vector<poly::Constraint>>()) {
        const auto &cs = asConstraints();
        size_t n = cs.empty() ? 0 : cs[0].expr.numDims();
        auto dims = genericDims(n);
        return "constraints<" + std::to_string(n) + ", [" +
               support::joinMapped(cs, ", ",
                   [&](const poly::Constraint &c) {
                       return c.expr.str(dims) +
                              (c.isEq ? " == 0" : " >= 0");
                   }) + "]>";
    }
    return "?";
}

std::string
Operation::str(int indent) const
{
    Printer printer;
    return printer.print(*this, indent);
}

} // namespace pom::ir
