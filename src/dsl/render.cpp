#include "dsl/render.h"

#include <sstream>

#include "support/string_util.h"

namespace pom::dsl {

namespace {

std::string
scalarDslName(ScalarKind kind)
{
    using K = ScalarKind;
    switch (kind) {
      case K::I8: return "p_int8";
      case K::I16: return "p_int16";
      case K::I32: return "p_int32";
      case K::I64: return "p_int64";
      case K::U8: return "p_uint8";
      case K::U16: return "p_uint16";
      case K::U32: return "p_uint32";
      case K::U64: return "p_uint64";
      case K::F32: return "p_float32";
      case K::F64: return "p_float64";
      case K::Index: return "p_index";
    }
    return "?";
}

void
renderDirective(const Compute &c, const Directive &d, std::ostringstream &os)
{
    using K = Directive::Kind;
    os << c.name() << ".";
    switch (d.kind) {
      case K::Interchange:
        os << "interchange(" << d.vars[0] << ", " << d.vars[1] << ");";
        break;
      case K::Split:
        os << "split(" << d.vars[0] << ", " << d.factors[0] << ", "
           << d.newVars[0] << ", " << d.newVars[1] << ");";
        break;
      case K::Tile:
        os << "tile(" << d.vars[0] << ", " << d.vars[1] << ", "
           << d.factors[0] << ", " << d.factors[1] << ", " << d.newVars[0]
           << ", " << d.newVars[1] << ", " << d.newVars[2] << ", "
           << d.newVars[3] << ");";
        break;
      case K::Skew:
        os << "skew(" << d.vars[0] << ", " << d.vars[1] << ", "
           << d.factors[0] << ", " << d.newVars[0] << ", " << d.newVars[1]
           << ");";
        break;
      case K::After:
        os << "after(" << d.other->name();
        if (!d.vars.empty())
            os << ", " << d.vars[0];
        os << ");";
        break;
      case K::Fuse:
        os << "fuse(" << d.other->name() << ");";
        break;
      case K::Pipeline:
        os << "pipeline(" << d.vars[0] << ", " << d.factors[0] << ");";
        break;
      case K::Unroll:
        os << "unroll(" << d.vars[0] << ", " << d.factors[0] << ");";
        break;
    }
    os << "\n";
}

} // namespace

std::string
renderSchedule(const Function &func)
{
    std::ostringstream os;
    for (const Compute *c : func.computes()) {
        for (const auto &d : c->directives())
            renderDirective(*c, d, os);
    }
    for (const Placeholder *p : func.placeholders()) {
        if (p->partitionFactors().empty())
            continue;
        os << p->name() << ".partition({"
           << support::joinMapped(p->partitionFactors(), ", ",
                  [](std::int64_t f) { return std::to_string(f); })
           << "}, \"" << p->partitionKind() << "\");\n";
    }
    return os.str();
}

std::string
renderDsl(const Function &func)
{
    std::ostringstream os;
    os << "Function f(\"" << func.name() << "\");\n";

    // Iterators, grouped one declaration line per compute (Fig. 4 L2).
    std::vector<std::string> seen;
    for (const Compute *c : func.computes()) {
        std::vector<std::string> decls;
        for (const auto &v : c->iters()) {
            bool dup = false;
            for (const auto &s : seen)
                dup |= s == v.name();
            if (dup)
                continue;
            seen.push_back(v.name());
            decls.push_back(v.name() + "(\"" + v.name() + "\", " +
                            std::to_string(v.lo()) + ", " +
                            std::to_string(v.hi()) + ")");
        }
        if (!decls.empty())
            os << "var " << support::join(decls, ", ") << ";\n";
    }

    for (const Placeholder *p : func.placeholders()) {
        os << "placeholder " << p->name() << "(\"" << p->name() << "\", {"
           << support::joinMapped(p->shape(), ", ",
                  [](std::int64_t d) { return std::to_string(d); })
           << "}, " << scalarDslName(p->elementType()) << ");\n";
    }

    for (const Compute *c : func.computes()) {
        os << "compute " << c->name() << "(\"" << c->name() << "\", {"
           << support::joinMapped(c->iters(), ", ",
                  [](const Var &v) { return v.name(); })
           << "}, " << c->rhs().str() << ", " << c->dest().str() << ");\n";
    }

    os << renderSchedule(func);
    if (func.autoDSERequested())
        os << "f.auto_DSE();\n";
    os << "codegen();\n";
    return os.str();
}

} // namespace pom::dsl
