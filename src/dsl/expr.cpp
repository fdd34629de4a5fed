#include "dsl/expr.h"

#include <sstream>

#include "dsl/dsl.h"
#include "support/diagnostics.h"
#include "support/string_util.h"

namespace pom::dsl {

Expr::Expr(double constant)
{
    auto n = std::make_shared<ExprNode>();
    n->kind = ExprNode::Kind::Const;
    n->value = constant;
    node_ = std::move(n);
}

Expr::Expr(int constant) : Expr(static_cast<double>(constant)) {}

Expr
Expr::iter(const std::string &name)
{
    auto n = std::make_shared<ExprNode>();
    n->kind = ExprNode::Kind::Iter;
    n->iterName = name;
    return Expr(std::move(n));
}

Expr
Expr::load(const Placeholder *array, std::vector<Expr> indices)
{
    POM_ASSERT(array != nullptr, "load from null placeholder");
    auto n = std::make_shared<ExprNode>();
    n->kind = ExprNode::Kind::Load;
    n->array = array;
    for (auto &e : indices) {
        POM_ASSERT(e.valid(), "invalid index expression");
        n->indices.push_back(e.node());
    }
    return Expr(std::move(n));
}

namespace {

Expr
binary(BinOp op, const Expr &a, const Expr &b)
{
    POM_ASSERT(a.valid() && b.valid(), "invalid operand expression");
    auto n = std::make_shared<ExprNode>();
    n->kind = ExprNode::Kind::Binary;
    n->binOp = op;
    n->lhs = a.node();
    n->rhs = b.node();
    return Expr(std::move(n));
}

const char *
binOpSym(BinOp op)
{
    switch (op) {
      case BinOp::Add: return " + ";
      case BinOp::Sub: return " - ";
      case BinOp::Mul: return "*";
      case BinOp::Div: return "/";
      case BinOp::Max: return ", ";
      case BinOp::Min: return ", ";
    }
    return "?";
}

void
printNode(const ExprNode &n, std::ostringstream &os)
{
    switch (n.kind) {
      case ExprNode::Kind::Const:
        os << support::constantText(n.value);
        break;
      case ExprNode::Kind::Iter:
        os << n.iterName;
        break;
      case ExprNode::Kind::Load:
        os << n.array->name() << "(";
        for (size_t i = 0; i < n.indices.size(); ++i) {
            if (i)
                os << ", ";
            printNode(*n.indices[i], os);
        }
        os << ")";
        break;
      case ExprNode::Kind::Binary:
        if (n.binOp == BinOp::Max)
            os << "max(";
        else if (n.binOp == BinOp::Min)
            os << "min(";
        else
            os << "(";
        printNode(*n.lhs, os);
        os << binOpSym(n.binOp);
        printNode(*n.rhs, os);
        os << ")";
        break;
      case ExprNode::Kind::Unary:
        switch (n.unOp) {
          case UnOp::Neg: os << "-("; break;
          case UnOp::Sqrt: os << "sqrt("; break;
          case UnOp::Exp: os << "exp("; break;
        }
        printNode(*n.lhs, os);
        os << ")";
        break;
    }
}

} // namespace

Expr
operator+(const Expr &a, const Expr &b)
{
    return binary(BinOp::Add, a, b);
}

Expr
operator-(const Expr &a, const Expr &b)
{
    return binary(BinOp::Sub, a, b);
}

Expr
operator*(const Expr &a, const Expr &b)
{
    return binary(BinOp::Mul, a, b);
}

Expr
operator/(const Expr &a, const Expr &b)
{
    return binary(BinOp::Div, a, b);
}

Expr
operator-(const Expr &a)
{
    POM_ASSERT(a.valid(), "invalid operand expression");
    auto n = std::make_shared<ExprNode>();
    n->kind = ExprNode::Kind::Unary;
    n->unOp = UnOp::Neg;
    n->lhs = a.node();
    return Expr(std::move(n));
}

Expr
max(const Expr &a, const Expr &b)
{
    return binary(BinOp::Max, a, b);
}

Expr
min(const Expr &a, const Expr &b)
{
    return binary(BinOp::Min, a, b);
}

std::string
Expr::str() const
{
    if (!node_)
        return "<invalid>";
    std::ostringstream os;
    printNode(*node_, os);
    return os.str();
}

} // namespace pom::dsl
