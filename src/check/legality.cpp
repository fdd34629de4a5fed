#include "check/legality.h"

#include <sstream>

#include "poly/integer_set.h"
#include "support/diagnostics.h"

namespace pom::check {

using poly::Access;
using poly::IntegerSet;
using poly::LinearExpr;

namespace {

/** Render a witness instance pair (x, y) from a 2n-dim point. */
std::string
witnessStr(const IntegerSet &domain,
           const std::vector<std::int64_t> &point)
{
    size_t n = domain.numDims();
    std::ostringstream os;
    os << "(";
    for (size_t i = 0; i < n; ++i)
        os << (i ? ", " : "") << domain.dimName(i) << "=" << point[i];
    os << ") runs after (";
    for (size_t i = 0; i < n; ++i)
        os << (i ? ", " : "") << domain.dimName(i) << "=" << point[n + i];
    os << ")";
    return os.str();
}

} // namespace

std::optional<std::string>
findDependenceViolation(const transform::PolyStmt &stmt)
{
    const IntegerSet &domain = stmt.sched.domain;
    size_t n = domain.numDims();
    if (n == 0)
        return std::nullopt;
    size_t m = stmt.sched.origMap.numResults();

    // Pair space: source instance x (dims 0..n-1), sink instance y
    // (dims n..2n-1), both ranging over the transformed domain.
    std::vector<std::string> y_names;
    y_names.reserve(n);
    for (size_t i = 0; i < n; ++i)
        y_names.push_back("y_" + domain.dimName(i));
    IntegerSet base = domain.pairedWithCopy(std::move(y_names));

    // Original-order coordinates of both instances.
    std::vector<LinearExpr> orig_x, orig_y;
    orig_x.reserve(m);
    orig_y.reserve(m);
    for (size_t k = 0; k < m; ++k) {
        orig_x.push_back(
            stmt.sched.origMap.result(k).withDimsInserted(n, n));
        orig_y.push_back(
            stmt.sched.origMap.result(k).withDimsInserted(0, n));
    }

    auto accesses = stmt.transformedAccesses();
    for (size_t a = 0; a < accesses.size(); ++a) {
        for (size_t b = 0; b < accesses.size(); ++b) {
            const Access &src = accesses[a];
            const Access &dst = accesses[b];
            if (src.array != dst.array)
                continue;
            if (!src.isWrite && !dst.isWrite)
                continue;

            // Conflict: both instances touch the same array element.
            IntegerSet pair = base;
            for (size_t j = 0; j < src.map.numResults(); ++j) {
                LinearExpr sx = src.map.result(j).withDimsInserted(n, n);
                LinearExpr sy = dst.map.result(j).withDimsInserted(0, n);
                pair.addEquality(sx - sy);
            }
            if (pair.isEmpty())
                continue;

            // x's instance originally ran strictly before y's: expand
            // origMap(x) <lex origMap(y) by carrying level.
            for (size_t l = 0; l < m; ++l) {
                IntegerSet before = pair;
                for (size_t k = 0; k < l; ++k)
                    before.addEquality(orig_x[k] - orig_y[k]);
                LinearExpr strict = orig_y[l] - orig_x[l];
                strict.setConstantTerm(strict.constantTerm() - 1);
                before.addInequality(strict);
                if (before.isEmpty())
                    continue;

                // Violation: y now runs strictly before x.
                for (size_t k2 = 0; k2 < n; ++k2) {
                    IntegerSet bad = before;
                    for (size_t i = 0; i < k2; ++i) {
                        bad.addEquality(
                            LinearExpr::dim(2 * n, i) -
                            LinearExpr::dim(2 * n, n + i));
                    }
                    LinearExpr rev = LinearExpr::dim(2 * n, k2) -
                                     LinearExpr::dim(2 * n, n + k2);
                    rev.setConstantTerm(-1);
                    bad.addInequality(rev);
                    if (bad.isEmpty())
                        continue;

                    std::ostringstream os;
                    os << "dependence on '" << src.array
                       << "' violated at original level " << l << ": ";
                    if (auto w = bad.lexMin())
                        os << witnessStr(domain, *w);
                    else
                        os << "(no rational witness)";
                    return os.str();
                }
            }
        }
    }
    return std::nullopt;
}

bool
schedulePreservesDependences(const transform::PolyStmt &stmt)
{
    return !findDependenceViolation(stmt).has_value();
}

} // namespace pom::check
