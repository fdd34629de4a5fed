/**
 * @file
 * Sign-safe floor and ceiling division, which the polyhedral library's
 * bound reasoning requires, an exact |v|, and the checked int64
 * arithmetic its constraint and expression arithmetic goes through.
 */

#ifndef POM_SUPPORT_MATH_UTIL_H
#define POM_SUPPORT_MATH_UTIL_H

#include <cstdint>

#include "support/diagnostics.h"

namespace pom::support {

/** Floor division: floorDiv(-1, 8) == -1, floorDiv(7, 8) == 0. */
constexpr std::int64_t
floorDiv(std::int64_t a, std::int64_t b)
{
    POM_ASSERT(b != 0, "floorDiv by zero");
    std::int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        --q;
    return q;
}

/** Ceiling division: ceilDiv(7, 8) == 1, ceilDiv(-7, 8) == 0. */
constexpr std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    POM_ASSERT(b != 0, "ceilDiv by zero");
    return -floorDiv(-a, b);
}

/** |v|, exact for the most negative int64 too. */
inline std::uint64_t
magnitude(std::int64_t v)
{
    return v < 0 ? std::uint64_t{0} - static_cast<std::uint64_t>(v)
                 : static_cast<std::uint64_t>(v);
}

// Checked int64 arithmetic: a result that does not fit sets @p overflow
// (and wraps, with defined behaviour) instead of being undefined. The
// caller tests the flag once after a run of operations.

inline std::int64_t
checkedMul(std::int64_t a, std::int64_t b, bool &overflow)
{
    std::int64_t r;
    overflow |= __builtin_mul_overflow(a, b, &r);
    return r;
}

inline std::int64_t
checkedAdd(std::int64_t a, std::int64_t b, bool &overflow)
{
    std::int64_t r;
    overflow |= __builtin_add_overflow(a, b, &r);
    return r;
}

inline std::int64_t
checkedSub(std::int64_t a, std::int64_t b, bool &overflow)
{
    std::int64_t r;
    overflow |= __builtin_sub_overflow(a, b, &r);
    return r;
}

inline std::int64_t
checkedNeg(std::int64_t a, bool &overflow)
{
    return checkedSub(0, a, overflow);
}

} // namespace pom::support

#endif // POM_SUPPORT_MATH_UTIL_H
