/**
 * @file
 * Sign-safe floor and ceiling division, which the polyhedral library's
 * bound reasoning requires.
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

} // namespace pom::support

#endif // POM_SUPPORT_MATH_UTIL_H
