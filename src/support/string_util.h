/**
 * @file
 * String helpers for IR printing and HLS C emission.
 */

#ifndef POM_SUPPORT_STRING_UTIL_H
#define POM_SUPPORT_STRING_UTIL_H

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace pom::support {

/** Join the elements of @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** Join arbitrary streamable items produced by @p fmt over a container. */
template <typename Container, typename Fmt>
std::string
joinMapped(const Container &items, const std::string &sep, Fmt fmt)
{
    std::ostringstream os;
    bool first = true;
    for (const auto &item : items) {
        if (!first)
            os << sep;
        first = false;
        os << fmt(item);
    }
    return os.str();
}

/** Repeat a string @p n times (used for indentation). */
std::string repeat(const std::string &s, int n);

/** Count the newline-separated, non-empty, non-comment lines of code. */
int countLoc(const std::string &source);

/**
 * Parse @p s as a signed 64-bit decimal integer. The whole string must
 * be consumed and the value must fit; returns false otherwise (unlike
 * atoll, which silently truncates and returns 0 on garbage).
 */
bool parseInt64(const std::string &s, std::int64_t &out);

/**
 * Parse @p s as a finite double. The whole string must be consumed;
 * returns false on garbage, trailing characters, overflow, inf/nan.
 */
bool parseDouble(const std::string &s, double &out);

/**
 * @p v as a DSL or HLS C constant: operator<<'s six significant digits
 * when they parse back to exactly @p v, else std::to_chars' shortest
 * round-trip form. Either way the text parses back to @p v.
 */
std::string constantText(double v);

} // namespace pom::support

#endif // POM_SUPPORT_STRING_UTIL_H
