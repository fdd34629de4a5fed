/**
 * @file
 * A minimal JSON document model for everything POM reads from outside
 * the process; support/record.h reads typed records out of it. Parses
 * the full JSON value grammar -- objects, arrays, strings, numbers,
 * booleans, null -- into a small DOM with strict errors: RFC 8259's
 * number and string grammar (no leading zero, digits on both sides of
 * a '.' and after an exponent, no raw byte below 0x20 in a string),
 * bounded nesting depth, and no trailing garbage. An integer literal
 * outside int64 reads as a Double, which exactInt() refuses. A `\u`
 * escape decodes to the UTF-8 bytes of its code point, a surrogate
 * pair to the one code point it spells; a lone surrogate is an error.
 * Object member order is preserved.
 *
 * This is intentionally not a general-purpose JSON library: documents
 * are frames, journals and spill entries of at most a few megabytes, so
 * the DOM favours simplicity (one struct, value semantics) over
 * allocation tricks.
 */

#ifndef POM_SUPPORT_JSON_H
#define POM_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

namespace pom::support {

/** One JSON value (a tagged union with value semantics). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Int,
        Double,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    std::int64_t integer = 0; ///< Kind::Int
    double number = 0.0;      ///< Kind::Double
    std::string text;         ///< Kind::String
    std::vector<JsonValue> items; ///< Kind::Array
    std::vector<std::pair<std::string, JsonValue>> members; ///< Object

    bool isObject() const { return kind == Kind::Object; }
    bool isString() const { return kind == Kind::String; }

    bool operator==(const JsonValue &) const = default;

    /** Member lookup (first match); null when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /**
     * The value as an int64: an Int, or a Double that is finite,
     * integral and in int64 range (so `2.0` converts but `2.5`, `1e400`
     * and integers too large for int64, which parse as Double, do not).
     */
    std::optional<std::int64_t> exactInt() const;
};

/**
 * Parse @p text into @p out. The whole input must be one JSON value
 * (plus whitespace); returns false with a position-annotated @p error
 * on malformed input (a number or string outside RFC 8259's grammar
 * and a lone surrogate escape included) or more than 64 nested arrays
 * and objects.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &error);

/** Quote + escape @p text as a JSON string literal (with the quotes). */
std::string jsonQuote(const std::string &text);

} // namespace pom::support

#endif // POM_SUPPORT_JSON_H
