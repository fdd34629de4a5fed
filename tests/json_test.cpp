/**
 * @file
 * Tests for support::parseJson on its own: `\u` escapes decode to the
 * UTF-8 bytes of their code point (surrogate pairs joined, a lone
 * surrogate an error), every escape jsonQuote() writes reads back, the
 * nesting bound is exact, numbers and strings follow RFC 8259's grammar
 * (no leading zero or digitless fraction, no raw control byte), and a
 * seeded mutation stream over escapes, number spellings and deep
 * nesting only ever yields an error or a value that re-serializes to a
 * fixed point -- never a crash or a hang.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "mutation.h"
#include "support/json.h"

namespace {

using pom::support::JsonValue;
using pom::support::jsonQuote;
using pom::support::parseJson;

/** The string @p doc (one JSON string literal) decodes to. */
std::string
decoded(const std::string &doc)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(doc, v, error)) << doc << ": " << error;
    EXPECT_TRUE(v.isString()) << doc;
    return v.text;
}

/**
 * @p v as JSON text that parses back to an equal value: doubles keep a
 * '.' or an exponent (so they stay doubles) and an overflowed literal
 * is written as one again.
 */
std::string
serialize(const JsonValue &v)
{
    using Kind = JsonValue::Kind;
    switch (v.kind) {
      case Kind::Null:
        return "null";
      case Kind::Bool:
        return v.boolean ? "true" : "false";
      case Kind::Int:
        return std::to_string(v.integer);
      case Kind::Double: {
        if (std::isinf(v.number))
            return v.number > 0 ? "1e400" : "-1e400";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v.number);
        std::string text = buf;
        if (text.find_first_of(".e") == std::string::npos)
            text += ".0";
        return text;
      }
      case Kind::String:
        return jsonQuote(v.text);
      case Kind::Array: {
        std::string out = "[";
        for (const JsonValue &item : v.items)
            out += (out.size() > 1 ? "," : "") + serialize(item);
        return out + "]";
      }
      case Kind::Object: {
        std::string out = "{";
        for (const auto &[key, member] : v.members) {
            out += (out.size() > 1 ? "," : "") + jsonQuote(key) + ":" +
                   serialize(member);
        }
        return out + "}";
      }
    }
    return "";
}

/** @p levels arrays nested around @p inner. */
std::string
nested(int levels, const std::string &inner)
{
    return std::string(levels, '[') + inner + std::string(levels, ']');
}

TEST(Json, UnicodeEscapesDecodeToUtf8)
{
    // U+0167 in place of gemm's g, as Python's json.dumps escapes it:
    // two UTF-8 bytes, not the code point's low byte 0x67, 'g'.
    EXPECT_EQ(decoded(R"("\u0167emm")"), "\xC5\xA7" "emm");
    EXPECT_EQ(decoded(R"("\u00e9")"), "\xC3\xA9");
    EXPECT_EQ(decoded(R"("\u20AC")"), "\xE2\x82\xAC");
    EXPECT_EQ(decoded(R"("A\u007f")"), "A\x7F");
    EXPECT_EQ(decoded(R"("\u0000")"), std::string(1, '\0'));
    // A surrogate pair is one code point (U+1F600), four bytes.
    EXPECT_EQ(decoded(R"("\uD83D\uDE00")"), "\xF0\x9F\x98\x80");
    EXPECT_EQ(decoded(R"("\uDBFF\uDFFF")"), "\xF4\x8F\xBF\xBF");
}

TEST(Json, LoneSurrogatesAreErrors)
{
    for (const char *doc :
         {R"("\uD800")", R"("\uD800x")", R"("\uDC00")", R"("\uDFFF\uD800")",
          R"("\uD800A")", R"("\uD800\uD800")", R"("\uD800\n")",
          R"("\uD800\u12")"}) {
        JsonValue v;
        std::string error;
        EXPECT_FALSE(parseJson(doc, v, error)) << doc;
        EXPECT_FALSE(error.empty()) << doc;
    }
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson(R"("\uDC00")", v, error));
    EXPECT_NE(error.find("surrogate"), std::string::npos) << error;
}

TEST(Json, EveryWrittenEscapeRoundTrips)
{
    // Every control code (jsonQuote writes \n, \r, \t, \b, \f or
    // \u00XX), the two escaped printables, and raw UTF-8 bytes.
    std::string text;
    for (int c = 0; c < 0x20; ++c)
        text += static_cast<char>(c);
    text += "\"\\/ plain \xC5\xA7 \xF0\x9F\x98\x80 \x7F";
    for (int c = 0; c < 0x20; ++c) {
        const std::string one(1, static_cast<char>(c));
        EXPECT_EQ(decoded(jsonQuote(one)), one) << "byte " << c;
    }
    EXPECT_EQ(decoded(jsonQuote(text)), text);
}

TEST(Json, NestingBoundIsExact)
{
    JsonValue v;
    std::string error;
    for (const std::string &inner : {std::string(), std::string("1")}) {
        EXPECT_TRUE(parseJson(nested(64, inner), v, error)) << error;
        EXPECT_FALSE(parseJson(nested(65, inner), v, error));
        EXPECT_NE(error.find("nesting deeper than 64"), std::string::npos)
            << error;
    }
    std::string objects;
    for (int i = 0; i < 64; ++i)
        objects += "{\"a\":";
    objects += "0" + std::string(64, '}');
    EXPECT_TRUE(parseJson(objects, v, error)) << error;
    EXPECT_FALSE(parseJson("[" + objects + "]", v, error));
}

TEST(Json, NumberSpellings)
{
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson("-0", v, error)) << error;
    EXPECT_EQ(v.kind, JsonValue::Kind::Int);
    EXPECT_EQ(v.integer, 0);
    ASSERT_TRUE(parseJson("1e400", v, error)) << error;
    EXPECT_EQ(v.kind, JsonValue::Kind::Double);
    EXPECT_TRUE(std::isinf(v.number));
    EXPECT_FALSE(v.exactInt().has_value());
    // An integer outside int64 reads as a Double that exactInt() refuses.
    ASSERT_TRUE(parseJson("99999999999999999999", v, error)) << error;
    EXPECT_EQ(v.kind, JsonValue::Kind::Double);
    EXPECT_FALSE(v.exactInt().has_value());
    for (const char *good : {"0", "-0.0", "0.5", "0e0", "10", "1E+2", "-1e-2"})
        EXPECT_TRUE(parseJson(good, v, error)) << good << ": " << error;
    // RFC 8259: no leading zero, and digits after '.' and an exponent.
    for (const char *bad :
         {".5", "-", "--1", "1e", "+1", "1.2.3", "0x10", "01", "-01", "00",
          "01.5", "-.5", "1.", "1.e5", "1e+", "[01]", "{\"a\": 1.}"}) {
        EXPECT_FALSE(parseJson(bad, v, error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(Json, UnescapedControlBytesAreErrors)
{
    JsonValue v;
    std::string error;
    for (int c = 0; c < 0x20; ++c) {
        const std::string doc = "\"a" + std::string(1, static_cast<char>(c)) +
                                "b\"";
        EXPECT_FALSE(parseJson(doc, v, error)) << "byte " << c;
        EXPECT_NE(error.find("control byte"), std::string::npos) << error;
    }
    // Escaped, the same bytes read back; DEL and UTF-8 bytes stay raw.
    EXPECT_EQ(decoded(R"("a\u001fb\tc")"), "a\x1F" "b\tc");
    EXPECT_EQ(decoded("\"\x7F\xC5\xA7\""), "\x7F\xC5\xA7");
}

TEST(Json, SurvivesSeededMutations)
{
    // Seeds spanning the grammar's corners; every mutant must parse to
    // an error or to a value whose serialization parses back to the
    // same value.
    const std::vector<std::string> seeds = {
        R"({"s": "a\"b\\c\/d\n\r\t\b\f\u0001\u001f", "u": )"
        R"("\u0167emm \u20ac \ud83d\ude00 \uDBFF\uDFFF"})",
        R"([-0, 01, 0.5, -1.5e-3, 1e400, -1e400, 9223372036854775807, )"
        R"(-9223372036854775808, 99999999999999999999, 2.0, 1E+2])",
        R"([.5, -, 1e, true, false, null])",
        R"({"o": {"t": true, "f": false, "z": null}, "e": [], "eo": {}})",
        nested(64, "\"\\uD834\\uDD1E\""),
        nested(65, "0"),
    };
    const std::string alphabet = pom::mutation::kJsonAlphabet + "uDdA";
    pom::support::SplitMix64 rng(28);
    std::size_t parsed = 0, rejected = 0;
    for (const std::string &seed : seeds) {
        std::string doc = seed;
        for (int edit = 0; edit < 4000; ++edit) {
            // Drift by up to four edits from the seed, then start over.
            doc = edit % 4 == 0 ? seed : doc;
            doc = pom::mutation::mutateOnce(doc, rng, alphabet);
            JsonValue value;
            std::string error;
            if (!parseJson(doc, value, error)) {
                EXPECT_FALSE(error.empty()) << doc;
                ++rejected;
                continue;
            }
            ++parsed;
            const std::string text = serialize(value);
            JsonValue again;
            ASSERT_TRUE(parseJson(text, again, error))
                << "mutant " << doc << " re-serialized as " << text
                << ": " << error;
            EXPECT_TRUE(again == value)
                << "mutant " << doc << " re-serialized as " << text;
            EXPECT_EQ(serialize(again), text);
        }
    }
    // The stream must exercise both outcomes.
    EXPECT_GT(parsed, 1000u);
    EXPECT_GT(rejected, 1000u) << parsed << " parsed";
}

} // namespace
