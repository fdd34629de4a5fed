#include "support/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pom::support {

namespace {

/** Most arrays and objects one value may nest. */
constexpr int kMaxDepth = 64;

class Parser
{
  public:
    Parser(const std::string &text, std::string &error)
        : text_(text), error_(error)
    {}

    bool
    parseDocument(JsonValue &out)
    {
        if (!parseValue(out, 0))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing garbage after the document");
        return true;
    }

  private:
    bool
    fail(const std::string &what)
    {
        if (error_.empty())
            error_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos_;
        return true;
    }

    bool
    peek(char c)
    {
        skipSpace();
        return pos_ < text_.size() && text_[pos_] == c;
    }

    bool
    parseString(std::string &out)
    {
        out.clear();
        if (!consume('"'))
            return false;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                if (static_cast<unsigned char>(c) < 0x20)
                    return fail("unescaped control byte in a string");
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                std::uint32_t cp = 0;
                if (!parseHex4(cp))
                    return false;
                if (cp >= 0xDC00 && cp <= 0xDFFF)
                    return fail("lone low surrogate in \\u escape");
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // A high surrogate must be followed by the escape
                    // of a low one; the pair is one code point.
                    std::uint32_t low = 0;
                    if (text_.compare(pos_, 2, "\\u") != 0)
                        return fail("lone high surrogate in \\u escape");
                    pos_ += 2;
                    if (!parseHex4(low))
                        return false;
                    if (low < 0xDC00 || low > 0xDFFF)
                        return fail("lone high surrogate in \\u escape");
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    /** The 4 hex digits of a \\u escape at pos_, as @p v. */
    bool
    parseHex4(std::uint32_t &v)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        v = 0;
        for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            v <<= 4;
            if (h >= '0' && h <= '9')
                v |= static_cast<std::uint32_t>(h - '0');
            else if (h >= 'a' && h <= 'f')
                v |= static_cast<std::uint32_t>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                v |= static_cast<std::uint32_t>(h - 'A' + 10);
            else
                return fail("bad \\u escape digit");
        }
        return true;
    }

    /** Append code point @p cp (at most 0x10FFFF) as UTF-8. */
    static void
    appendUtf8(std::string &out, std::uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    /** Skip the decimal digits at pos_; how many there were. */
    size_t
    skipDigits()
    {
        size_t from = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9') {
            ++pos_;
        }
        return pos_ - from;
    }

    /** Is the byte at pos_ one of @p chars? Consumes it if so. */
    bool
    accept(std::string_view chars)
    {
        if (pos_ >= text_.size() ||
            chars.find(text_[pos_]) == std::string_view::npos) {
            return false;
        }
        ++pos_;
        return true;
    }

    /**
     * RFC 8259: `-`? (`0` | [1-9][0-9]*) (`.` [0-9]+)? ([eE] [+-]?
     * [0-9]+)?
     */
    bool
    parseNumber(JsonValue &out)
    {
        skipSpace();
        size_t start = pos_;
        accept("-");
        size_t first = pos_;
        size_t intDigits = skipDigits();
        if (intDigits == 0)
            return fail("expected digits");
        if (intDigits > 1 && text_[first] == '0')
            return fail("leading zero in a number");
        bool fractional = false;
        if (accept(".")) {
            fractional = true;
            if (skipDigits() == 0)
                return fail("expected digits after the decimal point");
        }
        if (accept("eE")) {
            fractional = true;
            accept("+-");
            if (skipDigits() == 0)
                return fail("expected digits in the exponent");
        }
        std::string token = text_.substr(start, pos_ - start);
        if (!fractional) {
            // Overflow-checked decimal int64.
            std::int64_t v = 0;
            bool negative = token[0] == '-';
            size_t i = negative ? 1 : 0;
            bool overflow = false;
            for (; i < token.size(); ++i) {
                int d = token[i] - '0';
                if (v > (INT64_MAX - d) / 10) {
                    overflow = true;
                    break;
                }
                v = v * 10 + d;
            }
            if (!overflow) {
                out.kind = JsonValue::Kind::Int;
                out.integer = negative ? -v : v;
                return true;
            }
            // Fall through: an integer outside int64 parses as a double,
            // which exactInt() refuses.
        }
        char *end = nullptr;
        double d = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0')
            return fail("malformed number '" + token + "'");
        out.kind = JsonValue::Kind::Double;
        out.number = d;
        return true;
    }

    /** One value; @p depth counts the arrays and objects around it. */
    bool
    parseValue(JsonValue &out, int depth)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return fail("expected a value");
        char c = text_[pos_];
        if ((c == '{' || c == '[') && depth >= kMaxDepth)
            return fail("nesting deeper than " +
                        std::to_string(kMaxDepth) + " levels");
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.text);
        }
        if (c == '{') {
            ++pos_;
            out.kind = JsonValue::Kind::Object;
            if (peek('}')) {
                ++pos_;
                return true;
            }
            while (true) {
                std::string key;
                skipSpace();
                if (!parseString(key) || !consume(':'))
                    return false;
                JsonValue member;
                if (!parseValue(member, depth + 1))
                    return false;
                out.members.emplace_back(std::move(key),
                                         std::move(member));
                if (peek(',')) {
                    ++pos_;
                    continue;
                }
                return consume('}');
            }
        }
        if (c == '[') {
            ++pos_;
            out.kind = JsonValue::Kind::Array;
            if (peek(']')) {
                ++pos_;
                return true;
            }
            while (true) {
                JsonValue item;
                if (!parseValue(item, depth + 1))
                    return false;
                out.items.push_back(std::move(item));
                if (peek(',')) {
                    ++pos_;
                    continue;
                }
                return consume(']');
            }
        }
        if (c == '-' || (c >= '0' && c <= '9'))
            return parseNumber(out);
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return true;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return true;
        }
        if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            out.kind = JsonValue::Kind::Null;
            return true;
        }
        return fail("unrecognized value");
    }

    const std::string &text_;
    std::string &error_;
    size_t pos_ = 0;
};

} // namespace

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : members) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

std::optional<std::int64_t>
JsonValue::exactInt() const
{
    if (kind == Kind::Int)
        return integer;
    // [-2^63, 2^63) holds exactly the doubles that fit an int64; the
    // cast of anything else (NaN and infinities included) is undefined.
    if (kind == Kind::Double && std::trunc(number) == number &&
        number >= -9223372036854775808.0 && number < 9223372036854775808.0)
        return static_cast<std::int64_t>(number);
    return std::nullopt;
}

bool
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    out = JsonValue();
    error.clear();
    Parser p(text, error);
    return p.parseDocument(out);
}

std::string
jsonQuote(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    out += '"';
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

} // namespace pom::support
