/**
 * @file
 * The one codec of every record POM reads from outside the process: the
 * DSE journal (obs/journal.h), the pomd wire frames (service/protocol.h),
 * the node-cache spill entries (hls/node_cache.h) and pom-trend's
 * metrics reports and history.
 *
 * A record type declares its JSON keys once, as a field table: a
 * function template next to the type, found by argument-dependent
 * lookup, that names each key in emission order with the field it
 * carries.
 *
 *   template <support::RecordOf<Point> R, typename Visit>
 *   void visitFields(R &r, Visit &&visit)
 *   {
 *       visit("x", r.x);
 *       visit("label", r.label, !r.label.empty());
 *   }
 *
 * writeRecord() walks the table of a const record, readRecord() of a
 * mutable one, so the writer and the reader cannot drift apart. A third
 * argument says whether the key is on the wire: the writer skips the key
 * when it is false, and when it is a mutable bool member rather than a
 * value, the reader sets that member when the key is present.
 *
 * Field types and their JSON forms:
 *
 *   std::string            a string
 *   bool                   true or false
 *   other integral types   an integer; any exact integral value that
 *                          fits the field is read (JsonValue::exactInt(),
 *                          so `2.0` reads as 2)
 *   double                 `%.17g` (round-trip exact); any finite number
 *                          is read
 *   std::optional<T>       null or a T
 *   std::vector<Record>    an array, one record per line
 *   Record                 an object on one line
 *
 * A reader ignores unknown keys and leaves absent ones as they are. A
 * known key whose value has the wrong type or does not fit its field is
 * an error that names the key, never a silent conversion.
 */

#ifndef POM_SUPPORT_RECORD_H
#define POM_SUPPORT_RECORD_H

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/json.h"

namespace pom::support {

/** @p R is @p Record, const when writing: one table serves both ways. */
template <typename R, typename Record>
concept RecordOf = std::same_as<std::remove_const_t<R>, Record>;

namespace record_detail {

template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

inline std::string
fieldError(const char *key, const std::string &what)
{
    return std::string("field '") + key + "' must be " + what;
}

} // namespace record_detail

template <typename R>
void writeRecord(std::string &out, const R &r,
                 const std::string &indent = "");

/** A JSON array with one record per line, two spaces past @p indent. */
template <typename R>
void
writeRecords(std::string &out, const std::vector<R> &records,
             const std::string &indent)
{
    const std::string inner = indent + "  ";
    out += '[';
    const char *sep = "\n";
    for (const R &r : records) {
        out += sep;
        out += inner;
        writeRecord(out, r, inner);
        sep = ",\n";
    }
    out += '\n';
    out += indent;
    out += ']';
}

/** @p value in its JSON form; @p indent is the line's, for arrays. */
template <typename T>
void
writeValue(std::string &out, const T &value, const std::string &indent)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out += jsonQuote(value);
    } else if constexpr (std::is_same_v<T, bool>) {
        out += value ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
        char buf[24];
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    } else if constexpr (std::is_same_v<T, double>) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        out += buf;
    } else if constexpr (record_detail::kIsOptional<T>) {
        if (value)
            writeValue(out, *value, indent);
        else
            out += "null";
    } else if constexpr (record_detail::kIsVector<T>) {
        writeRecords(out, value, indent);
    } else {
        writeRecord(out, value, indent);
    }
}

/** Append @p r as one JSON object, its keys in table order. */
template <typename R>
void
writeRecord(std::string &out, const R &r, const std::string &indent)
{
    out += '{';
    const char *sep = "";
    visitFields(r, [&](const char *key, const auto &value,
                       bool written = true) {
        if (!written)
            return;
        out += sep;
        out += '"';
        out += key;
        out += "\": ";
        writeValue(out, value, indent);
        sep = ", ";
    });
    out += '}';
}

inline bool
readValue(const JsonValue &v, const char *key, std::string &out,
          std::string &error)
{
    if (!v.isString()) {
        error = record_detail::fieldError(key, "a string");
        return false;
    }
    out = v.text;
    return true;
}

inline bool
readValue(const JsonValue &v, const char *key, bool &out,
          std::string &error)
{
    if (v.kind != JsonValue::Kind::Bool) {
        error = record_detail::fieldError(key, "true or false");
        return false;
    }
    out = v.boolean;
    return true;
}

/** An exact integral value that fits @p out, `2.0` included. */
template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
bool
readValue(const JsonValue &v, const char *key, T &out, std::string &error)
{
    const std::optional<std::int64_t> exact = v.exactInt();
    if (!exact || !std::in_range<T>(*exact)) {
        // A JSON integer is an int64, so that caps a wider field.
        error = record_detail::fieldError(
            key, "an integer in [" +
                     std::to_string(std::numeric_limits<T>::min()) + ", " +
                     std::to_string(std::min<std::uint64_t>(
                         std::numeric_limits<T>::max(),
                         std::numeric_limits<std::int64_t>::max())) +
                     "]");
        return false;
    }
    out = static_cast<T>(*exact);
    return true;
}

inline bool
readValue(const JsonValue &v, const char *key, double &out,
          std::string &error)
{
    if (v.kind == JsonValue::Kind::Int) {
        out = static_cast<double>(v.integer);
        return true;
    }
    if (v.kind != JsonValue::Kind::Double || !std::isfinite(v.number)) {
        error = record_detail::fieldError(key, "a finite number");
        return false;
    }
    // -0.0 writes as "-0", which reads back as the integer 0.
    out = v.number == 0.0 ? 0.0 : v.number;
    return true;
}

template <typename T>
bool
readValue(const JsonValue &v, const char *key, std::optional<T> &out,
          std::string &error)
{
    if (v.kind == JsonValue::Kind::Null) {
        out.reset();
        return true;
    }
    T value{};
    if (!readValue(v, key, value, error))
        return false;
    out = std::move(value);
    return true;
}

template <typename R>
bool readRecord(const JsonValue &v, R &r, std::string &error);

/** An array of records. */
template <typename R>
bool
readValue(const JsonValue &v, const char *key, std::vector<R> &out,
          std::string &error)
{
    if (v.kind != JsonValue::Kind::Array) {
        error = record_detail::fieldError(key, "an array");
        return false;
    }
    out.assign(v.items.size(), R());
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (!v.items[i].isObject()) {
            error = record_detail::fieldError(key, "an array of objects");
            return false;
        }
        if (!readRecord(v.items[i], out[i], error))
            return false;
    }
    return true;
}

/** A nested record. */
template <typename R>
    requires std::is_class_v<R>
bool
readValue(const JsonValue &v, const char *key, R &out, std::string &error)
{
    if (!v.isObject()) {
        error = record_detail::fieldError(key, "an object");
        return false;
    }
    return readRecord(v, out, error);
}

/**
 * Fill @p r from the object @p v: each key of the table that is present
 * is read and checked. False, with @p error naming the key, on the first
 * value of the wrong type or out of its field's range.
 */
template <typename R>
bool
readRecord(const JsonValue &v, R &r, std::string &error)
{
    if (!v.isObject()) {
        error = "a record is not a JSON object";
        return false;
    }
    bool ok = true;
    visitFields(r, [&](const char *key, auto &field, auto &&...written) {
        const JsonValue *value = ok ? v.find(key) : nullptr;
        if (value == nullptr)
            return;
        ok = readValue(*value, key, field, error);
        // A mutable bool member, not a condition: it learns the key is here.
        if constexpr ((std::is_same_v<decltype(written), bool &> && ...))
            ((written = true), ...);
    });
    return ok;
}

} // namespace pom::support

#endif // POM_SUPPORT_RECORD_H
