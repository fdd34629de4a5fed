/**
 * @file
 * Attributes: named compile-time constants attached to operations, the
 * mechanism POM uses to annotate the affine dialect with HLS pragma
 * information (paper §V.C). Structured polyhedral payloads (bound lists
 * and affine maps) are first-class attribute kinds, so the emitter and
 * the interpreter read affine.for bounds and affine.load/store access
 * maps directly, and the printed debug view shows them exactly.
 */

#ifndef POM_IR_ATTRIBUTE_H
#define POM_IR_ATTRIBUTE_H

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "poly/affine_map.h"
#include "poly/integer_set.h"

namespace pom::ir {

/** A single attribute value. */
class Attribute
{
  public:
    using Storage = std::variant<std::int64_t, double, std::string,
                                 std::vector<std::int64_t>,
                                 poly::DimBounds, poly::AffineMap,
                                 std::vector<poly::Constraint>>;

    Attribute() : storage_(std::int64_t(0)) {}
    Attribute(std::int64_t v) : storage_(v) {}
    Attribute(int v) : storage_(std::int64_t(v)) {}
    Attribute(double v) : storage_(v) {}
    Attribute(std::string v) : storage_(std::move(v)) {}
    Attribute(const char *v) : storage_(std::string(v)) {}
    Attribute(std::vector<std::int64_t> v) : storage_(std::move(v)) {}
    Attribute(poly::DimBounds v) : storage_(std::move(v)) {}
    Attribute(poly::AffineMap v) : storage_(std::move(v)) {}
    Attribute(std::vector<poly::Constraint> v) : storage_(std::move(v)) {}

    std::int64_t asInt() const { return std::get<std::int64_t>(storage_); }
    double asFloat() const { return std::get<double>(storage_); }
    const std::string &asString() const
    {
        return std::get<std::string>(storage_);
    }
    const std::vector<std::int64_t> &asIntVector() const
    {
        return std::get<std::vector<std::int64_t>>(storage_);
    }
    const poly::DimBounds &asBounds() const
    {
        return std::get<poly::DimBounds>(storage_);
    }
    const poly::AffineMap &asMap() const
    {
        return std::get<poly::AffineMap>(storage_);
    }
    const std::vector<poly::Constraint> &asConstraints() const
    {
        return std::get<std::vector<poly::Constraint>>(storage_);
    }

    template <typename T> bool
    is() const
    {
        return std::holds_alternative<T>(storage_);
    }

    /** Render for the IR printer. */
    std::string str() const;

  private:
    Storage storage_;
};

/** Attribute dictionary carried by every operation. */
using AttrMap = std::map<std::string, Attribute>;

/**
 * Well-known attribute names.
 *
 * HLS pragma attributes (translated to #pragma HLS during emission):
 *  - kAttrPipelineII on affine.for: target initiation interval.
 *  - kAttrUnroll on affine.for: unroll factor (0 = full).
 *  - kAttrPartition* on func arguments via func-level attrs.
 */
inline constexpr const char *kAttrPipelineII = "hls.pipeline_ii";
inline constexpr const char *kAttrUnroll = "hls.unroll";
inline constexpr const char *kAttrLowerBounds = "affine.lower_bounds";
inline constexpr const char *kAttrUpperBounds = "affine.upper_bounds";
inline constexpr const char *kAttrAccessMap = "affine.map";
inline constexpr const char *kAttrIterName = "affine.iter_name";
inline constexpr const char *kAttrSymName = "sym_name";
inline constexpr const char *kAttrValue = "value";
inline constexpr const char *kAttrCondition = "affine.condition";
inline constexpr const char *kAttrPartitionFactors = "hls.partition_factors";
inline constexpr const char *kAttrDependenceFree = "hls.dependence_free";
inline constexpr const char *kAttrPartitionKind = "hls.partition_kind";

} // namespace pom::ir

#endif // POM_IR_ATTRIBUTE_H
