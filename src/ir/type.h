/**
 * @file
 * The type system of POM's compact multi-level IR kernel (the MLIR
 * substitute). POM programs use scalar element types -- the data-type
 * customization surface of the paper's DSL (§IV.A): signed/unsigned
 * integers of 8/16/32/64 bits and 32/64-bit floats -- plus `index` for
 * loop induction variables and `memref` for array references.
 */

#ifndef POM_IR_TYPE_H
#define POM_IR_TYPE_H

#include <cstdint>
#include <string>
#include <vector>

namespace pom::ir {

/** Scalar element kinds supported by the DSL (paper Table: p_* types). */
enum class ScalarKind
{
    I8, I16, I32, I64,
    U8, U16, U32, U64,
    F32, F64,
    Index,
};

/** Bit width of a scalar kind (index counts as 64). */
int bitWidth(ScalarKind kind);

/** True for F32/F64. */
bool isFloat(ScalarKind kind);

/** Printable name, e.g. "f32", "i8", "index". */
std::string scalarName(ScalarKind kind);

/** HLS C type spelling, e.g. "float", "int8_t". */
std::string scalarCName(ScalarKind kind);

/**
 * A value type: a scalar, or a memref (shaped array reference) of a
 * scalar element type.
 */
class Type
{
  public:
    Type() = default;

    /** Scalar type. */
    static Type scalar(ScalarKind kind) { return Type(kind, {}); }

    /** Shaped memref type. */
    static Type
    memref(ScalarKind elem, std::vector<std::int64_t> shape)
    {
        Type t(elem, std::move(shape));
        t.is_memref_ = true;
        return t;
    }

    static Type f32() { return scalar(ScalarKind::F32); }
    static Type index() { return scalar(ScalarKind::Index); }

    bool isMemRef() const { return is_memref_; }
    bool isIndex() const { return !is_memref_ && kind_ == ScalarKind::Index; }
    bool isFloatScalar() const { return !is_memref_ && isFloat(kind_); }

    ScalarKind elementKind() const { return kind_; }
    const std::vector<std::int64_t> &shape() const { return shape_; }
    size_t rank() const { return shape_.size(); }

    /** Total number of elements of a memref. */
    std::int64_t numElements() const;

    /** Render, e.g. "f32" or "memref<32x32xf32>". */
    std::string str() const;

    bool operator==(const Type &o) const = default;

  private:
    Type(ScalarKind kind, std::vector<std::int64_t> shape)
        : kind_(kind), shape_(std::move(shape))
    {}

    ScalarKind kind_ = ScalarKind::F32;
    std::vector<std::int64_t> shape_;
    bool is_memref_ = false;
};

} // namespace pom::ir

#endif // POM_IR_TYPE_H
