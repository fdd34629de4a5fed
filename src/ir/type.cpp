#include "ir/type.h"

#include <sstream>

#include "support/diagnostics.h"

namespace pom::ir {

int
bitWidth(ScalarKind kind)
{
    switch (kind) {
      case ScalarKind::I8:
      case ScalarKind::U8:
        return 8;
      case ScalarKind::I16:
      case ScalarKind::U16:
        return 16;
      case ScalarKind::I32:
      case ScalarKind::U32:
      case ScalarKind::F32:
        return 32;
      case ScalarKind::I64:
      case ScalarKind::U64:
      case ScalarKind::F64:
      case ScalarKind::Index:
        return 64;
    }
    return 0;
}

bool
isFloat(ScalarKind kind)
{
    return kind == ScalarKind::F32 || kind == ScalarKind::F64;
}

std::string
scalarName(ScalarKind kind)
{
    switch (kind) {
      case ScalarKind::I8: return "i8";
      case ScalarKind::I16: return "i16";
      case ScalarKind::I32: return "i32";
      case ScalarKind::I64: return "i64";
      case ScalarKind::U8: return "u8";
      case ScalarKind::U16: return "u16";
      case ScalarKind::U32: return "u32";
      case ScalarKind::U64: return "u64";
      case ScalarKind::F32: return "f32";
      case ScalarKind::F64: return "f64";
      case ScalarKind::Index: return "index";
    }
    return "?";
}

std::string
scalarCName(ScalarKind kind)
{
    switch (kind) {
      case ScalarKind::I8: return "int8_t";
      case ScalarKind::I16: return "int16_t";
      case ScalarKind::I32: return "int32_t";
      case ScalarKind::I64: return "int64_t";
      case ScalarKind::U8: return "uint8_t";
      case ScalarKind::U16: return "uint16_t";
      case ScalarKind::U32: return "uint32_t";
      case ScalarKind::U64: return "uint64_t";
      case ScalarKind::F32: return "float";
      case ScalarKind::F64: return "double";
      case ScalarKind::Index: return "int";
    }
    return "?";
}

std::int64_t
Type::numElements() const
{
    POM_ASSERT(is_memref_, "numElements on a scalar type");
    std::int64_t n = 1;
    for (auto d : shape_)
        n *= d;
    return n;
}

std::string
Type::str() const
{
    if (!is_memref_)
        return scalarName(kind_);
    std::ostringstream os;
    os << "memref<";
    for (auto d : shape_)
        os << d << "x";
    os << scalarName(kind_) << ">";
    return os.str();
}

} // namespace pom::ir
