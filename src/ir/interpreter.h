/**
 * @file
 * A reference interpreter for the annotated affine dialect. POM uses it
 * in place of actual FPGA execution: every loop transformation and
 * hardware annotation must leave the interpreted result unchanged, which
 * the test suite checks property-style. HLS attributes (pipeline,
 * unroll, partition) are schedule metadata and do not affect semantics.
 *
 * Numeric model: all scalar arithmetic is evaluated in double precision
 * regardless of the declared element type; element types matter for
 * resource estimation and C emission, not for functional checks.
 */

#ifndef POM_IR_INTERPRETER_H
#define POM_IR_INTERPRETER_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/operation.h"

namespace pom::ir {

/** A dense row-major array bound to a func.func memref parameter. */
class Buffer
{
  public:
    explicit Buffer(Type type);

    const Type &type() const { return type_; }

    double &at(const std::vector<std::int64_t> &indices);

    std::vector<double> &data() { return data_; }
    const std::vector<double> &data() const { return data_; }

    /** Fill with a deterministic pseudo-random pattern (for tests). */
    void fillPattern(unsigned seed);

    void fill(double value);

  private:
    size_t flatten(const std::vector<std::int64_t> &indices) const;

    Type type_;
    std::vector<double> data_;
};

/** Buffers keyed by func.func parameter name. */
using BufferMap = std::map<std::string, std::shared_ptr<Buffer>>;

/**
 * Execute a func.func over the given buffers. Every memref parameter of
 * the function must have a matching buffer (name and type).
 *
 * @returns the number of executed statement-level operations
 *          (loads+stores+arith), a rough dynamic-work measure.
 */
std::uint64_t runFunction(const Operation &func, BufferMap &buffers);

/** Allocate buffers matching a function's memref parameters. */
BufferMap makeBuffersFor(const Operation &func, unsigned seed = 1);

} // namespace pom::ir

#endif // POM_IR_INTERPRETER_H
