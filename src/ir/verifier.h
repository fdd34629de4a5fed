/**
 * @file
 * Structural verifier for the affine dialect subset. driver::compile
 * runs it on every design it emits; a non-empty error list indicates a
 * compiler bug upstream.
 */

#ifndef POM_IR_VERIFIER_H
#define POM_IR_VERIFIER_H

#include <string>
#include <vector>

#include "ir/operation.h"

namespace pom::ir {

/**
 * Verify an operation tree. Returns human-readable error strings; empty
 * means the IR is well-formed.
 */
std::vector<std::string> verify(const Operation &op);

} // namespace pom::ir

#endif // POM_IR_VERIFIER_H
