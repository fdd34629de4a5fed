/**
 * @file
 * Canonical POM DSL source for a function: the whole program
 * (renderDsl(): the Fig. 15 lines-of-code count, `pomc --dsl` and the
 * fuzzer's reproducers) or only the primitives recorded on it
 * (renderSchedule(): the oracle's "offending primitive sequence").
 */

#ifndef POM_DSL_RENDER_H
#define POM_DSL_RENDER_H

#include <string>

#include "dsl/dsl.h"

namespace pom::dsl {

/** The function as canonical POM DSL source, ending in `codegen();`. */
std::string renderDsl(const Function &func);

/**
 * The scheduling primitives recorded on @p func, one statement per
 * line: every compute's directives in order, then every placeholder's
 * partition.
 */
std::string renderSchedule(const Function &func);

} // namespace pom::dsl

#endif // POM_DSL_RENDER_H
