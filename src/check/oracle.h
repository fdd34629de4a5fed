/**
 * @file
 * Differential equivalence oracle for the transform pipeline.
 *
 * The interpreter contract (ir/interpreter.h) is that every loop
 * transformation and hardware annotation leaves the interpreted result
 * unchanged. The oracle enforces it: a DSL function is lowered twice --
 * once with only the statement-ordering primitives applied (after/fuse
 * are part of the program's semantics), once with the full schedule
 * under test -- and both designs are interpreted over identically
 * pattern-filled buffers. The first divergent element is reported with
 * its array, multi-dimensional index and both values.
 *
 * Comparison uses a small relative/absolute tolerance: legal transforms
 * may reorder floating-point reductions (the interpreter evaluates in
 * double), so exact equality is too strict, while genuine miscompiles
 * produce errors many orders of magnitude above the tolerance.
 */

#ifndef POM_CHECK_ORACLE_H
#define POM_CHECK_ORACLE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dsl/dsl.h"
#include "ir/interpreter.h"
#include "lower/lower.h"

namespace pom::check {

/** First divergent element between reference and test run. */
struct Divergence
{
    std::string array;
    std::vector<std::int64_t> index;
    double expected = 0.0;
    double actual = 0.0;
};

/** Outcome of one oracle check. */
struct OracleResult
{
    bool equivalent = true;

    /** Set when !equivalent and the runs disagreed on a value. */
    std::optional<Divergence> divergence;

    /** Dynamic work counts of the two runs (diagnostic). */
    std::uint64_t refWork = 0;
    std::uint64_t testWork = 0;

    /** Human-readable failure report (empty when equivalent). */
    std::string message;
};

/**
 * Interpret a lowered design over pattern-filled buffers and return the
 * final buffer state. @p work receives the dynamic op count if non-null.
 */
ir::BufferMap runLowered(const lower::LoweredFunction &design,
                         unsigned seed, std::uint64_t *work = nullptr);

/**
 * Check a fully-lowered design (e.g. a DSE design point) against the
 * reference semantics of @p func, both run over buffers filled from
 * @p seed.
 */
OracleResult checkLowered(const dsl::Function &func,
                          const lower::LoweredFunction &design,
                          unsigned seed = 1);

/**
 * Check the schedule currently recorded on @p func: lower it with all
 * directives applied and compare against the reference lowering.
 */
OracleResult checkFunction(const dsl::Function &func, unsigned seed = 1);

} // namespace pom::check

#endif // POM_CHECK_ORACLE_H
