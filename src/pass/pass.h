/**
 * @file
 * The pass infrastructure for POM's lowering pipeline (the MLIR
 * PassManager substitute). A Pass transforms a PipelineState -- the
 * bundle of artifacts flowing through the three IR layers (DSL
 * function, polyhedral statements, polyhedral AST, annotated affine
 * dialect). Front-end passes (extract-stmts, schedule-apply) populate
 * the early fields; IR passes (verify, strip-hls) only need `func` and
 * can therefore also run on textual IR driven by pom-opt.
 */

#ifndef POM_PASS_PASS_H
#define POM_PASS_PASS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ast/build.h"
#include "ir/operation.h"
#include "transform/poly_stmt.h"

namespace pom::dsl {
class Function;
}

namespace pom::pass {

/** The artifacts a pipeline operates on. Absent pieces are empty/null. */
struct PipelineState
{
    /** Source DSL function (not owned; null when driving textual IR). */
    const dsl::Function *dslFunc = nullptr;

    /** Polyhedral statements (layer 2). */
    std::vector<transform::PolyStmt> stmts;

    /** Polyhedral AST built from the statements. */
    ast::AstNodePtr astRoot;

    /** Annotated affine dialect (layer 3). */
    std::unique_ptr<ir::Operation> func;
};

/** Options parsed from a pipeline spec, e.g. `pass{key=value}`. */
using PassOptions = std::map<std::string, std::string>;

/**
 * A single pipeline stage. Subclasses implement run() and may record
 * named statistics counters via addStat(); the PassManager collects
 * the counters and the wall-clock time of every execution.
 *
 * Failures are reported by throwing support::FatalError (user-level
 * problems such as malformed IR); POM_ASSERT stays reserved for
 * compiler bugs.
 */
class Pass
{
  public:
    explicit Pass(std::string name) : name_(std::move(name)) {}
    virtual ~Pass() = default;

    const std::string &name() const { return name_; }

    /** Transform @p state in place. */
    virtual void run(PipelineState &state) = 0;

    /** Statistics recorded by the last run() invocation. */
    const std::map<std::string, std::int64_t> &statistics() const
    {
        return stats_;
    }

    /** Reset statistics (PassManager does this before each run). */
    void clearStatistics() { stats_.clear(); }

  protected:
    /** Bump a named statistic counter. */
    void
    addStat(const std::string &key, std::int64_t delta = 1)
    {
        stats_[key] += delta;
    }

  private:
    std::string name_;
    std::map<std::string, std::int64_t> stats_;
};

} // namespace pom::pass

#endif // POM_PASS_PASS_H
