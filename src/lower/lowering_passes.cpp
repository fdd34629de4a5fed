/**
 * @file
 * The progressive lowering pipeline as registered passes. Each pass is
 * a thin adapter over the staged entry points in lower.h so the same
 * code drives lower()/lowerStmts(), pom-opt pipelines, and tests.
 */

#include <mutex>

#include "lower/lower.h"
#include "pass/pass_manager.h"
#include "support/diagnostics.h"

namespace pom::lower {

namespace {

void
requireDslFunc(const pass::PipelineState &state, const char *pass)
{
    if (!state.dslFunc) {
        support::fatal(std::string(pass) +
                       ": pipeline state carries no DSL function (this "
                       "pass cannot run on textual IR)");
    }
}

/** DSL function -> polyhedral statements (identity schedules). */
class ExtractStmtsPass : public pass::Pass
{
  public:
    ExtractStmtsPass() : Pass("extract-stmts") {}

    void
    run(pass::PipelineState &state) override
    {
        requireDslFunc(state, "extract-stmts");
        state.stmts = extractStmts(*state.dslFunc);
        addStat("stmts", static_cast<std::int64_t>(state.stmts.size()));
    }
};

/** Apply the computes' recorded scheduling primitives. */
class ScheduleApplyPass : public pass::Pass
{
  public:
    explicit ScheduleApplyPass(bool ordering_only)
        : Pass("schedule-apply"), ordering_only_(ordering_only)
    {}

    void
    run(pass::PipelineState &state) override
    {
        std::int64_t directives = 0;
        for (const auto &stmt : state.stmts)
            directives +=
                static_cast<std::int64_t>(stmt.source->directives().size());
        applyDirectives(state.stmts, ordering_only_);
        addStat("directives", directives);
        if (ordering_only_)
            addStat("ordering-only");
    }

  private:
    bool ordering_only_;
};

/** Attach HLS DEPENDENCE hints to pipelined loop levels. */
class AnnotatePragmasPass : public pass::Pass
{
  public:
    AnnotatePragmasPass() : Pass("annotate-pragmas") {}

    void
    run(pass::PipelineState &state) override
    {
        std::size_t hints = annotateDependenceHints(state.stmts);
        addStat("dependence-hints", static_cast<std::int64_t>(hints));
    }
};

/** Polyhedral statements -> polyhedral AST. */
class BuildAstPass : public pass::Pass
{
  public:
    BuildAstPass() : Pass("build-ast") {}

    void
    run(pass::PipelineState &state) override
    {
        if (state.stmts.empty())
            support::fatal("build-ast: no polyhedral statements (run "
                           "extract-stmts first)");
        std::vector<ast::ScheduledStmt> sched;
        sched.reserve(state.stmts.size());
        for (const auto &s : state.stmts)
            sched.push_back(s.sched);
        state.astRoot = ast::buildAst(sched);
        addStat("scheduled-stmts",
                static_cast<std::int64_t>(sched.size()));
    }
};

/** Polyhedral AST -> annotated affine dialect. */
class AstToAffinePass : public pass::Pass
{
  public:
    AstToAffinePass() : Pass("ast-to-affine") {}

    void
    run(pass::PipelineState &state) override
    {
        requireDslFunc(state, "ast-to-affine");
        if (!state.astRoot)
            support::fatal("ast-to-affine: no polyhedral AST (run "
                           "build-ast first)");
        state.func =
            generateAffine(*state.dslFunc, state.stmts, *state.astRoot);
    }
};

bool
boolOption(const pass::PassOptions &options, const std::string &key)
{
    auto it = options.find(key);
    if (it == options.end())
        return false;
    if (it->second == "true" || it->second == "1" || it->second.empty())
        return true;
    if (it->second == "false" || it->second == "0")
        return false;
    support::fatal("option '" + key + "' expects true/false, got '" +
                   it->second + "'");
}

} // namespace

void
registerLoweringPasses()
{
    // Daemon requests and bench sweeps lower concurrently; registration
    // must be exactly-once, and callers must not observe a half-filled
    // registry, so the whole body runs under the once flag.
    static std::once_flag once;
    std::call_once(once, []() {
    auto &registry = pass::PassRegistry::instance();
    registry.add("extract-stmts",
                 "extract polyhedral statements from the DSL function",
                 [](const pass::PassOptions &) {
                     return std::make_unique<ExtractStmtsPass>();
                 });
    registry.add("schedule-apply",
                 "apply recorded scheduling primitives "
                 "(option: ordering-only=true)",
                 [](const pass::PassOptions &options) {
                     return std::make_unique<ScheduleApplyPass>(
                         boolOption(options, "ordering-only"));
                 });
    registry.add("annotate-pragmas",
                 "attach dependence-free hints to pipelined loops",
                 [](const pass::PassOptions &) {
                     return std::make_unique<AnnotatePragmasPass>();
                 });
    registry.add("build-ast",
                 "build the polyhedral AST from scheduled statements",
                 [](const pass::PassOptions &) {
                     return std::make_unique<BuildAstPass>();
                 });
    registry.add("ast-to-affine",
                 "generate annotated affine dialect from the AST",
                 [](const pass::PassOptions &) {
                     return std::make_unique<AstToAffinePass>();
                 });
    });
}

} // namespace pom::lower
