/**
 * @file
 * Core IR-level passes: they need only PipelineState::func and can run
 * on parsed textual IR (pom-opt) as well as on freshly lowered IR.
 */

#include "pass/pass_manager.h"

#include "ir/attribute.h"
#include "ir/verifier.h"
#include "support/diagnostics.h"

namespace pom::pass {

namespace {

void
requireFunc(const PipelineState &state, const char *pass)
{
    if (!state.func) {
        support::fatal(std::string(pass) +
                       ": pipeline state carries no affine IR (run the "
                       "lowering passes first, or feed textual IR)");
    }
}

/** Fails the pipeline if the affine IR is malformed. */
class VerifyPass : public Pass
{
  public:
    VerifyPass() : Pass("verify") {}

    void
    run(PipelineState &state) override
    {
        requireFunc(state, "verify");
        auto errors = ir::verify(*state.func);
        addStat("errors", static_cast<std::int64_t>(errors.size()));
        if (!errors.empty()) {
            std::string msg = "verify: IR is malformed: ";
            msg += errors[0];
            if (errors.size() > 1) {
                msg += " (and " + std::to_string(errors.size() - 1) +
                       " more)";
            }
            support::fatal(msg);
        }
    }
};

/** Removes every `hls.*` annotation, leaving plain affine IR. */
class StripHlsPass : public Pass
{
  public:
    StripHlsPass() : Pass("strip-hls") {}

    void
    run(PipelineState &state) override
    {
        requireFunc(state, "strip-hls");
        walk(*state.func);
    }

  private:
    void
    walk(ir::Operation &op)
    {
        std::vector<std::string> doomed;
        for (const auto &[key, value] : op.attrs()) {
            (void)value;
            if (key.rfind("hls.", 0) == 0)
                doomed.push_back(key);
        }
        for (const auto &key : doomed) {
            op.removeAttr(key);
            addStat("stripped-attrs");
        }
        for (size_t r = 0; r < op.numRegions(); ++r)
            for (const auto &inner : op.region(r).operations())
                walk(*inner);
    }
};

/** Counts ops per op-name into statistics; leaves the IR untouched. */
class CountOpsPass : public Pass
{
  public:
    CountOpsPass() : Pass("count-ops") {}

    void
    run(PipelineState &state) override
    {
        requireFunc(state, "count-ops");
        walk(*state.func);
    }

  private:
    void
    walk(const ir::Operation &op)
    {
        addStat(op.opName());
        for (size_t r = 0; r < op.numRegions(); ++r)
            for (const auto &inner : op.region(r).operations())
                walk(*inner);
    }
};

} // namespace

void
registerCoreIrPasses(PassRegistry &registry)
{
    registry.add("verify", "check affine IR structural invariants",
                 [](const PassOptions &) {
                     return std::make_unique<VerifyPass>();
                 });
    registry.add("strip-hls", "drop all hls.* pragma annotations",
                 [](const PassOptions &) {
                     return std::make_unique<StripHlsPass>();
                 });
    registry.add("count-ops", "count operations per op name",
                 [](const PassOptions &) {
                     return std::make_unique<CountOpsPass>();
                 });
}

} // namespace pom::pass
