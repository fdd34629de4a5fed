#include "driver/compiler.h"

#include "ir/verifier.h"
#include "obs/obs.h"
#include "support/diagnostics.h"

namespace pom::driver {

CompileResult
compile(dsl::Function &func)
{
    obs::Span span("driver.compile", "driver");
    span.arg("function", func.name());
    support::diag(support::DiagLevel::Debug,
                  "compiling function '" + func.name() + "'");
    CompileResult result;

    if (func.autoDSERequested()) {
        // The search's first point is the unscheduled baseline.
        obs::Span dse_span("driver.dse", "driver");
        dse::DseResult dres = dse::autoDSE(func);
        result.baseline = std::move(dres.baseline);
        result.design = std::move(dres.design);
        result.report = std::move(dres.report);
        result.dseSeconds = dres.dseSeconds;
    } else {
        {
            obs::Span baseline_span("driver.baseline", "driver");
            result.baseline =
                hls::estimate(func, lower::lowerUnscheduled(func));
        }
        obs::Span lower_span("driver.lower", "driver");
        lower::LoweredFunction design = lower::lower(func);
        result.report = hls::estimate(func, design);
        result.design =
            std::make_shared<const dse::SelectedDesign>(std::move(design));
    }

    {
        obs::Span verify_span("driver.verify-ir", "driver");
        auto errors = ir::verify(*result.design->lowered.func);
        if (!errors.empty()) {
            support::fatal("generated IR failed verification: " +
                           errors[0]);
        }
    }
    return result;
}

} // namespace pom::driver
