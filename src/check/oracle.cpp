#include "check/oracle.h"

#include <cmath>
#include <sstream>

#include "dsl/render.h"
#include "obs/obs.h"

namespace pom::check {

namespace {

/** Relative tolerance (reduction reordering drifts by rounding). */
constexpr double kRtol = 1e-6;

/** Absolute tolerance for values near zero. */
constexpr double kAtol = 1e-9;

/** Unflatten a row-major offset into per-dimension indices. */
std::vector<std::int64_t>
unflatten(size_t flat, const std::vector<std::int64_t> &shape)
{
    std::vector<std::int64_t> idx(shape.size(), 0);
    for (size_t d = shape.size(); d-- > 0;) {
        idx[d] = static_cast<std::int64_t>(flat) % shape[d];
        flat /= static_cast<size_t>(shape[d]);
    }
    return idx;
}

} // namespace

ir::BufferMap
runLowered(const lower::LoweredFunction &design, unsigned seed,
           std::uint64_t *work)
{
    obs::Span span("check.interpret", "check");
    ir::BufferMap buffers = ir::makeBuffersFor(*design.func, seed);
    std::uint64_t w = ir::runFunction(*design.func, buffers);
    span.arg("steps", static_cast<std::int64_t>(w));
    if (work)
        *work = w;
    return buffers;
}

OracleResult
checkLowered(const dsl::Function &func,
             const lower::LoweredFunction &design, unsigned seed)
{
    obs::Span span("check.oracle", "check");
    OracleResult result;
    auto ref_design = lower::lowerUnscheduled(func);
    ir::BufferMap ref = runLowered(ref_design, seed, &result.refWork);
    ir::BufferMap test = runLowered(design, seed, &result.testWork);
    span.arg("seed", static_cast<std::int64_t>(seed));

    for (const auto &[name, ref_buf] : ref) {
        auto it = test.find(name);
        if (it == test.end()) {
            result.equivalent = false;
            result.message = "test design has no buffer '" + name + "'";
            return result;
        }
        const auto &a = ref_buf->data();
        const auto &b = it->second->data();
        if (a.size() != b.size()) {
            result.equivalent = false;
            result.message = "buffer '" + name + "' changed size";
            return result;
        }
        for (size_t i = 0; i < a.size(); ++i) {
            double tol =
                kAtol + kRtol * std::max(std::abs(a[i]), std::abs(b[i]));
            if (std::abs(a[i] - b[i]) <= tol)
                continue;
            result.equivalent = false;
            Divergence div;
            div.array = name;
            div.index = unflatten(i, ref_buf->type().shape());
            div.expected = a[i];
            div.actual = b[i];
            std::ostringstream os;
            os << "schedule is not semantics-preserving: " << name << "[";
            for (size_t d = 0; d < div.index.size(); ++d)
                os << (d ? ", " : "") << div.index[d];
            os << "] expected " << div.expected << ", got " << div.actual
               << " (seed " << seed << ")\n"
               << "offending primitive sequence:\n"
               << dsl::renderSchedule(func);
            result.message = os.str();
            result.divergence = std::move(div);
            return result;
        }
    }
    return result;
}

OracleResult
checkFunction(const dsl::Function &func, unsigned seed)
{
    auto design = lower::lower(func);
    return checkLowered(func, design, seed);
}

} // namespace pom::check
