#include "check/fuzzer.h"

#include <algorithm>
#include <sstream>

#include "check/legality.h"
#include "check/oracle.h"
#include "dsl/render.h"
#include "lower/lower.h"
#include "obs/obs.h"
#include "support/diagnostics.h"
#include "support/splitmix64.h"
#include "support/string_util.h"
#include "transform/poly_stmt.h"

namespace pom::check {

namespace {

/** Maximum primitives per generated schedule. */
constexpr std::uint64_t kMaxOps = 5;

/**
 * Apply @p op to @p stmt through the transform library: interchange,
 * split, tile and skew restructure its loops, pipeline and unroll
 * annotate one, and ordering and partition ops leave it alone. Throws
 * support::FatalError exactly when the library refuses the op -- a
 * missing loop, an interchange of a loop with itself, a tile of loops
 * that are not adjacent, a skew whose first loop is not outside the
 * second, a new loop name already in use -- so an op is valid at its
 * point in a sequence if and only if this applies it.
 */
void
applyOp(transform::PolyStmt &stmt, const ScheduleOp &op)
{
    using K = ScheduleOp::Kind;
    switch (op.kind) {
      case K::Interchange:
        transform::interchange(stmt, op.vars[0], op.vars[1]);
        break;
      case K::Split:
        transform::split(stmt, op.vars[0], op.factors[0], op.newVars[0],
                         op.newVars[1]);
        break;
      case K::Tile:
        transform::tile(stmt, op.vars[0], op.vars[1], op.factors[0],
                        op.factors[1], op.newVars[0], op.newVars[1],
                        op.newVars[2], op.newVars[3]);
        break;
      case K::Skew:
        transform::skew(stmt, op.vars[0], op.vars[1], op.factors[0],
                        op.newVars[0], op.newVars[1]);
        break;
      case K::Pipeline:
        transform::setPipeline(stmt, op.vars[0],
                               static_cast<int>(op.factors[0]));
        break;
      case K::Unroll:
        transform::setUnroll(stmt, op.vars[0], op.factors[0]);
        break;
      case K::After:
      case K::Fuse:
      case K::Partition:
        break;
    }
}

/** Per-compute generation state. */
struct CState
{
    dsl::Compute *compute = nullptr;

    /**
     * Loop levels [0, prot) are shared with another statement through a
     * level-carrying after(); restructuring them on one side would
     * change the cross-statement interleaving, so structural ops only
     * touch levels >= prot.
     */
    size_t prot = 0;

    /** Fused statements share every level: no structural ops at all. */
    bool frozen = false;

    /**
     * The compute's statement with the schedule's structural ops so far
     * applied: its loops are the ones the next op may name, and the
     * dependence-legality gate checks it.
     */
    transform::PolyStmt mirror;

    size_t
    firstFree() const
    {
        return frozen ? mirror.numDims() : prot;
    }
    size_t
    freeCount() const
    {
        return mirror.numDims() - firstFree();
    }
};

/**
 * Protect the loop levels that pre-recorded ordering directives share
 * between statements (see CState::prot / frozen).
 */
void
protectSharedLevels(const dsl::Function &func, std::vector<CState> &states)
{
    auto stateOf = [&](const dsl::Compute *c) -> CState & {
        for (auto &s : states)
            if (s.compute == c)
                return s;
        support::fatal("fuzzer: unknown compute '" + c->name() + "'");
    };
    for (const dsl::Compute *c : func.computes()) {
        for (const dsl::Directive &d : c->directives()) {
            if (d.kind == dsl::Directive::Kind::Fuse) {
                stateOf(c).frozen = true;
                stateOf(d.other).frozen = true;
            } else if (d.kind == dsl::Directive::Kind::After &&
                       !d.vars.empty()) {
                const auto &iters = d.other->iters();
                size_t depth = iters.size();
                for (size_t i = 0; i < iters.size(); ++i) {
                    if (iters[i].name() == d.vars[0]) {
                        depth = i + 1;
                        break;
                    }
                }
                CState &sc = stateOf(c);
                CState &so = stateOf(d.other);
                sc.prot = std::max(sc.prot, depth);
                so.prot = std::max(so.prot, depth);
            }
        }
    }
}

bool
sameIterRanges(const dsl::Compute &a, const dsl::Compute &b)
{
    if (a.iters().size() != b.iters().size())
        return false;
    for (size_t i = 0; i < a.iters().size(); ++i) {
        if (a.iters()[i].lo() != b.iters()[i].lo() ||
            a.iters()[i].hi() != b.iters()[i].hi())
            return false;
    }
    return true;
}

/**
 * Generate one random schedule for a fresh workload instance. Structural
 * ops are validated against the per-statement dependence check unless
 * @p options.checkLegality is off.
 */
std::vector<ScheduleOp>
generateOps(workloads::Workload &w, support::SplitMix64 &rng,
            const FuzzOptions &options)
{
    const dsl::Function &func = w.func();
    auto stmts = lower::extractStmts(func);

    std::vector<CState> states;
    for (auto &stmt : stmts) {
        CState st;
        st.compute = func.findCompute(stmt.sched.name);
        st.mirror = std::move(stmt);
        states.push_back(std::move(st));
    }
    protectSharedLevels(func, states);

    std::vector<ScheduleOp> ops;
    int fresh = 0;
    auto freshName = [&](const std::string &base) {
        return base + "_z" + std::to_string(fresh++);
    };
    size_t n_ops = 1 + rng.range(kMaxOps);

    // At most one ordering primitive per schedule, generated first so
    // the loop-sharing protection below covers the structural ops.
    if (states.size() >= 2 && rng.range(6) == 0) {
        size_t ci = rng.range(states.size());
        size_t oi = rng.range(states.size());
        if (ci != oi) {
            ScheduleOp op;
            op.target = states[ci].compute->name();
            op.other = states[oi].compute->name();
            if (rng.range(3) == 0 &&
                sameIterRanges(*states[ci].compute, *states[oi].compute)) {
                op.kind = ScheduleOp::Kind::Fuse;
                states[ci].frozen = states[oi].frozen = true;
            } else {
                op.kind = ScheduleOp::Kind::After;
            }
            ops.push_back(std::move(op));
        }
    }

    size_t attempts = 0;
    while (ops.size() < n_ops && attempts < n_ops * 10) {
        ++attempts;
        using K = ScheduleOp::Kind;
        std::uint64_t r = rng.range(100);
        K kind = r < 16   ? K::Interchange
                 : r < 36 ? K::Split
                 : r < 52 ? K::Tile
                 : r < 62 ? K::Skew
                 : r < 76 ? K::Pipeline
                 : r < 88 ? K::Unroll
                          : K::Partition;

        if (kind == K::Partition) {
            const auto &arrays = func.placeholders();
            if (arrays.empty())
                continue;
            const dsl::Placeholder *ph = arrays[rng.range(arrays.size())];
            ScheduleOp op;
            op.kind = kind;
            op.target = ph->name();
            for (std::int64_t extent : ph->shape()) {
                std::int64_t f = rng.pick<std::int64_t>({1, 2, 4});
                op.factors.push_back(std::min(f, extent));
            }
            op.partitionKind =
                rng.pick<const char *>({"cyclic", "block", "complete"});
            ops.push_back(std::move(op));
            continue;
        }

        CState &st = states[rng.range(states.size())];
        const std::vector<std::string> &dims =
            st.mirror.sched.domain.dimNames();
        size_t base = st.firstFree();
        size_t nfree = st.freeCount();
        ScheduleOp op;
        op.kind = kind;
        op.target = st.compute->name();

        switch (kind) {
          case K::Interchange: {
            if (nfree < 2)
                continue;
            size_t a = base + rng.range(nfree);
            size_t b = base + rng.range(nfree);
            if (a == b)
                continue;
            op.vars = {dims[std::min(a, b)], dims[std::max(a, b)]};
            break;
          }
          case K::Split: {
            if (nfree < 1)
                continue;
            const std::string &v = dims[base + rng.range(nfree)];
            op.vars = {v};
            op.factors = {rng.pick<std::int64_t>({2, 3, 4})};
            op.newVars = {freshName(v), freshName(v)};
            break;
          }
          case K::Tile: {
            if (nfree < 2)
                continue;
            size_t d = base + rng.range(nfree - 1);
            const std::string &vi = dims[d];
            const std::string &vj = dims[d + 1];
            op.vars = {vi, vj};
            op.factors = {rng.pick<std::int64_t>({2, 3, 4}),
                          rng.pick<std::int64_t>({2, 3, 4})};
            op.newVars = {freshName(vi), freshName(vj), freshName(vi),
                          freshName(vj)};
            break;
          }
          case K::Skew: {
            if (nfree < 2)
                continue;
            size_t a = base + rng.range(nfree);
            size_t b = base + rng.range(nfree);
            if (a == b)
                continue;
            const std::string &vi = dims[std::min(a, b)];
            const std::string &vj = dims[std::max(a, b)];
            op.vars = {vi, vj};
            op.factors = {rng.pick<std::int64_t>({1, 2, -1})};
            op.newVars = {freshName(vi), freshName(vj)};
            break;
          }
          // Hardware annotations live on loop levels, so a level shared
          // with another statement (after/fuse) is off limits too: the
          // AST builder rejects shared loops whose statements disagree
          // on the annotation.
          case K::Pipeline: {
            if (nfree < 1)
                continue;
            op.vars = {dims[base + rng.range(nfree)]};
            op.factors = {rng.pick<std::int64_t>({1, 2, 4})};
            ops.push_back(std::move(op));
            continue;
          }
          case K::Unroll: {
            if (nfree < 1)
                continue;
            op.vars = {dims[base + rng.range(nfree)]};
            op.factors = {rng.pick<std::int64_t>({0, 2, 4})};
            ops.push_back(std::move(op));
            continue;
          }
          default:
            continue;
        }

        // Structural candidate: keep it only when the transform library
        // applies it and every dependence survives the new loop order.
        transform::PolyStmt trial = st.mirror;
        try {
            applyOp(trial, op);
        } catch (const support::FatalError &) {
            continue;
        }
        if (options.checkLegality && !schedulePreservesDependences(trial))
            continue;
        st.mirror = std::move(trial);
        ops.push_back(std::move(op));
    }
    return ops;
}

} // namespace

std::string
ScheduleOp::str() const
{
    auto nums = [&] {
        return support::joinMapped(factors, ", ", [](std::int64_t f) {
            return std::to_string(f);
        });
    };
    std::ostringstream os;
    os << target << ".";
    switch (kind) {
      case Kind::Interchange:
        os << "interchange(" << vars[0] << ", " << vars[1] << ")";
        break;
      case Kind::Split:
        os << "split(" << vars[0] << ", " << nums() << ", " << newVars[0]
           << ", " << newVars[1] << ")";
        break;
      case Kind::Tile:
        os << "tile(" << vars[0] << ", " << vars[1] << ", " << nums()
           << ", " << support::join(newVars, ", ") << ")";
        break;
      case Kind::Skew:
        os << "skew(" << vars[0] << ", " << vars[1] << ", " << nums()
           << ", " << newVars[0] << ", " << newVars[1] << ")";
        break;
      case Kind::After:
        os << "after(" << other << ")";
        break;
      case Kind::Fuse:
        os << "fuse(" << other << ")";
        break;
      case Kind::Pipeline:
        os << "pipeline(" << vars[0] << ", " << nums() << ")";
        break;
      case Kind::Unroll:
        os << "unroll(" << vars[0] << ", " << nums() << ")";
        break;
      case Kind::Partition:
        os << "partition({" << nums() << "}, \"" << partitionKind
           << "\")";
        break;
    }
    return os.str();
}

std::string
FuzzResult::summary() const
{
    std::ostringstream os;
    os << "fuzz " << workload << " size " << size << ": " << casesRun
       << " schedules, " << opsGenerated << " primitives, "
       << failures.size() << " failure(s)";
    for (const auto &f : failures) {
        os << "\n-- case " << f.caseIndex << ": " << f.message << "\n"
           << "minimal reproducer (" << f.ops.size() << " primitive"
           << (f.ops.size() == 1 ? "" : "s") << "):\n";
        for (const auto &op : f.ops)
            os << "  " << op.str() << "\n";
        if (!f.dsl.empty())
            os << "canonical DSL:\n" << f.dsl;
    }
    return os.str();
}

std::int64_t
defaultFuzzSize(const std::string &workload)
{
    // The DNN stacks have a fixed spatial pyramid; size only scales the
    // channel counts, so keep it minimal for interpreter speed.
    if (workload == "vgg16" || workload == "resnet18")
        return 2;
    return 8;
}

bool
applyScheduleOps(workloads::Workload &w,
                 const std::vector<ScheduleOp> &ops)
{
    dsl::Function &func = w.func();

    // Every compute's statement with the sequence's loop ops so far
    // applied: an op is checked there before the DSL records it, since
    // DSL recording is unconditional and a bad op would otherwise die
    // inside the lowering.
    std::vector<transform::PolyStmt> stmts = lower::extractStmts(func);

    using K = ScheduleOp::Kind;
    for (const ScheduleOp &op : ops) {
        try {
            if (op.kind == K::Partition) {
                dsl::Placeholder *ph = func.findPlaceholderMut(op.target);
                if (!ph || op.factors.size() != ph->shape().size())
                    return false;
                for (size_t d = 0; d < op.factors.size(); ++d) {
                    if (op.factors[d] < 1 ||
                        op.factors[d] > ph->shape()[d])
                        return false;
                }
                ph->partition(op.factors, op.partitionKind);
                continue;
            }

            dsl::Compute *c = func.findCompute(op.target);
            if (!c)
                return false;

            if (op.kind == K::After || op.kind == K::Fuse) {
                dsl::Compute *o = func.findCompute(op.other);
                if (!o || o == c)
                    return false;
                if (op.kind == K::After)
                    c->after(*o);
                else
                    c->fuse(*o);
                continue;
            }

            auto stmt = std::find_if(
                stmts.begin(), stmts.end(),
                [&](const transform::PolyStmt &s) {
                    return s.sched.name == op.target;
                });
            applyOp(*stmt, op);
            switch (op.kind) {
              case K::Interchange:
                c->interchange(dsl::Var(op.vars[0]), dsl::Var(op.vars[1]));
                break;
              case K::Split:
                c->split(dsl::Var(op.vars[0]), op.factors[0],
                         dsl::Var(op.newVars[0]), dsl::Var(op.newVars[1]));
                break;
              case K::Tile:
                c->tile(dsl::Var(op.vars[0]), dsl::Var(op.vars[1]),
                        op.factors[0], op.factors[1],
                        dsl::Var(op.newVars[0]), dsl::Var(op.newVars[1]),
                        dsl::Var(op.newVars[2]), dsl::Var(op.newVars[3]));
                break;
              case K::Skew:
                c->skew(dsl::Var(op.vars[0]), dsl::Var(op.vars[1]),
                        op.factors[0], dsl::Var(op.newVars[0]),
                        dsl::Var(op.newVars[1]));
                break;
              case K::Pipeline:
                c->pipeline(dsl::Var(op.vars[0]),
                            static_cast<int>(op.factors[0]));
                break;
              case K::Unroll:
                c->unroll(dsl::Var(op.vars[0]), op.factors[0]);
                break;
              default:
                return false;
            }
        } catch (const support::FatalError &) {
            return false;
        }
    }
    return true;
}

std::vector<ScheduleOp>
generateSchedule(workloads::Workload &w, unsigned seed,
                 const FuzzOptions &options)
{
    support::SplitMix64 rng((static_cast<std::uint64_t>(seed) << 32) ^
                            1ULL);
    return generateOps(w, rng, options);
}

FuzzResult
fuzzWorkload(const std::string &workload, const FuzzOptions &options)
{
    obs::Span span("check.fuzz", "check");
    span.arg("workload", workload);
    span.arg("cases", static_cast<std::int64_t>(options.cases));
    FuzzResult result;
    result.workload = workload;
    result.size =
        options.size > 0 ? options.size : defaultFuzzSize(workload);

    // A replayed sequence either passes the oracle or yields a failure
    // message; invalid subsequences (shrinking artifacts) count as
    // passing so the shrinker keeps the op that made them valid.
    auto runCase =
        [&](const std::vector<ScheduleOp> &ops) -> std::optional<std::string> {
        auto w = workloads::makeByName(workload, result.size);
        if (!applyScheduleOps(*w, ops))
            return std::nullopt;
        try {
            OracleResult res = checkFunction(w->func());
            if (!res.equivalent)
                return res.message;
        } catch (const support::FatalError &e) {
            return std::string("lowering crashed: ") + e.what();
        }
        return std::nullopt;
    };

    for (int idx = 0; idx < options.cases; ++idx) {
        obs::Span case_span("check.fuzz.case", "check");
        case_span.arg("case", static_cast<std::int64_t>(idx));
        support::SplitMix64 rng(
            (static_cast<std::uint64_t>(options.seed) << 32) ^
            (static_cast<std::uint64_t>(idx) * 0x2545f4914f6cdd1dULL + 1));
        auto gen = workloads::makeByName(workload, result.size);
        std::vector<ScheduleOp> ops = generateOps(*gen, rng, options);
        ++result.casesRun;
        result.opsGenerated += static_cast<int>(ops.size());

        std::optional<std::string> msg = runCase(ops);
        if (!msg && !ops.empty() &&
            !applyScheduleOps(*workloads::makeByName(workload, result.size),
                              ops))
            msg = "internal: generated sequence failed to replay";
        if (!msg)
            continue;

        // Shrink to a minimal reproducer by greedy one-op removal.
        {
            obs::Span shrink_span("check.fuzz.shrink", "check");
            shrink_span.arg("from_ops",
                            static_cast<std::int64_t>(ops.size()));
            bool improved = true;
            while (improved && ops.size() > 1) {
                improved = false;
                for (size_t i = 0; i < ops.size(); ++i) {
                    std::vector<ScheduleOp> trial = ops;
                    trial.erase(trial.begin() +
                                static_cast<std::ptrdiff_t>(i));
                    if (auto m = runCase(trial)) {
                        ops = std::move(trial);
                        msg = std::move(m);
                        improved = true;
                        break;
                    }
                }
            }
        }

        FuzzFailure failure;
        failure.caseIndex = idx;
        failure.workload = workload;
        failure.size = result.size;
        failure.ops = ops;
        failure.message = *msg;
        auto wr = workloads::makeByName(workload, result.size);
        if (applyScheduleOps(*wr, ops))
            failure.dsl = dsl::renderDsl(wr->func());
        result.failures.push_back(std::move(failure));
    }
    return result;
}

} // namespace pom::check
