#include "hls/estimator.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "hls/count.h"
#include "obs/obs.h"
#include "support/diagnostics.h"
#include "support/math_util.h"

namespace pom::hls {

using ast::AstNode;
using support::ceilDiv;

int
SynthesisReport::worstII() const
{
    int worst = 1;
    for (const auto &l : loops)
        worst = std::max(worst, l.achievedII);
    return worst;
}

double
SynthesisReport::speedupOver(const SynthesisReport &base) const
{
    POM_ASSERT(latencyCycles > 0, "speedup of zero-latency design");
    return static_cast<double>(base.latencyCycles) /
           static_cast<double>(latencyCycles);
}

std::string
SynthesisReport::str(const Device &device) const
{
    std::ostringstream os;
    os << "latency=" << latencyCycles << " cycles, DSP=" << resources.dsp
       << " (" << (100 * resources.dsp / std::max(1, device.dsp))
       << "%), FF=" << resources.ff << " ("
       << (100 * resources.ff / std::max(1, device.ff))
       << "%), LUT=" << resources.lut << " ("
       << (100 * resources.lut / std::max(1, device.lut))
       << "%), power=" << powerW << " W, II=" << worstII();
    return os.str();
}

namespace {

/** Operator mix and critical path of one statement body. */
struct BodyCosts
{
    int fadd = 0, fmul = 0, fdiv = 0, fcmp = 0;
    int iadd = 0, imul = 0;
    int loads = 0, stores = 0;
    int depth = 0; ///< critical path through the body, in cycles
    std::map<std::string, int> accessesPerArray;
};

/** Per-statement precomputed analysis. */
struct StmtInfo
{
    const transform::PolyStmt *stmt = nullptr;
    BodyCosts body;
    std::vector<std::int64_t> trips;           ///< avg trip per level
    std::vector<poly::CarriedDependence> deps; ///< transformed space
    std::vector<poly::Access> taccesses;       ///< transformed space
};

int
exprDepth(const dsl::ExprNode &node, BodyCosts &acc)
{
    using K = dsl::ExprNode::Kind;
    switch (node.kind) {
      case K::Const:
        return 0;
      case K::Iter:
        return 0;
      case K::Load:
        ++acc.loads;
        ++acc.accessesPerArray[node.array->name()];
        return kOpCosts.loadLat;
      case K::Binary: {
        int lhs = exprDepth(*node.lhs, acc);
        int rhs = exprDepth(*node.rhs, acc);
        int lat = 0;
        switch (node.binOp) {
          case dsl::BinOp::Add:
          case dsl::BinOp::Sub:
            ++acc.fadd;
            lat = kOpCosts.faddLat;
            break;
          case dsl::BinOp::Mul:
            ++acc.fmul;
            lat = kOpCosts.fmulLat;
            break;
          case dsl::BinOp::Div:
            ++acc.fdiv;
            lat = kOpCosts.fdivLat;
            break;
          case dsl::BinOp::Max:
          case dsl::BinOp::Min:
            ++acc.fcmp;
            lat = kOpCosts.fcmpLat;
            break;
        }
        return std::max(lhs, rhs) + lat;
      }
      case K::Unary: {
        int lhs = exprDepth(*node.lhs, acc);
        return lhs + kOpCosts.faddLat;
      }
    }
    return 0;
}

/** Operator mix of one compute statement (destination store included). */
BodyCosts
statementOpMix(const dsl::Compute &compute)
{
    BodyCosts acc;
    int rhs_depth = exprDepth(*compute.rhs().node(), acc);
    // Destination store.
    ++acc.stores;
    ++acc.accessesPerArray[compute.dest().node()->array->name()];
    acc.depth = rhs_depth + kOpCosts.storeLat;
    return acc;
}

/**
 * copies/seqTrip decomposition of a loop's unroll setting (factor 0 =
 * full unroll).
 */
void
unrollShape(std::int64_t trip, std::int64_t factor, std::int64_t &copies,
            std::int64_t &seqTrip)
{
    if (factor == 0 || factor >= trip) {
        copies = trip;
        seqTrip = 1;
    } else {
        copies = std::max<std::int64_t>(1, factor);
        seqTrip = ceilDiv(trip, copies);
    }
}

/** Partition configuration of one array. */
struct ArrayInfo
{
    std::int64_t banks = 1;
    bool complete = false;
    std::int64_t bits = 0;
};

/** Intermediate result of evaluating an AST subtree. */
struct Eval
{
    std::uint64_t latency = 0;
    Resources res;
};

class Estimator
{
  public:
    Estimator(const dsl::Function &func,
              const lower::LoweredFunction &lowered,
              const EstimatorOptions &options)
        : func_(func), lowered_(lowered), opt_(options)
    {
        for (const auto &s : lowered.stmts) {
            const dsl::Compute *compute = func.findCompute(s.sched.name);
            POM_ASSERT(compute != nullptr, "statement ", s.sched.name,
                       " has no compute in function ", func.name());
            StmtInfo info;
            info.stmt = &s;
            info.body = statementOpMix(*compute);
            info.trips = avgTrips(s.sched.domain);
            info.deps = transform::carriedDependences(s);
            info.taccesses = s.transformedAccesses();
            stmts_[s.sched.name] = std::move(info);
        }
        for (const dsl::Placeholder *p : func.placeholders()) {
            ArrayInfo ai;
            ai.bits = static_cast<std::int64_t>(1) *
                      ir::bitWidth(p->elementType());
            for (auto d : p->shape())
                ai.bits *= d;
            ArrayBanking ab =
                effectiveBanking(*p, options.partitionOverride);
            ai.banks = ab.banks;
            ai.complete = ab.complete;
            arrays_[p->name()] = ai;
        }
    }

    std::vector<NodeReport>
    runNodes()
    {
        const AstNode &root = *lowered_.astRoot;

        std::vector<const AstNode *> top;
        if (root.kind() == AstNode::Kind::Block) {
            for (const auto &c : root.children)
                top.push_back(c.get());
        } else {
            top.push_back(&root);
        }

        std::vector<NodeReport> nodes;
        nodes.reserve(top.size());
        for (const AstNode *node : top) {
            size_t first_loop = loop_reports_.size();
            Eval e = evalNode(*node, 0);
            const StmtInfo *leader = leaderOf(*node);
            NodeReport nr;
            nr.nest = leader ? leader->stmt->sched.name : "?";
            nr.latencyCycles = e.latency;
            nr.resources = e.res;
            nr.loops.assign(loop_reports_.begin() +
                                static_cast<std::ptrdiff_t>(first_loop),
                            loop_reports_.end());
            nodes.push_back(std::move(nr));
        }
        return nodes;
    }

  private:
    /** Find the first user statement under a node. */
    const StmtInfo *
    leaderOf(const AstNode &node) const
    {
        if (node.kind() == AstNode::Kind::User) {
            auto it = stmts_.find(node.stmtName);
            POM_ASSERT(it != stmts_.end(), "unknown statement ",
                       node.stmtName);
            return &it->second;
        }
        for (const auto &c : node.children) {
            if (const StmtInfo *s = leaderOf(*c))
                return s;
        }
        return nullptr;
    }

    Eval
    evalNode(const AstNode &node, size_t depth)
    {
        switch (node.kind()) {
          case AstNode::Kind::Block: {
            Eval e;
            for (const auto &c : node.children) {
                Eval ce = evalNode(*c, depth);
                e.latency += ce.latency;
                e.res += ce.res;
            }
            return e;
          }
          case AstNode::Kind::If: {
            Eval e;
            for (const auto &c : node.children) {
                Eval ce = evalNode(*c, depth);
                e.latency += ce.latency;
                e.res += ce.res;
            }
            return e;
          }
          case AstNode::Kind::User:
            return evalSequentialUser(node);
          case AstNode::Kind::For:
            if (node.hw.pipelineII)
                return evalPipeline(node, depth);
            return evalSequentialFor(node, depth);
        }
        return {};
    }

    Eval
    evalSequentialUser(const AstNode &node)
    {
        const StmtInfo &info = stmts_.at(node.stmtName);
        Eval e;
        e.latency = static_cast<std::uint64_t>(info.body.depth) + 2;
        e.res = opResources(info.body, 1, 1);
        return e;
    }

    Eval
    evalSequentialFor(const AstNode &node, size_t depth)
    {
        const StmtInfo *leader = leaderOf(node);
        POM_ASSERT(leader != nullptr, "loop without statements");
        std::int64_t trip = leader->trips.at(depth);
        std::int64_t copies, seq_trip;
        unrollShape(trip, node.hw.unrollFactor, copies, seq_trip);

        Eval child;
        for (const auto &c : node.children) {
            Eval ce = evalNode(*c, depth + 1);
            child.latency += ce.latency;
            child.res += ce.res;
        }
        Eval e;
        e.latency = static_cast<std::uint64_t>(seq_trip) *
                        (child.latency + 1) + 2;
        e.res = child.res.scaledBy(copies);
        e.res.lut += kOpCosts.loopCtrlLut;
        e.res.ff += kOpCosts.loopCtrlFf;
        return e;
    }

    /** Info about one loop inside a pipeline region. */
    struct PipeLoop
    {
        size_t depth;
        std::int64_t trip, copies, seq_trip;
    };

    void
    collectPipeline(const AstNode &node, size_t depth,
                    std::int64_t copies_on_path,
                    std::vector<PipeLoop> &loops,
                    std::vector<std::pair<const StmtInfo *, std::int64_t>>
                        &users,
                    std::map<size_t, PipeLoop> &loop_at_level)
    {
        if (node.kind() == AstNode::Kind::User) {
            users.emplace_back(&stmts_.at(node.stmtName), copies_on_path);
            return;
        }
        if (node.kind() == AstNode::Kind::For) {
            const StmtInfo *leader = leaderOf(node);
            POM_ASSERT(leader != nullptr, "loop without statements");
            std::int64_t trip = leader->trips.at(depth);
            PipeLoop pl;
            pl.depth = depth;
            pl.trip = trip;
            unrollShape(trip, node.hw.unrollFactor, pl.copies, pl.seq_trip);
            loops.push_back(pl);
            loop_at_level[depth] = pl;
            for (const auto &c : node.children) {
                collectPipeline(*c, depth + 1, copies_on_path * pl.copies,
                                loops, users, loop_at_level);
            }
            return;
        }
        for (const auto &c : node.children)
            collectPipeline(*c, depth, copies_on_path, loops, users,
                            loop_at_level);
    }

    Eval
    evalPipeline(const AstNode &node, size_t depth)
    {
        std::vector<PipeLoop> loops;
        std::vector<std::pair<const StmtInfo *, std::int64_t>> users;
        std::map<size_t, PipeLoop> loop_at_level;
        collectPipeline(node, depth, 1, loops, users, loop_at_level);
        POM_ASSERT(!users.empty(), "pipeline without statements");

        // The pipelined loop itself must not carry an unroll annotation
        // other than via its seq_trip handling (already in loops[0]).
        std::int64_t flat_trip = 1;
        for (const auto &pl : loops)
            flat_trip *= pl.seq_trip;

        // Effective body depth: operator chains from fully unrolled
        // reduction levels extend the recurrence.
        int d_eff = 0;
        int rec_mii = 1;
        for (const auto &[info, p_copies] : users) {
            int chain = 0;
            int stmt_depth = info->body.depth;
            for (const auto &dep : info->deps) {
                size_t level = dep.level;
                if (level < depth)
                    continue; // carried outside the pipeline
                auto it = loop_at_level.find(level);
                if (it == loop_at_level.end())
                    continue;
                const PipeLoop &pl = it->second;
                if (pl.seq_trip == 1) {
                    // Fully unrolled reduction: operator chain across the
                    // spatial copies.
                    chain = std::max<int>(
                        chain, static_cast<int>(pl.copies - 1) *
                                   kOpCosts.faddLat);
                    continue;
                }
                // Sequential distance in flattened pipeline iterations.
                std::int64_t dist =
                    std::max<std::int64_t>(
                        1, dep.carriedDistance / std::max<std::int64_t>(
                                                     1, pl.copies));
                for (const auto &[lvl, inner] : loop_at_level) {
                    if (lvl > level)
                        dist *= inner.seq_trip;
                }
                // Accumulator recurrences (identical source and sink
                // subscripts, e.g. C[i][j] += ...) keep the running sum
                // in a register: only the adder (+ any unrolled chain)
                // sits on the cycle, not the whole body.
                bool accumulator =
                    info->taccesses.at(dep.srcAccess).map ==
                    info->taccesses.at(dep.dstAccess).map;
                int dep_lat = accumulator
                                  ? kOpCosts.faddLat +
                                        kOpCosts.storeLat + chain
                                  : stmt_depth + chain;
                rec_mii = std::max<int>(
                    rec_mii,
                    static_cast<int>(ceilDiv(dep_lat, dist)));
            }
            d_eff = std::max(d_eff, stmt_depth + chain);
        }

        // Resource MII from memory ports. Unrolled copies that touch the
        // same element (broadcasts, e.g. B[k][j] replicated across an i
        // unroll) do not consume extra ports: each access contributes
        // one port request per *distinct address*, i.e. the product of
        // the unrolled loop copies its subscripts actually reference.
        int res_mii = 1;
        std::map<std::string, std::int64_t> accesses;
        for (const auto &[info, p_copies] : users) {
            (void)p_copies;
            for (const auto &acc : info->taccesses) {
                std::int64_t distinct = 1;
                for (const auto &[lvl, pl] : loop_at_level) {
                    if (pl.copies <= 1 || lvl >= acc.map.numDomainDims())
                        continue;
                    bool referenced = false;
                    for (size_t r = 0; r < acc.map.numResults(); ++r) {
                        if (acc.map.result(r).coeff(lvl) != 0) {
                            referenced = true;
                            break;
                        }
                    }
                    if (referenced)
                        distinct *= pl.copies;
                }
                accesses[acc.array] += distinct;
            }
        }
        for (const auto &[array, count] : accesses) {
            auto it = arrays_.find(array);
            POM_ASSERT(it != arrays_.end(), "unknown array ", array);
            if (it->second.complete)
                continue; // registers: no port limit
            std::int64_t ports = 2 * it->second.banks;
            res_mii = std::max<int>(
                res_mii, static_cast<int>(ceilDiv(count, ports)));
        }

        int target = *node.hw.pipelineII;
        int ii = std::max({target, rec_mii, res_mii});

        Eval e;
        e.latency = static_cast<std::uint64_t>(ii) *
                        static_cast<std::uint64_t>(flat_trip - 1) +
                    d_eff + 2;

        // Operator instances with reuse across the II window.
        BodyCosts total;
        for (const auto &[info, p_copies] : users) {
            total.fadd += info->body.fadd * p_copies;
            total.fmul += info->body.fmul * p_copies;
            total.fdiv += info->body.fdiv * p_copies;
            total.fcmp += info->body.fcmp * p_copies;
            total.iadd += info->body.iadd * p_copies;
            total.imul += info->body.imul * p_copies;
            total.loads += info->body.loads * p_copies;
            total.stores += info->body.stores * p_copies;
        }
        e.res = opResources(total, 1, ii);
        for (const auto &[array, count] : accesses) {
            e.res.lut += kOpCosts.bankMuxLut *
                         static_cast<int>(arrays_.at(array).banks);
        }
        e.res.lut += kOpCosts.loopCtrlLut * static_cast<int>(loops.size());
        e.res.ff += kOpCosts.loopCtrlFf * static_cast<int>(loops.size());

        LoopReport lr;
        lr.iterName = node.iterName;
        lr.trip = flat_trip;
        lr.targetII = target;
        lr.achievedII = ii;
        lr.recMII = rec_mii;
        lr.resMII = res_mii;
        lr.latency = e.latency;
        loop_reports_.push_back(lr);
        return e;
    }

    /** Resources for op counts with @p copies replication / II reuse. */
    Resources
    opResources(const BodyCosts &body, std::int64_t copies,
                int ii) const
    {
        auto units = [&](int count) {
            return static_cast<int>(
                ceilDiv(static_cast<std::int64_t>(count) * copies,
                        std::max(1, ii)));
        };
        const OpCosts &c = kOpCosts;
        Resources r;
        int fadd = units(body.fadd), fmul = units(body.fmul);
        int fdiv = units(body.fdiv), fcmp = units(body.fcmp);
        int iadd = units(body.iadd), imul = units(body.imul);
        r.dsp = fadd * c.faddDsp + fmul * c.fmulDsp + fdiv * c.fdivDsp +
                imul * c.imulDsp;
        r.lut = fadd * c.faddLut + fmul * c.fmulLut + fdiv * c.fdivLut +
                fcmp * c.fcmpLut + iadd * c.iaddLut + imul * c.imulLut;
        r.ff = fadd * c.faddFf + fmul * c.fmulFf + fdiv * c.fdivFf +
               fcmp * c.fcmpFf + iadd * c.iaddFf + imul * c.imulFf;
        r.ff += (fadd + fmul + fdiv + fcmp) * c.pipelineRegFfPerCopy;
        return r;
    }

    const dsl::Function &func_;
    const lower::LoweredFunction &lowered_;
    EstimatorOptions opt_;
    std::map<std::string, StmtInfo> stmts_;
    std::map<std::string, ArrayInfo> arrays_;
    std::vector<LoopReport> loop_reports_;
};

} // namespace

ArrayBanking
planBanking(const PartitionPlan &plan, const std::string &array)
{
    ArrayBanking ab;
    auto it = plan.find(array);
    if (it != plan.end()) {
        for (auto f : it->second)
            ab.banks *= f;
    }
    return ab;
}

ArrayBanking
effectiveBanking(const dsl::Placeholder &placeholder,
                 const PartitionPlan *partitionOverride)
{
    if (partitionOverride != nullptr)
        return planBanking(*partitionOverride, placeholder.name());
    ArrayBanking ab;
    if (!placeholder.partitionFactors().empty()) {
        ab.complete = placeholder.partitionKind() == "complete";
        ab.banks = 1;
        for (auto f : placeholder.partitionFactors())
            ab.banks *= f;
    }
    return ab;
}

std::vector<NodeReport>
estimateNodes(const dsl::Function &func,
              const lower::LoweredFunction &lowered,
              const EstimatorOptions &options)
{
    Estimator estimator(func, lowered, options);
    return estimator.runNodes();
}

SynthesisReport
combineNodeReports(const dsl::Function &func,
                   const std::vector<NodeReport> &nodes,
                   const EstimatorOptions &options)
{
    SynthesisReport report;
    Resources total;
    std::uint64_t lat_sum = 0, lat_max = 0;
    Resources res_max;
    for (const NodeReport &n : nodes) {
        lat_sum += n.latencyCycles;
        lat_max = std::max(lat_max, n.latencyCycles);
        total += n.resources;
        res_max = Resources::max(res_max, n.resources);
        report.nestLatencies.emplace_back(n.nest, n.latencyCycles);
        for (const LoopReport &l : n.loops)
            report.loops.push_back(l);
    }
    if (options.sharing == SharingMode::Reuse) {
        report.latencyCycles = lat_sum;
        report.resources = res_max;
    } else {
        // Dataflow: stages overlap, but unmatched computation paces
        // between successive loops stall the FIFO handshakes (the
        // §VII.E observation), so only part of the non-bottleneck
        // work hides behind the bottleneck stage.
        report.latencyCycles = lat_max + (lat_sum - lat_max) / 4;
        report.resources = total;
    }

    // On-chip memory: arrays small enough to live in a few BRAM
    // blocks; complete partitioning moves them into registers.
    // Larger tensors are interface (AXI) buffers streamed from
    // external memory, as in real designs for the paper's problem
    // sizes (a 4096x4096 f32 matrix cannot live in 4.9 Mb of BRAM).
    // Name order matches the estimator's sorted array map.
    const std::int64_t on_chip_threshold = 1 << 17;
    std::map<std::string, const dsl::Placeholder *> arrays;
    for (const dsl::Placeholder *p : func.placeholders())
        arrays[p->name()] = p;
    for (const auto &[name, p] : arrays) {
        std::int64_t bits = static_cast<std::int64_t>(1) *
                            ir::bitWidth(p->elementType());
        for (auto d : p->shape())
            bits *= d;
        if (bits > on_chip_threshold)
            continue; // external (AXI) interface
        if (effectiveBanking(*p, options.partitionOverride).complete)
            report.resources.ff += static_cast<int>(bits);
        else
            report.resources.bramBits += bits;
    }

    report.powerW = powerProxyW(report.resources);
    return report;
}

SynthesisReport
estimate(const dsl::Function &func, const lower::LoweredFunction &lowered,
         const EstimatorOptions &options)
{
    obs::Span span("hls.estimate", "hls");
    SynthesisReport report =
        combineNodeReports(func, estimateNodes(func, lowered, options),
                           options);
    span.arg("latency_cycles",
             static_cast<std::int64_t>(report.latencyCycles));
    span.arg("dsp", static_cast<std::int64_t>(report.resources.dsp));
    if (obs::metricsEnabled())
        obs::counterAdd("hls.estimates");
    return report;
}

void
publishReportGauges(const SynthesisReport &report)
{
    if (!obs::metricsEnabled())
        return;
    obs::gaugeSet("hls.latency_cycles",
                  static_cast<double>(report.latencyCycles));
    obs::gaugeSet("hls.dsp", report.resources.dsp);
    obs::gaugeSet("hls.lut", report.resources.lut);
    obs::gaugeSet("hls.ff", report.resources.ff);
    obs::gaugeSet("hls.bram_bits",
                  static_cast<double>(report.resources.bramBits));
    obs::gaugeSet("hls.power_w", report.powerW);
    obs::gaugeSet("hls.worst_ii", report.worstII());
    for (const auto &[nest, cycles] : report.nestLatencies) {
        obs::gaugeSet("hls.nest_latency." + nest,
                      static_cast<double>(cycles));
    }
    for (const auto &loop : report.loops)
        obs::gaugeSet("hls.loop_ii." + loop.iterName, loop.achievedII);
}

} // namespace pom::hls
