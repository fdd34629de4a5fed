#include "dse/strategy.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

namespace pom::dse {

const char *
strategyName(StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::Greedy: return "greedy";
      case StrategyKind::Beam: return "beam";
      case StrategyKind::Anneal: return "anneal";
    }
    return "greedy";
}

std::string
strategyNames()
{
    return "greedy, beam, anneal";
}

bool
parseStrategy(const std::string &name, StrategyKind &out)
{
    if (name == "greedy") {
        out = StrategyKind::Greedy;
        return true;
    }
    if (name == "beam") {
        out = StrategyKind::Beam;
        return true;
    }
    if (name == "anneal") {
        out = StrategyKind::Anneal;
        return true;
    }
    return false;
}

std::uint64_t
StrategyContext::unitLatency(const hls::SynthesisReport &report,
                             size_t unit) const
{
    std::uint64_t lat = 0;
    for (const std::string &name : unitMembers[unit]) {
        for (const auto &[nest, cycles] : report.nestLatencies) {
            if (nest == name)
                lat = std::max(lat, cycles);
        }
    }
    return lat;
}

namespace {

/** Beam width of the beam strategy. */
constexpr int kBeamWidth = 4;

/** Annealing schedule: rounds, proposals per round, and PRNG seed. */
constexpr int kAnnealRounds = 16;
constexpr int kAnnealBatch = 4;
constexpr std::uint64_t kAnnealSeed = 1;

/**
 * Upper bound on evaluated points for the population strategies
 * (beam/anneal); greedy ignores it. Keeps deep workloads (the DNN
 * stacks) affordable while the node cache absorbs re-visits.
 */
constexpr int kPointBudget = 192;

/** The paper's bottleneck walk, byte-identical to the pre-interface
 *  engine: visit open units in (latency desc, index asc) order, close
 *  at max parallelism, otherwise trial a doubled degree whose
 *  rejection also closes the unit; the first acceptance abandons the
 *  round and re-plans from the new incumbent. */
class GreedyStrategy final : public SearchStrategy
{
  public:
    explicit GreedyStrategy(StrategyContext ctx) : ctx_(std::move(ctx))
    {
        degrees_.assign(ctx_.numUnits(), 1);
        open_.assign(ctx_.numUnits(), true);
    }

    StrategyKind kind() const override { return StrategyKind::Greedy; }

    void
    begin(const PointEval &init) override
    {
        best_ = init;
    }

    std::vector<StrategyStep>
    plan() override
    {
        meta_.clear();
        for (size_t ui = 0; ui < ctx_.numUnits(); ++ui) {
            if (!open_[ui])
                continue;
            Meta m;
            m.unit = ui;
            m.latency = ctx_.unitLatency(best_.report, ui);
            meta_.push_back(m);
        }
        std::stable_sort(meta_.begin(), meta_.end(),
                         [](const Meta &a, const Meta &b) {
                             return a.latency > b.latency;
                         });
        std::vector<StrategyStep> steps;
        for (Meta &m : meta_) {
            m.next = degrees_[m.unit] * 2;
            m.close = m.next > ctx_.maxParallelism ||
                      m.next > ctx_.maxDegree[m.unit];
            StrategyStep s;
            if (!m.close) {
                s.needsEval = true;
                s.degrees = degrees_;
                s.degrees[m.unit] = m.next;
                s.parentDegrees = degrees_;
            }
            steps.push_back(std::move(s));
        }
        return steps;
    }

    bool
    consume(size_t index, const StrategyStep &step, const PointEval *eval,
            SearchRecorder &rec) override
    {
        (void)step;
        const Meta &m = meta_[index];
        {
            obs::JournalEntry e;
            e.kind = "bottleneck";
            e.phase = "stage2";
            e.detail = "selected " + ctx_.unitNames[m.unit] +
                       " as bottleneck";
            e.latencyCycles = m.latency;
            e.verdict = "info";
            e.reason = "largest nest latency among open units";
            rec.event(e);
        }
        if (m.close) {
            open_[m.unit] = false; // exit mechanism: max parallelism
            rec.note("bottleneck", "stage2",
                     "stage2: unit reached max parallelism, removed");
            return true;
        }
        if (!eval->report.resources.fitsIn(ctx_.device)) {
            rec.point("stage2", *eval, "rejected",
                      "exceeds resource budget");
            open_[m.unit] = false; // exit mechanism: resource bound
            rec.log("stage2: unit exceeds resource budget, removed");
            return true;
        }
        if (eval->report.latencyCycles >= best_.report.latencyCycles) {
            rec.point("stage2", *eval, "rejected",
                      "no latency improvement");
            open_[m.unit] = false;
            rec.log("stage2: no latency improvement, removed");
            return true;
        }
        degrees_[m.unit] = m.next;
        best_ = *eval;
        rec.point("stage2", best_, "accepted", "latency improved");
        rec.log("stage2: parallelism " + std::to_string(m.next) + " -> " +
                best_.report.str(ctx_.device));
        return false; // abandon the round; re-plan from the new best
    }

    std::vector<std::int64_t>
    result() const override
    {
        return degrees_;
    }

  private:
    struct Meta
    {
        size_t unit = 0;
        std::uint64_t latency = 0;
        std::int64_t next = 0;
        bool close = false;
    };

    StrategyContext ctx_;
    std::vector<std::int64_t> degrees_;
    std::vector<bool> open_;
    std::vector<Meta> meta_;
    PointEval best_;
};

/** Joined degree key for visited-set dedup ("1,4,2"). */
std::string
configKey(const std::vector<std::int64_t> &degrees)
{
    std::string key;
    for (std::int64_t d : degrees) {
        key += key.empty() ? "" : ",";
        key += std::to_string(d);
    }
    return key;
}

/** Breadth-first beam search: every round expands each beam member by
 *  doubling one unit's degree, evaluates the deduplicated successor
 *  set, and keeps the `kBeamWidth` feasible candidates with the lowest
 *  latency (ties broken by primitives, so the beam is independent of
 *  evaluation order). */
class BeamStrategy final : public SearchStrategy
{
  public:
    explicit BeamStrategy(StrategyContext ctx) : ctx_(std::move(ctx)) {}

    StrategyKind kind() const override { return StrategyKind::Beam; }

    void
    begin(const PointEval &init) override
    {
        std::vector<std::int64_t> ones(ctx_.numUnits(), 1);
        visited_.insert(configKey(ones));
        beam_.push_back(ones);
        best_ = ones;
        if (init.report.resources.fitsIn(ctx_.device)) {
            bestLatency_ = init.report.latencyCycles;
            bestFeasible_ = true;
        }
    }

    std::vector<StrategyStep>
    plan() override
    {
        std::vector<StrategyStep> steps;
        if (consumed_ >= kPointBudget)
            return steps;
        candidates_.clear();
        for (const auto &member : beam_) {
            for (size_t u = 0; u < ctx_.numUnits(); ++u) {
                std::int64_t next = member[u] * 2;
                if (next > ctx_.maxParallelism ||
                    next > ctx_.maxDegree[u]) {
                    continue;
                }
                std::vector<std::int64_t> cfg = member;
                cfg[u] = next;
                if (!visited_.insert(configKey(cfg)).second)
                    continue;
                StrategyStep s;
                s.needsEval = true;
                s.degrees = std::move(cfg);
                s.parentDegrees = member;
                steps.push_back(std::move(s));
                if (consumed_ + static_cast<int>(steps.size()) >=
                    kPointBudget) {
                    return steps;
                }
            }
        }
        return steps;
    }

    bool
    consume(size_t index, const StrategyStep &step, const PointEval *eval,
            SearchRecorder &rec) override
    {
        (void)index;
        ++consumed_;
        if (!eval->report.resources.fitsIn(ctx_.device)) {
            rec.point("stage2", *eval, "rejected",
                      "exceeds resource budget");
            return true;
        }
        rec.point("stage2", *eval, "accepted", "feasible beam candidate");
        candidates_.push_back(
            {eval->report.latencyCycles, eval->primitives, step.degrees});
        if (!bestFeasible_ || eval->report.latencyCycles < bestLatency_) {
            bestFeasible_ = true;
            bestLatency_ = eval->report.latencyCycles;
            best_ = step.degrees;
        }
        return true;
    }

    void
    endRound(SearchRecorder &rec) override
    {
        size_t feasible = candidates_.size();
        std::stable_sort(candidates_.begin(), candidates_.end(),
                         [](const Candidate &a, const Candidate &b) {
                             return std::tie(a.latency, a.primitives) <
                                    std::tie(b.latency, b.primitives);
                         });
        if (candidates_.size() > static_cast<size_t>(kBeamWidth))
            candidates_.resize(static_cast<size_t>(kBeamWidth));
        beam_.clear();
        for (auto &c : candidates_)
            beam_.push_back(std::move(c.degrees));
        rec.note("strategy", "stage2",
                 "beam: kept " + std::to_string(beam_.size()) + " of " +
                     std::to_string(feasible) +
                     " feasible candidates");
        candidates_.clear();
    }

    std::vector<std::int64_t>
    result() const override
    {
        return best_;
    }

  private:
    struct Candidate
    {
        std::uint64_t latency = 0;
        std::string primitives;
        std::vector<std::int64_t> degrees;
    };

    StrategyContext ctx_;
    std::vector<std::vector<std::int64_t>> beam_;
    std::set<std::string> visited_;
    std::vector<Candidate> candidates_;
    std::vector<std::int64_t> best_;
    std::uint64_t bestLatency_ = 0;
    bool bestFeasible_ = false;
    int consumed_ = 0;
};

/** splitmix64: tiny, portable, and identical on every platform --
 *  std::uniform_*_distribution is implementation-defined and would
 *  break cross-platform journal reproducibility. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform double in [0, 1). */
    double
    nextUnit()
    {
        return static_cast<double>(next() >> 11) *
               (1.0 / 9007199254740992.0);
    }

  private:
    std::uint64_t state_;
};

/** Batched simulated annealing: each round proposes `kAnnealBatch`
 *  neighbors of the current configuration (double or halve one unit's
 *  degree), then applies Metropolis acceptance to each in consume
 *  order. All randomness is drawn on the driver thread in plan/consume
 *  order, so the trajectory is independent of the worker count. */
class AnnealingStrategy final : public SearchStrategy
{
  public:
    explicit AnnealingStrategy(StrategyContext ctx)
        : ctx_(std::move(ctx)), rng_(kAnnealSeed)
    {}

    StrategyKind kind() const override { return StrategyKind::Anneal; }

    void
    begin(const PointEval &init) override
    {
        current_.assign(ctx_.numUnits(), 1);
        best_ = current_;
        if (init.report.resources.fitsIn(ctx_.device)) {
            currentLatency_ = init.report.latencyCycles;
            bestLatency_ = currentLatency_;
            feasible_ = true;
        }
        temperature_ =
            std::max<double>(1.0,
                             static_cast<double>(
                                 init.report.latencyCycles) *
                                 0.25);
    }

    std::vector<StrategyStep>
    plan() override
    {
        std::vector<StrategyStep> steps;
        if (round_ >= kAnnealRounds || consumed_ >= kPointBudget)
            return steps;
        for (int b = 0; b < kAnnealBatch; ++b) {
            size_t u = static_cast<size_t>(rng_.next() %
                                           ctx_.numUnits());
            bool up = (rng_.next() & 1) != 0;
            std::vector<std::int64_t> cfg = current_;
            std::int64_t doubled = cfg[u] * 2;
            bool can_double = doubled <= ctx_.maxParallelism &&
                              doubled <= ctx_.maxDegree[u];
            bool can_halve = cfg[u] > 1;
            if (up && can_double) {
                cfg[u] = doubled;
            } else if (!up && can_halve) {
                cfg[u] = cfg[u] / 2;
            } else if (can_double) {
                cfg[u] = doubled;
            } else if (can_halve) {
                cfg[u] = cfg[u] / 2;
            } else {
                continue; // degree pinned at 1; nothing to propose
            }
            StrategyStep s;
            s.needsEval = true;
            s.degrees = std::move(cfg);
            s.parentDegrees = current_;
            steps.push_back(std::move(s));
            if (consumed_ + static_cast<int>(steps.size()) >=
                kPointBudget) {
                break;
            }
        }
        // A fully pinned design space (every unit at max degree 1)
        // produces no proposals; terminate instead of spinning.
        if (steps.empty())
            round_ = kAnnealRounds;
        return steps;
    }

    bool
    consume(size_t index, const StrategyStep &step, const PointEval *eval,
            SearchRecorder &rec) override
    {
        (void)index;
        ++consumed_;
        if (!eval->report.resources.fitsIn(ctx_.device)) {
            rec.point("stage2", *eval, "rejected",
                      "exceeds resource budget");
            return true;
        }
        std::uint64_t lat = eval->report.latencyCycles;
        bool accept;
        if (!feasible_ || lat < currentLatency_) {
            accept = true;
        } else {
            double delta = static_cast<double>(lat - currentLatency_);
            accept = rng_.nextUnit() <
                     std::exp(-delta / temperature_);
        }
        if (accept) {
            current_ = step.degrees;
            currentLatency_ = lat;
            feasible_ = true;
            rec.point("stage2", *eval, "accepted", "metropolis accept");
            if (lat < bestLatency_) {
                bestLatency_ = lat;
                best_ = step.degrees;
            }
        } else {
            rec.point("stage2", *eval, "rejected", "metropolis reject");
        }
        return true;
    }

    void
    endRound(SearchRecorder &rec) override
    {
        ++round_;
        temperature_ = std::max(1.0, temperature_ * 0.8);
        rec.note("strategy", "stage2",
                 "anneal: round " + std::to_string(round_) + " of " +
                     std::to_string(kAnnealRounds) + " done");
    }

    std::vector<std::int64_t>
    result() const override
    {
        return best_;
    }

  private:
    StrategyContext ctx_;
    SplitMix64 rng_;
    std::vector<std::int64_t> current_;
    std::vector<std::int64_t> best_;
    std::uint64_t currentLatency_ = UINT64_MAX;
    std::uint64_t bestLatency_ = UINT64_MAX;
    bool feasible_ = false;
    double temperature_ = 1.0;
    int round_ = 0;
    int consumed_ = 0;
};

} // namespace

std::unique_ptr<SearchStrategy>
makeStrategy(StrategyKind kind, StrategyContext context)
{
    switch (kind) {
      case StrategyKind::Greedy:
        return std::make_unique<GreedyStrategy>(std::move(context));
      case StrategyKind::Beam:
        return std::make_unique<BeamStrategy>(std::move(context));
      case StrategyKind::Anneal:
        return std::make_unique<AnnealingStrategy>(std::move(context));
    }
    return std::make_unique<GreedyStrategy>(std::move(context));
}

} // namespace pom::dse
