/**
 * @file
 * Fixed-bucket log-scale latency histograms for the performance
 * observability layer. A Histogram is:
 *
 *  - **thread-safe**: record() takes an internal mutex, so concurrent
 *    request executors can feed one instance;
 *  - **summarizable**: count/min/max/sum plus p50/p90/p99 extracted
 *    from the bucket counts. A percentile falls back to the geometric
 *    midpoint of its bucket, clamped into [min, max], so a
 *    single-sample or single-bucket histogram reports the exact value.
 *
 * Buckets are fixed at construction: kBucketsPerOctave subdivisions
 * per power of two, spanning 2^kMinExponent .. 2^kMaxExponent. Values
 * at or below zero land in the underflow bucket (index 0); values
 * beyond the top boundary land in the overflow bucket. The mapping is
 * value-unit-agnostic -- callers record milliseconds, cycles, or
 * counts as long as one histogram sticks to one unit.
 *
 * JSON: json() emits a self-contained object (summary plus the sparse
 * nonzero bucket list) for the metrics report.
 */

#ifndef POM_OBS_HISTOGRAM_H
#define POM_OBS_HISTOGRAM_H

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pom::obs {

/** Snapshot statistics of one histogram. */
struct HistogramSummary
{
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;

    double
    mean() const
    {
        return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
};

/** Thread-safe fixed-bucket log-scale histogram. */
class Histogram
{
  public:
    /** Log-scale resolution: 4 buckets per power of two. */
    static constexpr int kBucketsPerOctave = 4;
    /** Smallest finite bucket boundary is 2^kMinExponent. */
    static constexpr int kMinExponent = -32;
    /** Largest finite bucket boundary is 2^kMaxExponent. */
    static constexpr int kMaxExponent = 32;
    /** Bucket 0 = underflow; then one bucket per log step; last =
     *  overflow. */
    static constexpr int kNumBuckets =
        (kMaxExponent - kMinExponent) * kBucketsPerOctave + 2;

    Histogram() = default;
    Histogram(const Histogram &other);
    Histogram &operator=(const Histogram &other);

    /** Record one sample (thread-safe). */
    void record(double value);

    /** Drop all samples. */
    void clear();

    std::uint64_t count() const;

    /** Full snapshot statistics (percentiles included). */
    HistogramSummary summary() const;

    /**
     * The @p p quantile (p in [0, 1]) from the bucket counts: the
     * geometric midpoint of the bucket holding the p-th sample,
     * clamped into [min, max]. 0.0 for an empty histogram.
     */
    double percentile(double p) const;

    /** Sparse (bucketIndex, sampleCount) pairs, ascending index. */
    std::vector<std::pair<int, std::uint64_t>> nonzeroBuckets() const;

    /** Bucket boundaries: samples in bucket i satisfy
     *  bucketLower(i) <= v < bucketUpper(i) (modulo under/overflow). */
    static double bucketLower(int index);
    static double bucketUpper(int index);

    /** The bucket index a value maps to. */
    static int bucketIndex(double value);

    /**
     * Self-contained JSON object: {"count": .., "min": .., "max": ..,
     * "sum": .., "p50": .., "p90": .., "p99": .., "buckets":
     * [[index, count], ...]}.
     */
    std::string json() const;

  private:
    mutable std::mutex mutex_;
    std::array<std::uint64_t, kNumBuckets> buckets_{};
    std::uint64_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;

    double percentileLocked(double p) const;
    HistogramSummary summaryLocked() const;
};

} // namespace pom::obs

#endif // POM_OBS_HISTOGRAM_H
