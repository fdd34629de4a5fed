#include "obs/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace pom::obs {

namespace {

/** %.17g prints a double so that it reads back exactly. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

Histogram::Histogram(const Histogram &other)
{
    std::lock_guard<std::mutex> lock(other.mutex_);
    buckets_ = other.buckets_;
    count_ = other.count_;
    min_ = other.min_;
    max_ = other.max_;
    sum_ = other.sum_;
}

Histogram &
Histogram::operator=(const Histogram &other)
{
    if (this == &other)
        return *this;
    // Consistent order via std::lock avoids ABBA between two copies.
    std::unique_lock<std::mutex> self(mutex_, std::defer_lock);
    std::unique_lock<std::mutex> rhs(other.mutex_, std::defer_lock);
    std::lock(self, rhs);
    buckets_ = other.buckets_;
    count_ = other.count_;
    min_ = other.min_;
    max_ = other.max_;
    sum_ = other.sum_;
    return *this;
}

int
Histogram::bucketIndex(double value)
{
    if (!(value > 0.0) || std::isnan(value))
        return 0; // underflow: zero, negatives, NaN
    double log2v = std::log2(value);
    double step = (log2v - kMinExponent) * kBucketsPerOctave;
    if (step < 0.0)
        return 0;
    // +1: index 0 is the underflow bucket.
    int index = static_cast<int>(step) + 1;
    if (index >= kNumBuckets - 1)
        return kNumBuckets - 1; // overflow
    return index;
}

double
Histogram::bucketLower(int index)
{
    if (index <= 0)
        return 0.0;
    return std::exp2(kMinExponent +
                     static_cast<double>(index - 1) / kBucketsPerOctave);
}

double
Histogram::bucketUpper(int index)
{
    if (index >= kNumBuckets - 1)
        return std::exp2(static_cast<double>(kMaxExponent));
    return std::exp2(kMinExponent +
                     static_cast<double>(index) / kBucketsPerOctave);
}

void
Histogram::record(double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++buckets_[static_cast<std::size_t>(bucketIndex(value))];
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
}

void
Histogram::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    buckets_.fill(0);
    count_ = 0;
    min_ = 0.0;
    max_ = 0.0;
    sum_ = 0.0;
}

std::uint64_t
Histogram::count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
}

double
Histogram::percentileLocked(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    // The 1-based rank of the requested sample (nearest-rank method).
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(count_)));
    if (rank == 0)
        rank = 1;
    std::uint64_t seen = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
        seen += buckets_[static_cast<std::size_t>(i)];
        if (seen >= rank) {
            double lo = bucketLower(i);
            double hi = bucketUpper(i);
            double mid = lo > 0.0 ? std::sqrt(lo * hi) : hi / 2.0;
            return std::clamp(mid, min_, max_);
        }
    }
    return max_;
}

HistogramSummary
Histogram::summaryLocked() const
{
    HistogramSummary s;
    s.count = count_;
    s.min = min_;
    s.max = max_;
    s.sum = sum_;
    s.p50 = percentileLocked(0.50);
    s.p90 = percentileLocked(0.90);
    s.p99 = percentileLocked(0.99);
    return s;
}

HistogramSummary
Histogram::summary() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return summaryLocked();
}

double
Histogram::percentile(double p) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return percentileLocked(p);
}

std::vector<std::pair<int, std::uint64_t>>
Histogram::nonzeroBuckets() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<int, std::uint64_t>> out;
    for (int i = 0; i < kNumBuckets; ++i) {
        if (buckets_[static_cast<std::size_t>(i)] > 0)
            out.emplace_back(i, buckets_[static_cast<std::size_t>(i)]);
    }
    return out;
}

std::string
Histogram::json() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    HistogramSummary s = summaryLocked();
    std::ostringstream os;
    os << "{\"count\": " << s.count << ", \"min\": " << num(s.min)
       << ", \"max\": " << num(s.max) << ", \"sum\": " << num(s.sum)
       << ", \"p50\": " << num(s.p50) << ", \"p90\": " << num(s.p90)
       << ", \"p99\": " << num(s.p99) << ", \"buckets\": [";
    bool first = true;
    for (int i = 0; i < kNumBuckets; ++i) {
        std::uint64_t c = buckets_[static_cast<std::size_t>(i)];
        if (c == 0)
            continue;
        os << (first ? "" : ", ") << "[" << i << ", " << c << "]";
        first = false;
    }
    os << "]}";
    return os.str();
}

} // namespace pom::obs
