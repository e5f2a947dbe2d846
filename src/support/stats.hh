/**
 * @file
 * Small statistics helpers used throughout the simulator and the ADORE
 * runtime: running mean/stddev accumulators, coefficient of variation, and
 * sampled time series for the CPI / DEAR-miss-rate figures.
 */

#ifndef ADORE_SUPPORT_STATS_HH
#define ADORE_SUPPORT_STATS_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace adore
{

/**
 * Welford running accumulator for mean and standard deviation.
 */
class RunningStat
{
  public:
    void
    add(double x)
    {
        ++n_;
        double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
    }

    void
    reset()
    {
        n_ = 0;
        mean_ = 0.0;
        m2_ = 0.0;
    }

    std::size_t count() const { return n_; }
    double mean() const { return mean_; }

    /** Population variance (0 when fewer than two samples). */
    double
    variance() const
    {
        return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
    }

    double stddev() const { return std::sqrt(variance()); }

    /** Coefficient of variation: stddev / |mean| (0 for zero mean). */
    double
    cv() const
    {
        return mean_ != 0.0 ? stddev() / std::fabs(mean_) : 0.0;
    }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/** One-shot stats over a window of values, with simple outlier rejection. */
struct WindowStats
{
    double mean = 0.0;
    double stddev = 0.0;
    double cv = 0.0;

    /**
     * Compute stats over @p values.  When @p reject_outliers is set, values
     * farther than 3 sigma from the initial mean are dropped once and the
     * stats recomputed — the "removes noise" step of the paper's phase
     * detector (Section 2.3).
     */
    static WindowStats compute(const std::vector<double> &values,
                               bool reject_outliers = false);
};

/**
 * A time series sampled on a fixed simulated-cycle grid, used to reproduce
 * the Fig. 8 / Fig. 9 CPI and DEAR-miss-rate curves.
 */
class TimeSeries
{
  public:
    struct Point
    {
        std::uint64_t cycle;
        double value;
    };

    void
    add(std::uint64_t cycle, double value)
    {
        points_.push_back({cycle, value});
    }

    const std::vector<Point> &points() const { return points_; }
    bool empty() const { return points_.empty(); }
    std::size_t size() const { return points_.size(); }

    /** Downsample to at most @p buckets points by bucket-averaging. */
    TimeSeries downsample(std::size_t buckets) const;

  private:
    std::vector<Point> points_;
};

/** Integer ceil-div helper used for prefetch-distance computation. */
constexpr std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return b == 0 ? 0 : (a + b - 1) / b;
}

} // namespace adore

#endif // ADORE_SUPPORT_STATS_HH
