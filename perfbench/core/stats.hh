/**
 * @file
 * Order statistics used by every reported timing.
 *
 * Percentiles are nearest-rank: the p-th percentile of n sorted samples
 * is sample ceil(p*n) (1-based), so exactly n - ceil(p*n) samples lie
 * beyond it.  A percentile is reported only when at least
 * kMinBeyond samples lie beyond it; with fewer, the top samples alone
 * decide it and it cannot be told apart from the maximum.
 */

#ifndef PERFBENCH_CORE_STATS_HH
#define PERFBENCH_CORE_STATS_HH

#include <cstddef>
#include <vector>

namespace perfbench
{

inline constexpr std::size_t kMinBeyond = 10;

/** Median (mean of the two middle samples for even n); 0 when empty. */
double median(std::vector<double> samples);

struct Percentile
{
    double value = 0.0;
    std::size_t samples = 0;  ///< n
    std::size_t beyond = 0;   ///< samples strictly after the chosen rank
    /** At least kMinBeyond samples lie beyond the chosen rank. */
    bool supported() const { return beyond >= kMinBeyond; }
};

/** Nearest-rank percentile, @p p in (0, 1]. */
Percentile percentile(std::vector<double> samples, double p);

/**
 * Geometric mean over programs of each program's median sample, so a
 * program with more (shorter) units weighs the same as one with fewer.
 * Programs with no samples are skipped; 0 when none has any.
 */
double geomeanOfMedians(const std::vector<std::vector<double>> &perProgram);

} // namespace perfbench

#endif // PERFBENCH_CORE_STATS_HH
