#include "core/stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

Percentile
percentile(std::vector<double> samples, double p)
{
    Percentile out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    // The epsilon keeps p*n that is integral in exact arithmetic (0.9 *
    // 200) from rounding up to the next rank.
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(samples.size()) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    out.value = samples[rank - 1];
    out.beyond = samples.size() - rank;
    return out;
}

double
geomeanOfMedians(const std::vector<std::vector<double>> &perProgram)
{
    double logSum = 0.0;
    std::size_t programs = 0;
    for (const std::vector<double> &samples : perProgram) {
        if (samples.empty())
            continue;
        logSum += std::log(median(samples));
        ++programs;
    }
    return programs ? std::exp(logSum / static_cast<double>(programs))
                    : 0.0;
}

} // namespace perfbench
