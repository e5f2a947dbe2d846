#include "support/stats.hh"

#include <algorithm>

namespace adore
{

WindowStats
WindowStats::compute(const std::vector<double> &values, bool reject_outliers)
{
    WindowStats out;
    if (values.empty())
        return out;

    RunningStat rs;
    for (double v : values)
        rs.add(v);

    if (reject_outliers && values.size() >= 4 && rs.stddev() > 0.0) {
        RunningStat filtered;
        double lo = rs.mean() - 3.0 * rs.stddev();
        double hi = rs.mean() + 3.0 * rs.stddev();
        for (double v : values) {
            if (v >= lo && v <= hi)
                filtered.add(v);
        }
        if (filtered.count() >= 2)
            rs = filtered;
    }

    out.mean = rs.mean();
    out.stddev = rs.stddev();
    out.cv = rs.cv();
    return out;
}

TimeSeries
TimeSeries::downsample(std::size_t buckets) const
{
    TimeSeries out;
    if (points_.empty() || buckets == 0)
        return out;
    if (points_.size() <= buckets)
        return *this;

    std::size_t per = (points_.size() + buckets - 1) / buckets;
    for (std::size_t i = 0; i < points_.size(); i += per) {
        std::size_t end = std::min(i + per, points_.size());
        double sum = 0.0;
        for (std::size_t j = i; j < end; ++j)
            sum += points_[j].value;
        out.add(points_[i].cycle, sum / static_cast<double>(end - i));
    }
    return out;
}

} // namespace adore
