/**
 * @file
 * Unit tests for the benchmark's own code: order statistics, the
 * span recorder's self time, and determinism of the seeded inputs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/host.hh"
#include "core/spans.hh"
#include "core/stats.hh"
#include "core/streams.hh"

using namespace perfbench;

TEST(Stats, MedianOddEvenEmpty)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, NearestRankPercentileCountsSamplesBeyond)
{
    std::vector<double> v;
    for (int i = 200; i >= 1; --i)
        v.push_back(i);
    Percentile p90 = percentile(v, 0.9);
    EXPECT_DOUBLE_EQ(p90.value, 180.0);
    EXPECT_EQ(p90.samples, 200u);
    EXPECT_EQ(p90.beyond, 20u);
    EXPECT_TRUE(p90.supported());

    Percentile p50 = percentile(v, 0.5);
    EXPECT_DOUBLE_EQ(p50.value, 100.0);
    EXPECT_EQ(p50.beyond, 100u);
}

TEST(Stats, PercentileUnsupportedWithFewSamplesBeyond)
{
    // Two samples: p50 and p90 must not be reported as distinct
    // figures, so neither is supported.
    EXPECT_FALSE(percentile({1.0, 2.0}, 0.5).supported());
    EXPECT_FALSE(percentile({1.0, 2.0}, 0.9).supported());
    std::vector<double> v(99, 1.0);
    EXPECT_EQ(percentile(v, 0.9).beyond, 9u);
    EXPECT_FALSE(percentile(v, 0.9).supported());
    v.push_back(1.0);
    EXPECT_TRUE(percentile(v, 0.9).supported());
}

TEST(Stats, GeomeanOfPerProgramMedians)
{
    // Medians 2 and 8 → geomean 4, however many samples each has.
    std::vector<std::vector<double>> per = {{1, 2, 100}, {8, 8, 7, 9}, {}};
    EXPECT_NEAR(geomeanOfMedians(per), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomeanOfMedians({}), 0.0);
}

TEST(Host, HostSpeedKeepsEveryPositiveSample)
{
    HostSpeed speed;
    EXPECT_EQ(speed.steps(), std::size_t{4} << 16);
    for (int i = 0; i < 3; ++i) {
        double s = speed.measure();
        EXPECT_TRUE(std::isfinite(s));
        EXPECT_GT(s, 0.0);
        ASSERT_EQ(speed.samples().size(), std::size_t(i + 1));
        EXPECT_EQ(speed.samples().back(), s);
    }
}

TEST(Host, QuietTimeScalesByPowerOfSpeed)
{
    EXPECT_DOUBLE_EQ(HostSpeed::quietTime(2.0, 1.0), 2.0);
    // At a quarter speed the simulator is taken to run 4^1.5 = 8x slower.
    EXPECT_DOUBLE_EQ(HostSpeed::quietTime(8.0, 0.25), 1.0);
}

TEST(Spans, SelfTimeSubtractsChildCoverage)
{
    std::vector<Spans::Record> recs(4);
    recs[0] = {"job", 1, -1, 0, 100, 0};
    recs[1] = {"submit", 1, 0, 10, 30, 0};
    recs[2] = {"result", 1, 0, 20, 50, 0};   // overlaps submit
    recs[3] = {"result", 1, 0, 90, 120, 0};  // clipped at job end
    std::vector<SelfTime> st = selfTimes(recs);
    ASSERT_EQ(st.size(), 3u);
    for (const SelfTime &s : st) {
        if (s.name == "job") {
            EXPECT_EQ(s.count, 1u);
            EXPECT_NEAR(s.selfMs, (100 - 40 - 10) / 1e6, 1e-15);
        } else if (s.name == "result") {
            EXPECT_EQ(s.count, 2u);
            EXPECT_NEAR(s.totalMs, 60 / 1e6, 1e-15);
        }
    }
}

TEST(Spans, DisabledRecorderRecordsNothing)
{
    Spans off(false);
    {
        Span s(off, "x", 0);
        EXPECT_EQ(s.index(), -1);
    }
    EXPECT_EQ(off.size(), 0u);

    Spans on(true);
    {
        Span outer(on, "outer", 7);
        Span inner(on, "inner", 7, outer.index());
    }
    std::vector<Spans::Record> recs = on.records();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[1].parent, 0);
    EXPECT_LE(recs[1].endNs, recs[0].endNs);
    EXPECT_NE(on.chromeTrace().find("\"name\":\"inner\""), std::string::npos);
}

TEST(Streams, ShuffledOrderIsSeededPermutation)
{
    std::vector<std::size_t> a = shuffledOrder(5, 8);
    EXPECT_EQ(a, shuffledOrder(5, 8));
    EXPECT_EQ(std::set<std::size_t>(a.begin(), a.end()).size(), 8u);
}

TEST(Streams, ClientPlanIsDeterministicWithExactCounts)
{
    auto plan = planClients(42, 2, 100, 100);
    EXPECT_EQ(plan.size(), 2u);
    auto again = planClients(42, 2, 100, 100);
    auto other = planClients(43, 2, 100, 100);
    bool differs = false;
    for (unsigned c = 0; c < 2; ++c) {
        ASSERT_EQ(plan[c].size(), 200u);
        std::set<std::size_t> seen;
        unsigned repeats = 0;
        EXPECT_FALSE(plan[c][0].repeat);
        for (std::size_t i = 0; i < plan[c].size(); ++i) {
            const PlannedJob &j = plan[c][i];
            EXPECT_EQ(j.repeat, again[c][i].repeat);
            EXPECT_EQ(j.fresh, again[c][i].fresh);
            differs |= j.repeat != other[c][i].repeat;
            // Fresh requests belong to this client and are sent once,
            // in order; a repeat names one this client already sent.
            EXPECT_GE(j.fresh, c * 100u);
            EXPECT_LT(j.fresh, (c + 1) * 100u);
            if (j.repeat) {
                ++repeats;
                EXPECT_TRUE(seen.count(j.fresh));
            } else {
                EXPECT_EQ(j.fresh, c * 100u + seen.size());
                seen.insert(j.fresh);
            }
        }
        EXPECT_EQ(repeats, 100u);
        EXPECT_EQ(seen.size(), 100u);
    }
    EXPECT_TRUE(differs);
}

TEST(Streams, KernelRequestsAreDeterministicAndDistinct)
{
    std::set<std::string> lines;
    for (std::size_t i = 0; i < 8; ++i) {
        adore::serve::JobRequest a = kernelRequest(9, i);
        adore::serve::JobRequest b = kernelRequest(9, i);
        EXPECT_EQ(a.kernel, b.kernel);
        EXPECT_EQ(submitLine(a), submitLine(b));
        EXPECT_EQ(a.adore, i % 2 == 1);
        EXPECT_TRUE(a.workload.empty());
        lines.insert(submitLine(a));
    }
    EXPECT_EQ(lines.size(), 8u);
    EXPECT_NE(kernelRequest(9, 0).kernel, kernelRequest(10, 0).kernel);
    EXPECT_EQ(kernelRequest(9, 3).dataSeed, dataSeedBase(9) + 3);
}

TEST(Streams, ProgramRequestsRotateProgramsWithUniqueDataSeeds)
{
    std::vector<std::string> progs = {"mcf", "art"};
    std::set<std::uint64_t> seeds;
    for (std::size_t i = 0; i < 6; ++i) {
        adore::serve::JobRequest r = programRequest(progs, true, 3, i);
        EXPECT_EQ(r.workload, progs[i % 2]);
        EXPECT_EQ(r.maxCycles, 0u);  // the daemon's default budget
        EXPECT_LT(r.dataSeed, std::uint64_t{1} << 52);
        EXPECT_EQ(submitLine(r), submitLine(programRequest(progs, true, 3, i)));
        seeds.insert(r.dataSeed);
    }
    EXPECT_EQ(seeds.size(), 6u);
}
