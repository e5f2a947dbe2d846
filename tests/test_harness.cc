/**
 * @file
 * Tests for the experiment harness: Machine assembly, RunMetrics
 * derivation, time-series collection, speedup math, the default ADORE
 * configuration, and profile collection.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "workloads/common.hh"

namespace adore
{
namespace
{

using workloads::direct;

hir::Program
tinyProgram()
{
    hir::Program prog;
    prog.name = "tiny";
    int arr = workloads::fpStream(prog, "a", 8 * 1024);
    hir::LoopBody body;
    body.refs.push_back(direct(arr, 1));
    int loop = workloads::addLoop(prog, "scan", 8 * 1024, body);
    workloads::phase(prog, loop, 4);
    return prog;
}

TEST(Machine, FreshStatePerInstance)
{
    Machine a, b;
    a.memory().writeU64(0x1000, 42);
    EXPECT_EQ(b.memory().readU64(0x1000), 0u);
    EXPECT_EQ(a.cpu().cycle(), 0u);
    EXPECT_EQ(a.code().textBundles(), 0u);
}

TEST(Experiment, MetricsAreConsistent)
{
    RunMetrics m = Experiment::run(tinyProgram(), RunConfig{});
    EXPECT_TRUE(m.halted);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_GT(m.retired, 0u);
    EXPECT_NEAR(m.cpi,
                static_cast<double>(m.cycles) /
                    static_cast<double>(m.retired),
                1e-9);
    EXPECT_GT(m.compileReport.textBytes, 0u);
    EXPECT_FALSE(m.adoreUsed);
}

TEST(Experiment, DeterministicAcrossRuns)
{
    hir::Program prog = tinyProgram();
    RunMetrics a = Experiment::run(prog, RunConfig{});
    RunMetrics b = Experiment::run(prog, RunConfig{});
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(a.dearMisses, b.dearMisses);
}

TEST(Experiment, DataSeedChangesLayout)
{
    hir::Program prog;
    prog.name = "seeded";
    int data = workloads::intStream(prog, "d", 64 * 1024);
    int idx = workloads::indexArray(prog, "i", 32 * 1024, 64 * 1024);
    hir::LoopBody body;
    body.refs.push_back(workloads::indirect(data, idx));
    workloads::phase(prog, workloads::addLoop(prog, "g", 32 * 1024,
                                              body),
                     2);
    RunConfig a, b;
    a.compile.dataSeed = 1;
    b.compile.dataSeed = 2;
    RunMetrics ma = Experiment::run(prog, a);
    RunMetrics mb = Experiment::run(prog, b);
    // Different index contents -> different (but same order of
    // magnitude) timing.
    EXPECT_NE(ma.cycles, mb.cycles);
    EXPECT_LT(static_cast<double>(ma.cycles) /
                  static_cast<double>(mb.cycles),
              1.5);
}

TEST(Experiment, TimeSeriesCollectsWhenRequested)
{
    RunConfig cfg;
    cfg.seriesInterval = 50'000;
    RunMetrics m = Experiment::run(tinyProgram(), cfg);
    EXPECT_FALSE(m.cpiSeries.empty());
    EXPECT_EQ(m.cpiSeries.size(), m.dearSeries.size());
    // Each point's CPI must be positive and bounded.
    for (const auto &p : m.cpiSeries.points()) {
        EXPECT_GT(p.value, 0.0);
        EXPECT_LT(p.value, 64.0);
    }
}

TEST(Experiment, NoSeriesByDefault)
{
    RunMetrics m = Experiment::run(tinyProgram(), RunConfig{});
    EXPECT_TRUE(m.cpiSeries.empty());
}

TEST(Experiment, SpeedupMath)
{
    EXPECT_DOUBLE_EQ(Experiment::speedup(200, 100), 1.0);
    EXPECT_DOUBLE_EQ(Experiment::speedup(100, 100), 0.0);
    EXPECT_NEAR(Experiment::speedup(100, 110), -0.0909, 1e-3);
    EXPECT_DOUBLE_EQ(Experiment::speedup(100, 0), 0.0);
}

TEST(Experiment, SecondsConversion)
{
    RunMetrics m;
    m.cycles = 900'000'000;
    EXPECT_DOUBLE_EQ(m.secondsAt900MHz(), 1.0);
}

TEST(Experiment, DefaultAdoreConfigMatchesDesign)
{
    AdoreConfig cfg = Experiment::defaultAdoreConfig();
    EXPECT_EQ(cfg.sampler.interval, 4'000u);
    EXPECT_EQ(cfg.sampler.ssbSamples, 64u);
    EXPECT_EQ(cfg.uebMultiplier, 16u);
    EXPECT_EQ(cfg.pollPeriod, 64'000u);
    EXPECT_EQ(cfg.maxPrefetchLoadsPerTrace, 3);
    // Inline polls: the barrier's per-poll thread handshake buys no
    // simulated difference (DESIGN.md §11).
    EXPECT_EQ(cfg.mode, OptimizerMode::Synchronous);
}

TEST(Experiment, CollectProfileFindsHotLoop)
{
    // One hot missing loop + cold loops: the profile must contain the
    // hot loop and exclude (most of) the cold ones.
    hir::Program prog;
    prog.name = "prof";
    int arr = workloads::fpStream(prog, "hot", 256 * 1024);  // 2 MiB
    hir::LoopBody body;
    body.refs.push_back(direct(arr, 2));
    int hot = workloads::addLoop(prog, "hotloop", 128 * 1024, body);
    workloads::phase(prog, hot, 2);
    workloads::addColdLoops(prog, 6);

    CompileOptions train;
    MissProfile profile = Experiment::collectProfile(prog, train, 0.9);
    EXPECT_TRUE(profile.hotLoops.count(hot));
    EXPECT_LT(profile.hotLoops.size(), 7u);
}

TEST(Experiment, MaxCyclesGuard)
{
    RunConfig cfg;
    cfg.maxCycles = 1'000;  // far too short to finish
    RunMetrics m = Experiment::run(tinyProgram(), cfg);
    EXPECT_FALSE(m.halted);
    EXPECT_LE(m.cycles, 2'000u);
}

} // namespace
} // namespace adore
