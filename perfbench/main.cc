/**
 * @file
 * perfbench: end-to-end and per-layer benchmark of the simulator and
 * its serving daemon.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <file>]
 *
 * Every workload is a population of programs exercised two ways:
 *
 *  - direct: Experiment::run of each program, round-robin in a seeded
 *    order and each unit on the next pair of CPUs, until the time
 *    budget is spent (sim_mips, sim_cycles);
 *  - served: a closed loop of two clients, each sending submit → wait
 *    → result lines through serve::handleLine to an in-process Daemon
 *    with two workers (serve_* metrics), the daemon's threads and the
 *    clients moving to the next CPUs every slice.  Half of each
 *    client's jobs are fresh requests (cache misses); the rest resend a
 *    request the same client already saw complete (cache hits).  The
 *    job count is fixed, so hit and miss sample counts are the same on
 *    every run.
 *
 * The served stream runs in slices with direct passes between them,
 * so both stages sample the whole run.  Every reported host time is
 * converted to quiet-host time (HostSpeed::quietTime) with the host
 * speed measured on the same CPUs just before and just after it, so
 * the host's drift over minutes moves the figures less while a change
 * to the simulator moves them fully.
 *
 * Outputs are checked as they are produced: units must halt and pass
 * invariants::checkSelfConsistent, every pass must repeat the first
 * pass's simulated cycles, no job may be rejected or dead-lettered,
 * every planned repeat must be a cache hit, and every 13th fresh job's
 * result must be byte-identical to a one-shot Experiment::run of the
 * same request.  The last stdout line is the result JSON; with
 * --trace 1 the per-layer metrics replace the end-to-end ones and the
 * spans are written as Chrome-trace JSON.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "compiler/compiler.hh"
#include "core/host.hh"
#include "core/spans.hh"
#include "core/stats.hh"
#include "core/streams.hh"
#include "harness/invariants.hh"
#include "program/data_layout.hh"
#include "serve/json.hh"
#include "serve/server.hh"
#include "support/logging.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

using namespace adore;
using namespace perfbench;
namespace json = adore::serve::json;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

// ---- fixed benchmark shape ------------------------------------------

constexpr unsigned kClients = 2;
constexpr unsigned kWorkers = 2;
/** A multiple of the CPU count, so each CPU sets up equally often. */
constexpr unsigned kSetupRepeats = 16;
/** Direct passes that run even past the deadline; a traced pass runs
 *  every unit in all four arms, so one is enough there. */
constexpr unsigned kMinPasses = 3;
constexpr unsigned kMinTracedPasses = 1;
/** Every kOracleStride-th fresh job is checked against a one-shot run;
 *  13 is prime, so the sample covers every program of a rotation and
 *  both ADORE settings. */
constexpr std::size_t kOracleStride = 13;
/** serve_mixed simulates this many generated kernels directly. */
constexpr std::size_t kDirectKernels = 24;
/** Generator seed of those kernels: a fixed corpus, so the programs
 *  simulated directly, like the registry workloads', do not depend on
 *  the workload seed (their data does). */
constexpr std::uint64_t kKernelCorpusSeed = 0;
/** The served stream runs in this many slices spread over the run,
 *  with direct passes between them, so both stages sample the host
 *  over the whole run rather than one stretch of it.  Each slice runs
 *  on the next CPUs, and 12 is a multiple of every CPU count up to 4,
 *  so each CPU serves equally often. */
constexpr unsigned kServeSlices = 12;

const std::atomic<bool> kNeverCancel{false};

/** Span group ids: one per served job, oracle check or direct unit. */
std::uint64_t
jobGroup(unsigned client, std::size_t job)
{
    return (std::uint64_t{client + 1} << 32) + job;
}
constexpr std::uint64_t kOracleGroups = std::uint64_t{1} << 40;
constexpr std::uint64_t kUnitGroups = std::uint64_t{2} << 40;

struct WorkloadSpec
{
    const char *name;
    /** Registry programs; empty means generated kernels. */
    std::vector<std::string> programs;
    bool adore;  ///< direct units and served requests attach ADORE
    bool hwpf;   ///< direct units enable the hw-prefetch zoo
    unsigned freshPerClient;
    unsigned repeatsPerClient;
};

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = {
        {"resident_o2", {"parser", "vortex", "mesa", "gzip"}, false, false,
         100, 100},
        {"membound_adore", {"mcf", "art", "equake", "swim"}, true, true,
         100, 100},
        {"serve_mixed", {}, false, false, 200, 200},
    };
    return specs;
}

// ---- options ----------------------------------------------------------

struct Options
{
    const WorkloadSpec *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string traceOut;
};

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    if (!text || !*text)
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || *end || text[0] == '-')
        return false;
    out = v;
    return true;
}

bool
parseOptions(int argc, char **argv, Options &opt, std::string &err)
{
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        std::uint64_t n = 0;
        if (arg == "--workload" && val) {
            for (const WorkloadSpec &w : workloadSpecs())
                if (w.name == std::string(val))
                    opt.workload = &w;
            if (!opt.workload) {
                err = std::string("unknown workload: ") + val;
                return false;
            }
        } else if (arg == "--seed" && parseUnsigned(val, n)) {
            opt.seed = n;
            haveSeed = true;
        } else if (arg == "--seconds" && parseUnsigned(val, n) && n > 0 &&
                   n <= 3600) {
            opt.seconds = static_cast<double>(n);
            haveSeconds = true;
        } else if (arg == "--trace" && parseUnsigned(val, n) && n <= 1) {
            opt.trace = n == 1;
            haveTrace = true;
        } else if (arg == "--trace-out" && val) {
            opt.traceOut = val;
        } else {
            err = "bad or incomplete argument: " + arg;
            return false;
        }
        ++i;
    }
    if (!opt.workload || !haveSeed || !haveSeconds || !haveTrace) {
        err = "--workload, --seed, --seconds and --trace are required";
        return false;
    }
    return true;
}

// ---- failure accounting ----------------------------------------------

class Checks
{
  public:
    /** Count one operation; a failed one is reported on stderr. */
    void
    op(bool ok, const std::string &what)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++attempted_;
        if (!ok) {
            ++failed_;
            if (failed_ <= 20)
                std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
        }
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::mutex mutex_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// ---- set-up -----------------------------------------------------------

struct Unit
{
    std::string name;
    hir::Program prog;
    RunConfig cfg;
};

struct Setup
{
    std::vector<Unit> units;                 ///< direct-stage programs
    std::vector<serve::JobRequest> fresh;    ///< by fresh index
    std::vector<std::string> freshLines;     ///< submit lines
    std::vector<std::vector<PlannedJob>> plan;
    std::unique_ptr<serve::Daemon> daemon;
    std::vector<int> daemonThreads;  ///< its workers and monitor
};

/** The program a request names, built the way the daemon builds it. */
hir::Program
programFor(const serve::JobRequest &req)
{
    if (!req.workload.empty())
        return workloads::make(req.workload);
    hir::Program prog;
    std::string err;
    if (!workloads::parseProgram(req.kernel, prog, err))
        throw std::runtime_error("kernel does not parse: " + err);
    return prog;
}

/** The RunConfig the daemon uses for @p req, with a cancel flag that
 *  is never raised. */
RunConfig
oneShotConfig(const serve::JobRequest &req, const serve::Daemon &d)
{
    return serve::buildRunConfig(
        req, &kNeverCancel,
        req.maxCycles ? req.maxCycles : d.config().defaultMaxCycles,
        d.config().cancelCheckPeriod);
}

/**
 * Everything a user pays before the first timed unit: the workload's
 * programs, the request lines and a running daemon.
 */
Setup
buildSetup(const WorkloadSpec &spec, std::uint64_t seed, Spans &spans,
           double &buildMs)
{
    Span span(spans, "setup", 0);
    Setup s;
    std::vector<serve::JobRequest> corpus;  // generated kernels run directly
    Clock::time_point t0 = Clock::now();
    {
        Span build(spans, "workloads.build", 0, span.index());
        std::size_t freshCount =
            std::size_t{kClients} * spec.freshPerClient;
        for (std::size_t i = 0; i < freshCount; ++i) {
            s.fresh.push_back(
                spec.programs.empty()
                    ? kernelRequest(seed, i)
                    : programRequest(spec.programs, spec.adore, seed, i));
            s.freshLines.push_back(submitLine(s.fresh.back()));
        }
        if (!spec.programs.empty()) {
            RunConfig cfg = bench::workloadConfig(
                bench::restrictedOptions(OptLevel::O2), spec.adore);
            cfg.machine.hier.hwPrefetch.enabled = spec.hwpf;
            cfg.compile.dataSeed = dataSeedBase(seed);
            for (const std::string &name : spec.programs)
                s.units.push_back({name, workloads::make(name), cfg});
        }
        for (std::size_t k = 0; spec.programs.empty() && k < kDirectKernels;
             ++k) {
            corpus.push_back(kernelRequest(kKernelCorpusSeed, k));
            corpus.back().dataSeed = dataSeedBase(seed) + k;
        }
    }
    buildMs = msSince(t0);
    s.plan = planClients(seed, kClients, spec.freshPerClient,
                         spec.repeatsPerClient);
    {
        Span d(spans, "serve.daemon_start", 0, span.index());
        serve::DaemonConfig cfg;
        cfg.workers = kWorkers;
        const std::vector<int> before = processThreads();
        s.daemon = std::make_unique<serve::Daemon>(cfg);
        for (int tid : processThreads())
            if (std::find(before.begin(), before.end(), tid) == before.end())
                s.daemonThreads.push_back(tid);
    }
    // Generated kernels run one-shot exactly as the daemon would run
    // them.
    for (std::size_t k = 0; k < corpus.size(); ++k)
        s.units.push_back({"kernel" + std::to_string(k),
                           programFor(corpus[k]),
                           oneShotConfig(corpus[k], *s.daemon)});
    return s;
}

// ---- served stage -----------------------------------------------------

struct ServedJob
{
    std::size_t fresh = 0;
    bool repeat = false;
    double latencyMs = 0.0;  ///< wall time
    std::string metricsJson;
    double speed = 1.0;  ///< host speed around its slice

    double quietMs() const { return HostSpeed::quietTime(latencyMs, speed); }
};

struct ServeResult
{
    std::vector<ServedJob> done;
    std::vector<double> submitUs;
    std::vector<double> resultUs;
    double windowS = 0.0;  ///< quiet-host time spent serving
};

/** Client @p c sends jobs [begin, end) of its plan, one at a time. */
void
runClient(Setup &s, unsigned c, std::size_t begin, std::size_t end,
          Spans &spans, Checks &checks, ServeResult &out,
          std::mutex &outMutex)
{
    std::vector<ServedJob> done;
    std::vector<double> submitUs, resultUs;
    for (std::size_t j = begin; j < end; ++j) {
        const PlannedJob &job = s.plan[c][j];
        const std::uint64_t group = jobGroup(c, j);
        std::string what = "client " + std::to_string(c) + " fresh " +
                           std::to_string(job.fresh);
        Span jobSpan(spans, "serve.job", group);
        Clock::time_point t0 = Clock::now();
        serve::HandleResult submitted;
        {
            Span sp(spans, "serve.submit", group, jobSpan.index());
            submitted = serve::handleLine(*s.daemon, s.freshLines[job.fresh]);
        }
        submitUs.push_back(msSince(t0) * 1e3);
        json::Value reply;
        std::string err;
        if (!json::parse(submitted.response, reply, err) ||
            !reply.flag("ok")) {
            checks.op(false, what + ": submit rejected: " +
                                 submitted.response);
            continue;
        }
        std::string id = std::to_string(reply.u64("id"));
        {
            Span sp(spans, "serve.wait", group, jobSpan.index());
            serve::handleLine(*s.daemon, "{\"op\":\"wait\",\"id\":" + id +
                                             ",\"timeout_ms\":120000}");
        }
        Clock::time_point tr = Clock::now();
        serve::HandleResult result;
        {
            Span sp(spans, "serve.result", group, jobSpan.index());
            result = serve::handleLine(*s.daemon,
                                       "{\"op\":\"result\",\"id\":" + id + "}");
        }
        double latency = msSince(t0);
        resultUs.push_back(msSince(tr) * 1e3);
        if (!json::parse(result.response, reply, err) ||
            reply.str("state") != "done") {
            checks.op(false, what + ": not done: " + result.response);
            continue;
        }
        if (reply.flag("cache_hit") != job.repeat) {
            checks.op(false, what + (job.repeat ? ": repeat missed the cache"
                                                : ": fresh job hit the cache"));
            continue;
        }
        checks.op(true, what);
        done.push_back({job.fresh, job.repeat, latency,
                        job.repeat ? std::string()
                                   : reply.str("metrics_json")});
    }
    std::lock_guard<std::mutex> lock(outMutex);
    for (ServedJob &j : done)
        out.done.push_back(std::move(j));
    out.submitUs.insert(out.submitUs.end(), submitUs.begin(), submitUs.end());
    out.resultUs.insert(out.resultUs.end(), resultUs.begin(), resultUs.end());
}

/**
 * Run slice @p slice of kServeSlices of every client's plan.  The
 * daemon's threads run on CPUs slice and slice+1, the clients on the
 * next two, so over the run every CPU takes each role equally often.
 * The host's speed on the daemon's CPUs is measured before and after
 * the slice; the mean converts the slice's latencies and time to
 * quiet-host time.
 */
void
serveSlice(Setup &s, unsigned slice, const CpuRotation &rotation,
           HostSpeed &hostSpeed, Spans &spans, Checks &checks,
           ServeResult &out)
{
    for (int tid : s.daemonThreads)
        rotation.pin(slice, tid);
    rotation.pin(slice);
    const double before = hostSpeed.measure();
    rotation.release();
    const std::size_t firstJob = out.done.size();
    std::mutex outMutex;
    Clock::time_point t0 = Clock::now();
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
        std::size_t n = s.plan[c].size();
        std::size_t begin = n * slice / kServeSlices;
        std::size_t end = n * (slice + 1) / kServeSlices;
        clients.emplace_back([&, c, begin, end] {
            rotation.pin(slice + 2);
            try {
                runClient(s, c, begin, end, spans, checks, out, outMutex);
            } catch (const std::exception &e) {
                checks.op(false, std::string("client threw: ") + e.what());
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    const double windowS = msSince(t0) / 1e3;
    rotation.pin(slice);
    const double after = hostSpeed.measure();
    rotation.release();
    const double speed = (before + after) / 2.0;
    for (std::size_t j = firstJob; j < out.done.size(); ++j)
        out.done[j].speed = speed;
    out.windowS += HostSpeed::quietTime(windowS, speed);
}

struct OracleResult
{
    std::vector<double> overheadMs;     ///< served latency - one-shot run
    std::vector<double> metricsJsonUs;  ///< Experiment::metricsJson
    std::uint64_t mismatches = 0;
};

/** Compare sampled fresh results against one-shot runs. */
OracleResult
oracleStage(const Setup &s, const ServeResult &served, Spans &spans,
            Checks &checks)
{
    OracleResult out;
    for (const ServedJob &job : served.done) {
        if (job.repeat || job.fresh % kOracleStride != 0)
            continue;
        const std::uint64_t group = kOracleGroups + job.fresh;
        Span span(spans, "oracle", group);
        const serve::JobRequest &req = s.fresh[job.fresh];
        hir::Program prog = programFor(req);
        RunConfig cfg = oneShotConfig(req, *s.daemon);
        Clock::time_point t0 = Clock::now();
        RunMetrics m;
        {
            Span run(spans, "harness.run", group, span.index());
            m = Experiment::run(prog, cfg);
        }
        out.overheadMs.push_back(job.latencyMs - msSince(t0));
        Clock::time_point tj = Clock::now();
        std::string pretty;
        {
            Span js(spans, "observe.metrics_json", group, span.index());
            pretty = Experiment::metricsJson(m);
        }
        out.metricsJsonUs.push_back(msSince(tj) * 1e3);
        std::string expected;
        bool same = json::compact(pretty, expected) &&
                    expected == job.metricsJson;
        if (!same)
            ++out.mismatches;
        checks.op(same, "oracle for fresh " + std::to_string(job.fresh) +
                            ": served result differs from one-shot run");
    }
    return out;
}

// ---- direct stage -----------------------------------------------------

/** A config variant run beside the workload's own in traced runs. */
enum Arm
{
    Base,        ///< the unit's own configuration
    HwpfOther,   ///< hw prefetching toggled
    AdoreOther,  ///< ADORE toggled
    AdoreSync,   ///< ADORE on, Synchronous optimizer
    kArms
};

const char *const kArmSpan[kArms] = {"harness.run", "arm.hwpf_toggled",
                                     "arm.adore_toggled", "arm.adore_sync"};

RunConfig
armConfig(const RunConfig &base, Arm arm)
{
    RunConfig cfg = base;
    bool adoreOn = base.adore;
    if (arm == HwpfOther)
        cfg.machine.hier.hwPrefetch.enabled =
            !base.machine.hier.hwPrefetch.enabled;
    if (arm == AdoreOther)
        adoreOn = !base.adore;
    if (arm == AdoreSync)
        adoreOn = true;
    if (adoreOn != base.adore) {
        cfg.adore = adoreOn;
        cfg.adoreConfig =
            adoreOn ? Experiment::defaultAdoreConfig() : AdoreConfig{};
        // ADORE's prefetch code writes the registers the compiler
        // reserves for it, so a program run with ADORE must keep them
        // free, as buildRunConfig does for adore:true jobs.
        if (adoreOn)
            cfg.compile.reserveAdoreRegs = true;
    }
    if (arm == AdoreSync)
        cfg.adoreConfig.mode = OptimizerMode::Synchronous;
    return cfg;
}

/** Counter sums over one pass, by collectMetrics name. */
using Counters = std::map<std::string, double>;

void
accumulate(Counters &sum, const RunMetrics &m)
{
    observe::MetricsRegistry reg;
    Experiment::collectMetrics(reg, m);
    for (const observe::MetricsRegistry::Metric &metric : reg.snapshot())
        sum[metric.name] += metric.value;
}

/** Host ms per unit, [off/on][unit]. */
using OnOffTimes = std::vector<std::vector<double>>[2];

struct DirectResult
{
    /** Base arm, [unit]: retired insns per quiet-host microsecond. */
    std::vector<std::vector<double>> mips;
    std::vector<double> runMs;              ///< every base-arm unit
    std::uint64_t passCycles = 0;           ///< base arm, first pass
    unsigned passes = 0;
    Counters base;  ///< base arm, first pass

    // Traced runs only.
    std::vector<double> compileMs;
    OnOffTimes hwpfMs, adoreMs;  ///< base vs the toggled arm
    std::vector<std::vector<double>> syncMs;
    Counters hwpfOn, adoreOn;    ///< first pass, whichever arm had it on
};

/** Compiler::compile plus data init of @p unit on a side machine. */
double
timeCompile(const Unit &unit, Spans &spans, std::uint64_t group)
{
    Span span(spans, "compiler.compile", group);
    Clock::time_point t0 = Clock::now();
    Machine machine(unit.cfg.machine);
    DataLayout data(machine.memory());
    Compiler compiler(unit.cfg.machine.hier);
    compiler.compile(unit.prog, unit.cfg.compile, machine.code(), data);
    return msSince(t0);
}

/**
 * One pass over every unit in the seeded order (all arms if traced),
 * each unit on the next pair of CPUs.  Each pass starts one CPU further
 * on, so a program visits every CPU over the run even when the number
 * of programs is a multiple of the number of CPUs.  The host's speed
 * is measured on those CPUs just before and just after each unit.
 */
void
directPass(const Setup &s, const std::vector<std::size_t> &order,
           const CpuRotation &rotation, bool traced, HostSpeed &hostSpeed,
           Spans &spans, Checks &checks, DirectResult &out)
{
    const std::size_t n = s.units.size();
    if (out.mips.empty()) {
        out.mips.assign(n, {});
        for (int on = 0; on < 2; ++on) {
            out.hwpfMs[on].assign(n, {});
            out.adoreMs[on].assign(n, {});
        }
        out.syncMs.assign(n, {});
    }
    const bool first = out.passes == 0;
    std::uint64_t cycles = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const std::size_t k = order[i];
        const Unit &unit = s.units[k];
        const std::uint64_t group = kUnitGroups + out.passes * n + k;
        rotation.pin(out.passes + i);
        if (traced)
            out.compileMs.push_back(timeCompile(unit, spans, group));
        const double before = hostSpeed.measure();
        double baseMs = 0.0;
        std::uint64_t baseRetired = 0;
        for (unsigned a = 0; a < (traced ? kArms : 1); ++a) {
            const Arm arm = static_cast<Arm>(a);
            RunConfig cfg = armConfig(unit.cfg, arm);
            Span span(spans, kArmSpan[a], group);
            Clock::time_point t0 = Clock::now();
            RunMetrics m = Experiment::run(unit.prog, cfg);
            double ms = msSince(t0);
            std::vector<std::string> problems;
            invariants::checkSelfConsistent(m, unit.name + ": ", problems);
            if (!m.halted)
                problems.push_back(unit.name + ": did not halt");
            checks.op(problems.empty(),
                      problems.empty() ? unit.name : problems.front());

            const bool hwOn = cfg.machine.hier.hwPrefetch.enabled;
            if (arm == Base || arm == HwpfOther) {
                out.hwpfMs[hwOn][k].push_back(ms);
                if (first && hwOn && traced)
                    accumulate(out.hwpfOn, m);
            }
            if (arm == Base || arm == AdoreOther) {
                out.adoreMs[cfg.adore][k].push_back(ms);
                if (first && cfg.adore && traced)
                    accumulate(out.adoreOn, m);
            }
            if (arm == AdoreSync)
                out.syncMs[k].push_back(ms);
            if (arm == Base) {
                if (first && traced)
                    accumulate(out.base, m);
                out.runMs.push_back(ms);
                baseMs = ms;
                baseRetired = m.retired;
                cycles += m.cycles;
            }
        }
        const double after = hostSpeed.measure();
        out.mips[k].push_back(
            static_cast<double>(baseRetired) /
            (HostSpeed::quietTime(baseMs, (before + after) / 2.0) * 1e3));
    }
    if (first)
        out.passCycles = cycles;
    else
        checks.op(cycles == out.passCycles,
                  "pass " + std::to_string(out.passes) + " simulated " +
                      std::to_string(cycles) + " cycles, first pass " +
                      std::to_string(out.passCycles));
    ++out.passes;
}

// ---- reporting --------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note;  ///< sample counts, shown beside the value
};

std::string
countNote(const Percentile &p)
{
    return "n=" + std::to_string(p.samples) +
           " beyond=" + std::to_string(p.beyond);
}

/** Geomean over units of (median on / median off) - 1. */
double
overheadFrac(const std::vector<std::vector<double>> &on,
             const std::vector<std::vector<double>> &off)
{
    std::vector<std::vector<double>> ratios;
    for (std::size_t i = 0; i < on.size(); ++i)
        if (!on[i].empty() && !off[i].empty())
            ratios.push_back({median(on[i]) / median(off[i])});
    return ratios.empty() ? 0.0 : geomeanOfMedians(ratios) - 1.0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Per-span host cost of the recorder, for the traced run's overhead. */
double
spanCostNs()
{
    Spans probe(true);
    constexpr int kProbe = 20'000;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kProbe; ++i)
        probe.end(probe.begin("probe", 0, -1));
    return msSince(t0) * 1e6 / kProbe;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";  // the run is already marked failed
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string err;
    if (!parseOptions(argc, argv, opt, err)) {
        std::fprintf(stderr,
                     "perfbench: %s\nusage: perfbench --workload "
                     "<resident_o2|membound_adore|serve_mixed> --seed <n> "
                     "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
                     err.c_str());
        return 2;
    }
    setVerbose(false);
    const WorkloadSpec &spec = *opt.workload;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::milliseconds(
                    static_cast<long long>(opt.seconds * 1e3));
    Spans spans(opt.trace);
    Checks checks;

    // Set up several times, each on the next CPUs; the run uses the
    // last set-up.
    const CpuRotation rotation;
    HostSpeed hostSpeed;
    std::vector<double> setupS, buildMs;
    Setup setup;
    for (unsigned r = 0; r < kSetupRepeats; ++r) {
        setup = Setup{};  // tears the previous daemon down, untimed
        rotation.pin(r);
        const double before = hostSpeed.measure();
        double build = 0.0;
        Clock::time_point t0 = Clock::now();
        setup = buildSetup(spec, opt.seed, spans, build);
        const double secs = msSince(t0) / 1e3;
        const double after = hostSpeed.measure();
        setupS.push_back(HostSpeed::quietTime(secs, (before + after) / 2.0));
        buildMs.push_back(build);
    }
    rotation.release();

    // Served slices alternate with direct passes until the deadline.
    ServeResult served;
    DirectResult direct;
    const std::vector<std::size_t> order =
        shuffledOrder(opt.seed, setup.units.size());
    const unsigned minPasses = opt.trace ? kMinTracedPasses : kMinPasses;
    const auto budget = deadline - start;
    auto pass = [&] {
        directPass(setup, order, rotation, opt.trace, hostSpeed, spans,
                   checks, direct);
        rotation.release();
    };
    // Peak memory is read twice.  The bounded figure is read after
    // set-up and one direct pass.  The high-water mark after serving is
    // shown but bounded nowhere: on serve_mixed the seed's largest
    // kernel sets it (80-380 MiB between seeds), and elsewhere it moves
    // with which two jobs happen to overlap on the workers.
    pass();
    const double peakRss = peakRssMb();
    for (unsigned slice = 0; slice < kServeSlices; ++slice) {
        serveSlice(setup, slice, rotation, hostSpeed, spans, checks, served);
        const Clock::time_point sliceEnd =
            start + budget * (slice + 1) / kServeSlices;
        while (Clock::now() < sliceEnd ||
               (slice + 1 == kServeSlices && direct.passes < minPasses))
            pass();
    }
    OracleResult oracle = oracleStage(setup, served, spans, checks);
    const double servedPeakRss = peakRssMb();
    observe::MetricsRegistry daemonMetrics = setup.daemon->metrics();
    setup.daemon->drain();

    std::vector<double> missMs, hitMs;
    for (const ServedJob &j : served.done)
        (j.repeat ? hitMs : missMs).push_back(j.quietMs());
    Percentile missP50 = percentile(missMs, 0.5);
    Percentile missP90 = percentile(missMs, 0.9);
    Percentile hitP50 = percentile(hitMs, 0.5);
    Percentile hitP90 = percentile(hitMs, 0.9);
    for (const Percentile *p : {&missP50, &missP90, &hitP50, &hitP90})
        checks.op(p->supported(),
                  "percentile with " + std::to_string(p->beyond) +
                      " samples beyond it (need " +
                      std::to_string(kMinBeyond) + ")");

    std::vector<Metric> metrics;
    const double wallS = msSince(start) / 1e3;
    if (!opt.trace) {
        metrics = {
            {"setup_s", median(setupS), "s",
             "median of " + std::to_string(setupS.size())},
            {"sim_mips", geomeanOfMedians(direct.mips), "MIPS",
             std::to_string(direct.passes) + " passes x " +
                 std::to_string(setup.units.size()) + " programs"},
            {"sim_cycles", static_cast<double>(direct.passCycles), "cycles",
             "one pass"},
            {"peak_rss_mb", peakRss, "MiB", "after set-up and one pass"},
            {"serve_jobs_per_s",
             static_cast<double>(served.done.size()) / served.windowS, "1/s",
             std::to_string(served.done.size()) + " jobs"},
            {"serve_miss_p50_ms", missP50.value, "ms", countNote(missP50)},
            {"serve_miss_p90_ms", missP90.value, "ms", countNote(missP90)},
            {"serve_hit_p50_ms", hitP50.value, "ms", countNote(hitP50)},
        };
    } else {
        const Counters &base = direct.base;
        const Counters &hw = direct.hwpfOn;
        const Counters &ad = direct.adoreOn;
        auto get = [](const Counters &c, const char *name) {
            auto it = c.find(name);
            return it == c.end() ? 0.0 : it->second;
        };
        auto reg = [&](const char *name) {
            return daemonMetrics.value(name).value_or(0.0);
        };
        std::size_t spanCount = spans.size();
        double traceOverhead = spanCostNs() * static_cast<double>(spanCount) /
                               (wallS * 1e9);
        metrics = {
            {"tier.blocks_built", get(base, "tier.blocks_built"), "count", ""},
            {"tier.dispatches", get(base, "tier.dispatches"), "count", ""},
            {"tier.insns_per_dispatch",
             ratio(get(base, "run.retired"), get(base, "tier.dispatches")),
             "insns", ""},
            {"tier.blocks_invalidated", get(base, "tier.blocks_invalidated"),
             "count", ""},
            {"compiler.compile_ms", median(direct.compileMs), "ms",
             "n=" + std::to_string(direct.compileMs.size())},
            {"workloads.build_ms", median(buildMs), "ms",
             "median of " + std::to_string(buildMs.size())},
            {"harness.run_ms", median(direct.runMs), "ms",
             "n=" + std::to_string(direct.runMs.size())},
            {"harness.oracle_mismatches",
             static_cast<double>(oracle.mismatches), "count",
             std::to_string(oracle.metricsJsonUs.size()) + " checked"},
            {"l1d.miss_rate",
             ratio(get(base, "l1d.misses"), get(base, "l1d.accesses")), "frac", ""},
            {"l2.miss_rate",
             ratio(get(base, "l2.misses"), get(base, "l2.accesses")), "frac", ""},
            {"l3.miss_rate",
             ratio(get(base, "l3.misses"), get(base, "l3.accesses")), "frac", ""},
            {"mem.prefetches_dropped", get(base, "mem.prefetches_dropped"),
             "count", ""},
            {"mem.prefetches_useless", get(base, "mem.prefetches_useless"),
             "count", ""},
            {"hwpf.issued", get(hw, "hwpf.issued"), "count", "hwpf-on runs"},
            {"hwpf.useless_frac",
             ratio(get(hw, "hwpf.useless"), get(hw, "hwpf.issued")), "frac",
             "hwpf-on runs"},
            {"hwpf.host_overhead_frac", overheadFrac(direct.hwpfMs[1], direct.hwpfMs[0]),
             "frac", "hwpf on vs off"},
            {"pmu.samples_taken", get(ad, "pmu.samples_taken"), "count",
             "ADORE-on runs"},
            {"pmu.drop_frac",
             ratio(get(ad, "pmu.dropped_batches"), get(ad, "pmu.overflows")),
             "frac", "ADORE-on runs"},
            {"adore.traces_patched", get(ad, "adore.traces_patched"), "count",
             "ADORE-on runs"},
            {"adore.prefetches_direct", get(ad, "adore.prefetches_direct"),
             "count", "ADORE-on runs"},
            {"adore.prefetches_indirect", get(ad, "adore.prefetches_indirect"),
             "count", "ADORE-on runs"},
            {"adore.prefetches_pointer", get(ad, "adore.prefetches_pointer"),
             "count", "ADORE-on runs"},
            {"adore.traces_unpatched", get(ad, "adore.traces_unpatched"),
             "count", "ADORE-on runs"},
            {"optimizer.queue_dropped", get(ad, "optimizer.queue_dropped"),
             "count", "ADORE-on runs"},
            {"runtime.host_overhead_frac", overheadFrac(direct.adoreMs[1], direct.adoreMs[0]),
             "frac", "ADORE on vs off"},
            {"runtime.barrier_overhead_frac",
             overheadFrac(direct.adoreMs[1], direct.syncMs), "frac",
             "default optimizer mode vs Synchronous"},
            {"serve.submit_us", median(served.submitUs), "us",
             "n=" + std::to_string(served.submitUs.size())},
            {"serve.result_us", median(served.resultUs), "us",
             "n=" + std::to_string(served.resultUs.size())},
            {"serve.overhead_ms", median(oracle.overheadMs), "ms",
             "n=" + std::to_string(oracle.overheadMs.size())},
            {"serve.hit_p90_ms", hitP90.value, "ms", countNote(hitP90)},
            {"serve.peak_rss_mb", servedPeakRss, "MiB", "after serving"},
            {"serve.cache_hit_frac",
             ratio(reg("serve.cache.hits"),
                   reg("serve.cache.hits") + reg("serve.cache.misses")),
             "frac", ""},
            {"serve.jobs.retries", reg("serve.jobs.retries"), "count", ""},
            {"serve.jobs.dead_letter", reg("serve.jobs.dead_letter"), "count",
             ""},
            {"serve.jobs.rejected_full", reg("serve.jobs.rejected_full"),
             "count", ""},
            {"observe.metrics_json_us", median(oracle.metricsJsonUs), "us",
             "n=" + std::to_string(oracle.metricsJsonUs.size())},
            {"trace.overhead_frac", traceOverhead, "frac",
             std::to_string(spanCount) + " spans"},
        };

        std::printf("traced run, for comparison with untraced runs: "
                    "sim_mips=%.4g serve_miss_p50_ms=%.4g\n",
                    geomeanOfMedians(direct.mips), missP50.value);
        std::printf("%-24s %7s %12s %12s\n", "span", "count", "total_ms",
                    "self_ms");
        for (const SelfTime &st : selfTimes(spans.records()))
            std::printf("%-24s %7zu %12.3f %12.3f\n", st.name.c_str(),
                        st.count, st.totalMs, st.selfMs);
        if (!opt.traceOut.empty()) {
            std::ofstream f(opt.traceOut);
            f << spans.chromeTrace();
            if (!f)
                checks.op(false, "writing " + opt.traceOut);
            else
                std::printf("trace: %s\n", opt.traceOut.c_str());
        }
    }

    HostContext host = hostContext();
    std::printf("context: workload=%s seed=%llu seconds=%.0f trace=%d "
                "nproc=%u threads=%u cpu=\"%s\" compiler=\"%s\" "
                "build=%s wall_s=%.2f\n",
                spec.name, static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, host.nproc,
                kClients + kWorkers, host.cpuModel.c_str(),
                host.compiler.c_str(), host.buildType.c_str(), wallS);
    if (host.nproc < kClients + kWorkers)
        std::printf("context: warning: %u threads on %u CPUs\n",
                    kClients + kWorkers, host.nproc);
    const std::vector<double> &speeds = hostSpeed.samples();
    std::printf("context: host speed (reference loop, 1 = quiet host) "
                "median=%.3f p10=%.3f p90=%.3f n=%zu; host times below "
                "are quiet-host times\n",
                median(speeds), percentile(speeds, 0.1).value,
                percentile(speeds, 0.9).value, speeds.size());
    for (const Metric &m : metrics)
        std::printf("%-30s %16.6g %-7s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    // Shown but bounded nowhere.  The hit tail is idle-CPU wake-up
    // latency on the host; it varied by half its median between runs.
    // The memory high-water mark after serving: see peakRss above.
    if (!opt.trace) {
        const Metric unbounded[] = {
            {"serve_hit_p90_ms", hitP90.value, "ms", countNote(hitP90)},
            {"served_peak_rss_mb", servedPeakRss, "MiB", "after serving"},
        };
        for (const Metric &m : unbounded)
            std::printf("%-30s %16.6g %-7s %s (not a bounded metric)\n",
                        m.name.c_str(), m.value, m.unit.c_str(),
                        m.note.c_str());
    }

    for (const Metric &m : metrics)
        checks.op(std::isfinite(m.value), m.name + " is not a finite number");
    bool correct = checks.failed() == 0;
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(checks.attempted());
    line += ", \"failed\": " + std::to_string(checks.failed());
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        line += (i ? ", " : "") + json::quote(metrics[i].name) +
                ": {\"value\": " + jsonNumber(metrics[i].value) +
                ", \"unit\": " + json::quote(metrics[i].unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}
