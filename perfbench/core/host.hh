/**
 * @file
 * Host fingerprint recorded with every result, so figures from
 * different machines or builds are never compared unknowingly.
 */

#ifndef PERFBENCH_CORE_HOST_HH
#define PERFBENCH_CORE_HOST_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct HostContext
{
    unsigned nproc = 0;  ///< CPUs this process may run on
    std::string cpuModel;
    std::string compiler;
    std::string buildType;
};

HostContext hostContext();

/** Process high-water resident set (ru_maxrss) in MiB. */
double peakRssMb();

/** Kernel ids of this process's threads, from /proc/self/task. */
std::vector<int> processThreads();

/**
 * Moves the calling thread around the CPUs it may run on.  On a shared
 * host each CPU's speed drifts on its own over seconds (neighbours on
 * its core), and the scheduler keeps a thread on one CPU, so a run
 * would see one CPU's drift.  Pinning successive units (and serving
 * slices) to successive CPUs spreads every run's samples over all of
 * them.
 */
class CpuRotation
{
  public:
    /** Records the calling thread's allowed CPUs. */
    CpuRotation();

    /** Number of allowed CPUs. */
    unsigned cpus() const { return static_cast<unsigned>(cpus_.size()); }

    /**
     * Restrict thread @p tid (0: the calling thread) to allowed CPUs k
     * and k+1 (mod the count): two, so a unit's ADORE optimizer
     * thread, which inherits the mask, can run beside it.
     */
    void pin(std::size_t k, int tid = 0) const;

    /** Give the calling thread back every allowed CPU. */
    void release() const;

  private:
    std::vector<int> cpus_;
};

/**
 * The host's current speed, measured by a fixed reference loop.
 *
 * On a shared host the simulator's speed drifts by up to 2x over
 * minutes as neighbours load the machine, so raw host times of runs a
 * few minutes apart cannot be compared.  The reference loop is built
 * to be hurt by the same neighbours: an interpreter-style switch
 * dispatch over 64 KiB of seeded bytecode with data-dependent branches
 * and loads and stores into a 1 MiB table, like the simulator's
 * decode/execute loop and its cache and memory model.  Over one run on
 * a host drifting from full to half speed its time per step tracked
 * the simulator's (correlation 0.94 over 10-second bins); a
 * register-only loop did not.  Its code and data are the benchmark's
 * own, so a change to the simulator never changes its speed.
 *
 * The simulator suffers more than the loop: across 30-second runs
 * whose median loop speed ranged over 0.66-1.05, the simulator's speed
 * went as about the 1.5th to 2nd power of the loop's, and scaling by
 * the 1.5th power left the least spread (see perfbench/README.md), so
 * quietTime() scales by that power.
 *
 * Not thread-safe: the loop writes its table.  Use one instance per
 * thread.
 */
class HostSpeed
{
  public:
    /** Time per loop step on a quiet host: about its time per step
     *  when the 4-vCPU VM the benchmark was written on was quiet. */
    static constexpr double kReferenceStepNs = 12.0;
    /** Log-log slope of the simulator's speed against the loop's. */
    static constexpr double kSensitivity = 1.5;

    HostSpeed();

    /**
     * Run the loop on the calling thread (about 4 ms on a quiet host)
     * and return kReferenceStepNs / the measured time per step: about
     * 1 on a quiet host, 0.5 while it runs at half speed.  Every
     * result is also kept in samples().
     */
    double measure();

    /** Every measure() result so far, in order. */
    const std::vector<double> &samples() const { return samples_; }

    /** The time a quiet host would have taken for work that took
     *  @p hostTime while the loop measured @p speed around it. */
    static double
    quietTime(double hostTime, double speed)
    {
        return hostTime * std::pow(speed, kSensitivity);
    }

    /** Steps per measure(). */
    std::size_t steps() const { return kRounds * code_.size(); }

  private:
    static constexpr unsigned kRounds = 4;
    std::vector<std::uint8_t> code_;
    std::vector<std::uint64_t> table_;
    std::vector<double> samples_;
    std::uint64_t sink_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_CORE_HOST_HH
