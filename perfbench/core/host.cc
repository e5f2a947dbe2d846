#include "core/host.hh"

#include <chrono>
#include <cstdlib>
#include <fstream>

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

HostContext
hostContext()
{
    HostContext ctx;
    ctx.nproc = CpuRotation().cpus();
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                ctx.cpuModel = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    if (ctx.cpuModel.empty())
        ctx.cpuModel = "unknown";
#if defined(__clang__)
    ctx.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    ctx.compiler = "gcc " __VERSION__;
#else
    ctx.compiler = "unknown";
#endif
    ctx.buildType = PERFBENCH_BUILD_TYPE;
    return ctx;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<int>
processThreads()
{
    std::vector<int> tids;
    if (DIR *dir = opendir("/proc/self/task")) {
        while (const dirent *entry = readdir(dir))
            if (int tid = std::atoi(entry->d_name))
                tids.push_back(tid);
        closedir(dir);
    }
    return tids;
}

namespace
{

void
setAffinity(const std::vector<int> &cpus, int tid = 0)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus)
        CPU_SET(cpu, &set);
    // Best effort: a refused mask leaves the thread where it was, which
    // only loses the spreading, not correctness.
    sched_setaffinity(tid, sizeof(set), &set);
}

} // namespace

CpuRotation::CpuRotation()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                cpus_.push_back(cpu);
    }
}

void
CpuRotation::pin(std::size_t k, int tid) const
{
    if (cpus_.size() < 3)
        return;
    setAffinity({cpus_[k % cpus_.size()], cpus_[(k + 1) % cpus_.size()]},
                tid);
}

void
CpuRotation::release() const
{
    if (!cpus_.empty())
        setAffinity(cpus_);
}

HostSpeed::HostSpeed()
    : code_(std::size_t{1} << 16),   // 64 KiB of bytecode
      table_(std::size_t{1} << 17)  // 1 MiB of data
{
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    auto next = [&x] {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return x >> 33;
    };
    for (std::uint8_t &op : code_)
        op = static_cast<std::uint8_t>(next() % 8);
    for (std::uint64_t &word : table_)
        word = next();
}

double
HostSpeed::measure()
{
    const std::size_t mask = table_.size() - 1;
    std::uint64_t acc = sink_ | 1, idx = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned round = 0; round < kRounds; ++round) {
        for (std::size_t pc = 0; pc < code_.size(); ++pc) {
            switch (code_[pc]) {
            case 0: acc += table_[idx & mask]; break;
            case 1: acc ^= acc >> 7; break;
            case 2: idx = acc * 31 + pc; break;
            case 3: acc = (acc & 1) ? acc + 3 : acc - 5; break;
            case 4: table_[(idx + pc) & mask] ^= acc; break;
            case 5: acc *= 0x9E3779B97F4A7C15ull; break;
            case 6: idx += table_[(acc >> 11) & mask] & 1023; break;
            default: acc = (acc << 3) | (acc >> 61); break;
            }
        }
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    sink_ = acc;  // keeps the loop from being optimised away
    samples_.push_back(kReferenceStepNs * static_cast<double>(steps()) / ns);
    return samples_.back();
}

} // namespace perfbench
