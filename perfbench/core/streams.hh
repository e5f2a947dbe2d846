/**
 * @file
 * Seeded inputs of the benchmark: the order units run in, and the
 * closed-loop request stream each serving client sends.
 *
 * Everything here is a pure function of the workload seed, so a run
 * can be replayed from (workload, seed) alone and the hit/miss counts
 * of a stream are the same on every run.
 */

#ifndef PERFBENCH_CORE_STREAMS_HH
#define PERFBENCH_CORE_STREAMS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hh"

namespace perfbench
{

/**
 * The data seed derived from a workload seed.  The protocol carries a
 * data seed as a JSON number, so it stays below 2^52 (base + index
 * included) to survive the trip through a double.
 */
std::uint64_t dataSeedBase(std::uint64_t seed);

/** A seeded permutation of 0..n-1. */
std::vector<std::size_t> shuffledOrder(std::uint64_t seed, std::size_t n);

/** One job of a client's closed-loop sequence. */
struct PlannedJob
{
    /** Resend a request this client already saw complete (a cache
     *  hit); otherwise send a request no client has sent before. */
    bool repeat = false;
    /** Index of the fresh request sent or resent. */
    std::size_t fresh = 0;
};

/**
 * Per-client job sequences.  Client c sends the fresh requests
 * c*freshPerClient .. (c+1)*freshPerClient-1 in order, with
 * @p repeatsPerClient repeats interleaved at seed-chosen positions.  A
 * client's first job is fresh, and each repeat names one of that
 * client's own earlier fresh requests — one it has already waited
 * for, so the repeat is served from the result cache.
 */
std::vector<std::vector<PlannedJob>>
planClients(std::uint64_t seed, unsigned clients, unsigned freshPerClient,
            unsigned repeatsPerClient);

/**
 * The i-th fresh request naming a registry program: programs[i % n]
 * under the daemon's default cycle budget, with data seed
 * dataSeedBase(seed) + i, so every fresh request has its own cache key.
 */
adore::serve::JobRequest
programRequest(const std::vector<std::string> &programs, bool adore,
               std::uint64_t seed, std::size_t i);

/**
 * The i-th fresh request carrying a generated kernel: the text of
 * workloads::generate() for a seed derived from (@p seed, i), ADORE on
 * every odd index, the daemon's default cycle budget, and data seed
 * dataSeedBase(seed) + i.
 */
adore::serve::JobRequest kernelRequest(std::uint64_t seed, std::size_t i);

/** The protocol "submit" line for @p req. */
std::string submitLine(const adore::serve::JobRequest &req);

} // namespace perfbench

#endif // PERFBENCH_CORE_STREAMS_HH
