#include "core/streams.hh"

#include <algorithm>

#include "serve/json.hh"
#include "support/rng.hh"
#include "workloads/generator.hh"

namespace perfbench
{

namespace
{

/** Seed salts, so the streams drawn from one workload seed are
 *  independent of each other. */
constexpr std::uint64_t kOrderSalt = 0x6f72646572ULL;
constexpr std::uint64_t kPlanSalt = 0x706c616eULL;
constexpr std::uint64_t kDataSalt = 0x64617461ULL;
constexpr std::uint64_t kKernelSalt = 0x6b65726eULL;

} // namespace

std::uint64_t
dataSeedBase(std::uint64_t seed)
{
    return (adore::Rng(seed ^ kDataSalt).next() >> 13) + 1;
}

std::vector<std::size_t>
shuffledOrder(std::uint64_t seed, std::size_t n)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    adore::Rng rng(seed ^ kOrderSalt);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

std::vector<std::vector<PlannedJob>>
planClients(std::uint64_t seed, unsigned clients, unsigned freshPerClient,
            unsigned repeatsPerClient)
{
    std::vector<std::vector<PlannedJob>> plans(clients);
    if (freshPerClient == 0)
        return plans;
    for (unsigned c = 0; c < clients; ++c) {
        adore::Rng rng((seed ^ kPlanSalt) + c);
        // Which slots are repeats: a shuffle of exact counts, then the
        // first slot forced fresh (a repeat needs something to repeat).
        std::vector<char> isRepeat(freshPerClient + repeatsPerClient, 0);
        std::fill_n(isRepeat.begin(), repeatsPerClient, 1);
        for (std::size_t i = isRepeat.size(); i > 1; --i)
            std::swap(isRepeat[i - 1], isRepeat[rng.below(i)]);
        if (isRepeat[0])
            std::swap(isRepeat[0],
                      *std::find(isRepeat.begin(), isRepeat.end(), 0));

        std::size_t base = std::size_t{c} * freshPerClient;
        std::size_t sent = 0;  // fresh requests sent so far
        for (char repeat : isRepeat) {
            PlannedJob job;
            job.repeat = repeat != 0;
            job.fresh = repeat ? base + rng.below(sent) : base + sent++;
            plans[c].push_back(job);
        }
    }
    return plans;
}

adore::serve::JobRequest
programRequest(const std::vector<std::string> &programs, bool adore,
               std::uint64_t seed, std::size_t i)
{
    adore::serve::JobRequest req;
    req.workload = programs[i % programs.size()];
    req.adore = adore;
    req.dataSeed = dataSeedBase(seed) + i;
    return req;
}

adore::serve::JobRequest
kernelRequest(std::uint64_t seed, std::size_t i)
{
    adore::workloads::GeneratorConfig gen;
    gen.seed = adore::Rng(seed ^ kKernelSalt).next() + i;
    adore::serve::JobRequest req;
    req.kernel =
        adore::workloads::renderProgram(adore::workloads::generate(gen));
    req.adore = i % 2 == 1;
    req.dataSeed = dataSeedBase(seed) + i;
    return req;
}

std::string
submitLine(const adore::serve::JobRequest &req)
{
    using adore::serve::json::Value;
    Value v = Value::makeObject();
    v.add("op", Value::makeString("submit"));
    if (!req.workload.empty())
        v.add("workload", Value::makeString(req.workload));
    else
        v.add("kernel", Value::makeString(req.kernel));
    v.add("opt", Value::makeString(req.opt));
    v.add("adore", Value::makeBool(req.adore));
    v.add("seed", Value::makeNumber(static_cast<double>(req.dataSeed)));
    if (req.maxCycles)
        v.add("max_cycles",
              Value::makeNumber(static_cast<double>(req.maxCycles)));
    return v.render();
}

} // namespace perfbench
