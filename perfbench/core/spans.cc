#include "core/spans.hh"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>
#include <utility>

namespace perfbench
{

std::int64_t
Spans::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

unsigned
Spans::threadNumberLocked()
{
    std::size_t id = std::hash<std::thread::id>()(std::this_thread::get_id());
    auto it = std::find(threadIds_.begin(), threadIds_.end(), id);
    if (it != threadIds_.end())
        return static_cast<unsigned>(it - threadIds_.begin());
    threadIds_.push_back(id);
    return static_cast<unsigned>(threadIds_.size() - 1);
}

long
Spans::begin(const char *name, std::uint64_t group, long parent)
{
    if (!enabled_)
        return -1;
    Record r;
    r.name = name;
    r.group = group;
    r.parent = parent;
    r.startNs = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    r.thread = threadNumberLocked();
    records_.push_back(r);
    return static_cast<long>(records_.size() - 1);
}

void
Spans::end(long index)
{
    if (index < 0)
        return;
    std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    records_[static_cast<std::size_t>(index)].endNs = t;
}

std::vector<Spans::Record>
Spans::records() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
}

std::size_t
Spans::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

std::string
Spans::chromeTrace() const
{
    std::vector<Record> recs = records();
    std::string out = "{\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const Record &r = recs[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"span\":%zu,\"group\":%llu,"
                      "\"parent\":%ld}}",
                      i ? "," : "", r.name, r.thread,
                      static_cast<double>(r.startNs) / 1e3,
                      static_cast<double>(r.endNs - r.startNs) / 1e3, i,
                      static_cast<unsigned long long>(r.group), r.parent);
        out += buf;
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

std::vector<SelfTime>
selfTimes(const std::vector<Spans::Record> &records)
{
    // Children's intervals per parent, clipped to the parent.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(records.size());
    for (const Spans::Record &r : records) {
        if (r.parent < 0 ||
            static_cast<std::size_t>(r.parent) >= records.size())
            continue;
        const Spans::Record &p = records[static_cast<std::size_t>(r.parent)];
        std::int64_t lo = std::max(r.startNs, p.startNs);
        std::int64_t hi = std::min(r.endNs, p.endNs);
        if (hi > lo)
            children[static_cast<std::size_t>(r.parent)].push_back({lo, hi});
    }

    std::map<std::string, SelfTime> byName;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Spans::Record &r = records[i];
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, curLo = 0, curHi = 0;
        bool open = false;
        for (const auto &[lo, hi] : iv) {
            if (open && lo <= curHi) {
                curHi = std::max(curHi, hi);
                continue;
            }
            if (open)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
            open = true;
        }
        if (open)
            covered += curHi - curLo;

        SelfTime &s = byName[r.name];
        s.name = r.name;
        ++s.count;
        s.totalMs += static_cast<double>(r.endNs - r.startNs) / 1e6;
        s.selfMs += static_cast<double>(r.endNs - r.startNs - covered) / 1e6;
    }

    std::vector<SelfTime> out;
    for (auto &[name, s] : byName)
        out.push_back(s);
    std::sort(out.begin(), out.end(),
              [](const SelfTime &a, const SelfTime &b) {
                  return a.selfMs > b.selfMs;
              });
    return out;
}

} // namespace perfbench
