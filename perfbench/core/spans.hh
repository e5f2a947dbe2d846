/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span wraps one call into a layer: its name, start, end, the span
 * that caused it, and a group id shared by every span of one unit or
 * job.  Spans stay in memory and are written out once, at exit, as
 * Chrome Trace Event JSON (load it in ui.perfetto.dev).  A disabled
 * recorder records nothing, so untraced runs pay one branch per span.
 */

#ifndef PERFBENCH_CORE_SPANS_HH
#define PERFBENCH_CORE_SPANS_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

class Spans
{
  public:
    struct Record
    {
        const char *name = "";  ///< a string literal
        std::uint64_t group = 0;
        long parent = -1;       ///< index of the causing span, or -1
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        unsigned thread = 0;    ///< small per-recorder thread number
    };

    explicit Spans(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span now.  @return its index, or -1 when disabled. */
    long begin(const char *name, std::uint64_t group, long parent);
    /** Close span @p index now (no-op for -1). */
    void end(long index);

    std::vector<Record> records() const;
    std::size_t size() const;

    /** Every span as a Chrome Trace Event "X" event. */
    std::string chromeTrace() const;

  private:
    using Clock = std::chrono::steady_clock;

    std::int64_t nowNs() const;
    unsigned threadNumberLocked();

    const bool enabled_;
    const Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Record> records_;
    std::vector<std::size_t> threadIds_;  ///< hashed ids, index = number
};

/** Scoped span: begin() on construction, end() on destruction. */
class Span
{
  public:
    Span(Spans &spans, const char *name, std::uint64_t group,
         long parent = -1)
        : spans_(spans), index_(spans.begin(name, group, parent))
    {
    }
    ~Span() { spans_.end(index_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    long index() const { return index_; }

  private:
    Spans &spans_;
    const long index_;
};

/** Total and self time of every span with one name. */
struct SelfTime
{
    std::string name;
    std::size_t count = 0;
    double totalMs = 0.0;
    /** Span time not covered by the span's own children. */
    double selfMs = 0.0;
};

/** Per-name totals, largest self time first. */
std::vector<SelfTime> selfTimes(const std::vector<Spans::Record> &records);

} // namespace perfbench

#endif // PERFBENCH_CORE_SPANS_HH
