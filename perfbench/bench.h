/**
 * @file
 * Shared plumbing of the repository benchmark (morphling_perfbench):
 * the named-metric sink, the in-memory span recorder and small
 * statistics helpers. The workloads live in serving.cc, the
 * cycle-model metrics in cycle_model.cc and the traced per-layer
 * replay in layers.cc. README.md documents every
 * workload and metric.
 */

#ifndef MORPHLING_PERFBENCH_BENCH_H
#define MORPHLING_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Ordered name -> (value, unit) map; one per result line. */
class Metrics
{
  public:
    struct Entry
    {
        std::string name;
        double value = 0;
        std::string unit;
    };

    /** Set (or overwrite) one metric. */
    void set(const std::string &name, double value,
             const std::string &unit);

    /** True when `name` has been set. */
    bool has(const std::string &name) const;

    double get(const std::string &name) const;

    const std::vector<Entry> &entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
};

/** Outcome counts of one workload pass; every output is verified. */
struct Verdict
{
    std::uint64_t sent = 0;      //!< operations attempted
    std::uint64_t succeeded = 0; //!< completed and verified correct
    std::uint64_t failed = 0;    //!< threw, refused or never completed
    std::uint64_t wrong = 0;     //!< completed with a wrong result

    void merge(const Verdict &other);
    /** Failed or wrong operations; a wrong output is a failure. */
    std::uint64_t bad() const { return failed + wrong; }
};

/**
 * In-memory span recorder: name, start, end, parent and request id per
 * span, written out as Chrome-trace JSON when the run ends. Thread
 * safe; a null recorder pointer means "not tracing" everywhere.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::int64_t id = 0;
        std::int64_t parent = -1;    //!< -1: root
        std::int64_t request = -1;   //!< -1: not a request span
        std::uint64_t thread = 0;
    };

    SpanRecorder();

    /** Nanoseconds since the recorder was created. */
    std::int64_t now() const { return toNs(Clock::now()); }

    /** `t` as nanoseconds since the recorder was created. */
    std::int64_t toNs(Clock::time_point t) const;

    /** Reserve a span id (for parents recorded after their children). */
    std::int64_t newId();

    /** Record a finished span under a reserved or fresh id. */
    std::int64_t add(const std::string &name, std::int64_t start_ns,
                     std::int64_t end_ns, std::int64_t parent = -1,
                     std::int64_t request = -1, std::int64_t id = -1);

    std::vector<Span> snapshot() const;

    /** Write every span as a Chrome trace-event JSON file. */
    bool writeChromeTrace(const std::string &path) const;

    /**
     * Print, per span name: calls, total and self time (span minus the
     * part its children cover). For names whose spans have children,
     * the self time is the parent's unattributed remainder.
     */
    void printSelfTimes(std::ostream &os) const;

  private:
    const Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::int64_t nextId_ = 0;
};

/**
 * RAII span: records [construction, destruction) under `parent`. With a
 * null recorder it does nothing, so call sites need no branches.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, std::string name,
               std::int64_t parent = -1, std::int64_t request = -1);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's id (parent for nested spans); -1 when not tracing. */
    std::int64_t id() const { return id_; }

  private:
    SpanRecorder *rec_;
    std::string name_;
    std::int64_t parent_;
    std::int64_t request_;
    std::int64_t id_ = -1;
    std::int64_t start_ = 0;
};

/** q-quantile (q in [0, 1]) by linear interpolation; 0 when empty. */
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

/** Milliseconds elapsed since `t0`. */
double msSince(Clock::time_point t0);

/** Heap bytes this process holds live (malloc'ed, not freed), in MiB. */
double heapInUseMb();

/** Worker threads the benchmark may use: the host's core count. */
unsigned hostThreads();

} // namespace perfbench

#endif // MORPHLING_PERFBENCH_BENCH_H
