#include <malloc.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "bench.h"

namespace perfbench {

void
Metrics::set(const std::string &name, double value, const std::string &unit)
{
    for (auto &e : entries_) {
        if (e.name == name) {
            e.value = value;
            e.unit = unit;
            return;
        }
    }
    entries_.push_back(Entry{name, value, unit});
}

bool
Metrics::has(const std::string &name) const
{
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const Entry &e) { return e.name == name; });
}

double
Metrics::get(const std::string &name) const
{
    for (const auto &e : entries_) {
        if (e.name == name)
            return e.value;
    }
    throw std::out_of_range("no metric " + name);
}

void
Verdict::merge(const Verdict &other)
{
    sent += other.sent;
    succeeded += other.succeeded;
    failed += other.failed;
    wrong += other.wrong;
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

std::int64_t
SpanRecorder::toNs(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
}

std::int64_t
SpanRecorder::newId()
{
    std::lock_guard<std::mutex> lk(mu_);
    return nextId_++;
}

std::int64_t
SpanRecorder::add(const std::string &name, std::int64_t start_ns,
                  std::int64_t end_ns, std::int64_t parent,
                  std::int64_t request, std::int64_t id)
{
    const auto thread =
        static_cast<std::uint64_t>(
            std::hash<std::thread::id>{}(std::this_thread::get_id())) %
        100000;
    std::lock_guard<std::mutex> lk(mu_);
    if (id < 0)
        id = nextId_++;
    spans_.push_back(Span{name, start_ns, end_ns, id, parent, request, thread});
    return id;
}

std::vector<SpanRecorder::Span>
SpanRecorder::snapshot() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\": [";
    const auto spans = snapshot();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << jsonEscape(s.name)
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
           << ", \"ts\": " << static_cast<double>(s.startNs) / 1e3
           << ", \"dur\": " << static_cast<double>(s.endNs - s.startNs) / 1e3
           << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
           << ", \"request\": " << s.request << "}}";
    }
    os << "\n], \"displayTimeUnit\": \"ms\"}\n";
    return static_cast<bool>(os);
}

void
SpanRecorder::printSelfTimes(std::ostream &os) const
{
    const auto spans = snapshot();
    // Child time per parent id, clipped to the parent's interval.
    std::map<std::int64_t, const Span *> byId;
    for (const auto &s : spans)
        byId[s.id] = &s;
    std::map<std::int64_t, std::int64_t> childNs;
    for (const auto &s : spans) {
        const auto it = byId.find(s.parent);
        if (it == byId.end())
            continue;
        const Span &p = *it->second;
        const std::int64_t lo = std::max(s.startNs, p.startNs);
        const std::int64_t hi = std::min(s.endNs, p.endNs);
        if (hi > lo)
            childNs[p.id] += hi - lo;
    }
    struct Row
    {
        std::uint64_t calls = 0;
        double totalMs = 0, selfMs = 0;
        bool parent = false;
    };
    std::map<std::string, Row> rows;
    for (const auto &s : spans) {
        Row &r = rows[s.name];
        const double total = static_cast<double>(s.endNs - s.startNs) / 1e6;
        const auto c = childNs.find(s.id);
        const double child =
            c == childNs.end() ? 0.0 : static_cast<double>(c->second) / 1e6;
        ++r.calls;
        r.totalMs += total;
        r.selfMs += std::max(0.0, total - child);
        r.parent = r.parent || c != childNs.end();
    }
    os << "  span self times (self = span minus the part its children "
          "cover; for a parent, self is its unattributed remainder)\n";
    os << "    " << std::left << std::setw(34) << "span" << std::right
       << std::setw(9) << "calls" << std::setw(14) << "total ms"
       << std::setw(14) << "self ms" << std::setw(14) << "self/call ms"
       << "\n";
    os << std::fixed << std::setprecision(3);
    for (const auto &[name, r] : rows) {
        os << "    " << std::left << std::setw(34)
           << (r.parent ? name + " [unattributed]" : name) << std::right
           << std::setw(9) << r.calls << std::setw(14) << r.totalMs
           << std::setw(14) << r.selfMs << std::setw(14)
           << r.selfMs / static_cast<double>(r.calls) << "\n";
    }
    os.unsetf(std::ios::fixed);
    os.precision(6);
}

ScopedSpan::ScopedSpan(SpanRecorder *rec, std::string name,
                       std::int64_t parent, std::int64_t request)
    : rec_(rec), name_(std::move(name)), parent_(parent), request_(request)
{
    if (rec_) {
        id_ = rec_->newId();
        start_ = rec_->now();
    }
}

ScopedSpan::~ScopedSpan()
{
    if (rec_)
        rec_->add(name_, start_, rec_->now(), parent_, request_, id_);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = std::clamp(q, 0.0, 1.0) *
                       static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
heapInUseMb()
{
    // mallinfo2 sums every arena plus the mmap'ed blocks: bytes the
    // process holds live, independent of what the allocator keeps cached.
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

unsigned
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace perfbench
