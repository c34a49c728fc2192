#pragma once

/**
 * @file
 * Library-free helpers of the repository benchmark: percentiles with
 * the ten-samples-beyond rule, the in-memory span tracer and its
 * self-time arithmetic, the machine-digest fold, the seeded Poisson
 * schedule and low-discrepancy draws, and metric bookkeeping.
 * Header-only and independent of the syscomm library so
 * tests/selftest.cpp can cover every one of them without building the
 * simulator.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point from)
{
    return std::chrono::duration<double>(Clock::now() - from).count();
}

// ---------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------

/** Fewest samples that must lie beyond a tail percentile to report it. */
inline constexpr std::size_t kMinBeyond = 10;

/** A percentile together with the evidence behind it. */
struct Percentile
{
    double value = 0.0;
    /** Samples the percentile was taken over. */
    std::size_t samples = 0;
    /** Samples strictly above the percentile's rank. */
    std::size_t beyond = 0;
    /**
     * False when fewer than kMinBeyond samples lie beyond the rank:
     * the percentile is not resolved by the data, and value is the
     * sample maximum instead — an upper bound on it.
     */
    bool resolved = false;
};

/** Median (mean of the middle two for even counts); 0 when empty. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * Nearest-rank @p q quantile (0 < q < 1) under the reporting rule:
 * resolved only when at least kMinBeyond samples lie beyond the rank,
 * otherwise the sample maximum. The median goes through median()
 * instead — this is for tails.
 */
inline Percentile
tailPercentile(std::vector<double> values, double q)
{
    Percentile p;
    p.samples = values.size();
    if (values.empty())
        return p;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    p.beyond = n - rank;
    p.resolved = p.beyond >= kMinBeyond;
    p.value = p.resolved ? values[rank - 1] : values.back();
    return p;
}

// ---------------------------------------------------------------------
// Digest fold
// ---------------------------------------------------------------------

/**
 * FNV-1a over per-row machine digests (little-endian bytes, in grid
 * order): the one integer a sweep's golden is pinned to. Order
 * matters — a row landing in the wrong grid cell changes the fold.
 */
inline std::uint64_t
foldDigests(const std::vector<std::uint64_t>& digests)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t d : digests) {
        for (int b = 0; b < 8; ++b) {
            h ^= (d >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

// ---------------------------------------------------------------------
// Seeded generators
// ---------------------------------------------------------------------

/** splitmix64 stream: the benchmark's only source of randomness. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    /** Uniform in (0, 1]. */
    double unit()
    {
        return static_cast<double>((next() >> 11) + 1) * 0x1.0p-53;
    }

  private:
    std::uint64_t state_;
};

/**
 * Low-discrepancy stream frac(start + k * step): any prefix covers
 * [0, 1) almost evenly, so a run's draws match their distribution far
 * more closely than independent ones would, whatever the start.
 */
class Weyl
{
  public:
    /** @p step is irrational; two streams with different steps are
     *  uncorrelated. */
    explicit Weyl(double start, double step = 0.6180339887498949)
        : x_(start - std::floor(start)), step_(step)
    {
    }

    /** Next point in [0, 1). */
    double next()
    {
        double v = x_;
        x_ += step_;
        if (x_ >= 1.0)
            x_ -= 1.0;
        return v;
    }
    /** Next integer in [lo, hi]. */
    int range(int lo, int hi)
    {
        return lo + std::min(hi - lo, static_cast<int>(next() * (hi - lo + 1)));
    }

  private:
    double x_;
    double step_;
};

/** One open-loop arrival: when it is due and which traffic class. */
struct Arrival
{
    /** Seconds after the schedule starts. */
    double due = 0.0;
    /** Index into the class mix. */
    int cls = 0;
};

/**
 * A Poisson arrival schedule at @p rate per second over [0, @p
 * duration), conditioned on its count: round(rate x duration) arrival
 * times drawn uniformly and sorted — the distribution of a Poisson
 * process given how many arrivals it had. Classes follow @p mix
 * (weights, normalized here) through a Weyl stream in arrival order,
 * so every schedule carries the mix to within one arrival. Fully
 * determined by @p seed.
 */
inline std::vector<Arrival>
poissonSchedule(std::uint64_t seed, double rate, double duration,
                const std::vector<double>& mix)
{
    double total = 0.0;
    for (double w : mix)
        total += w;
    Rng rng(seed);
    std::vector<Arrival> out(
        static_cast<std::size_t>(std::llround(rate * duration)));
    for (Arrival& a : out)
        a.due = duration * (1.0 - rng.unit());
    std::sort(out.begin(), out.end(),
              [](const Arrival& x, const Arrival& y) { return x.due < y.due; });
    Weyl pick(rng.unit());
    for (Arrival& a : out) {
        double u = pick.next() * total;
        a.cls = 0;
        while (a.cls + 1 < static_cast<int>(mix.size()) && u >= mix[a.cls]) {
            u -= mix[a.cls];
            ++a.cls;
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------

/** One traced call into a layer. Times are steady-clock nanoseconds. */
struct Span
{
    std::uint32_t id = 0;
    /** Enclosing span on the same thread; 0 = a root. */
    std::uint32_t parent = 0;
    std::string name;
    /** Submission/row the span belongs to (0 = none). */
    std::uint64_t request = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
};

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/**
 * In-memory span recorder, written out once at exit. Disabled (the
 * untraced run) every call is a branch and nothing more. Parents are
 * tracked per thread, so spans opened on sender, poller and replay
 * threads nest independently.
 */
class Tracer
{
  public:
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span under the calling thread's innermost open span. */
    std::uint32_t begin(const char* name, std::uint64_t request = 0)
    {
        if (!enabled_)
            return 0;
        std::vector<std::uint32_t>& stack = threadStack();
        Span span;
        span.name = name;
        span.request = request;
        span.parent = stack.empty() ? 0 : stack.back();
        span.start = nowNs();
        std::lock_guard<std::mutex> lock(mutex_);
        span.id = static_cast<std::uint32_t>(spans_.size() + 1);
        spans_.push_back(std::move(span));
        stack.push_back(spans_.back().id);
        return spans_.back().id;
    }

    /**
     * Add a finished span with explicit times and parent: intervals
     * reconstructed from observed timestamps (a submission's due ->
     * terminal life, its poll-observed queue wait), whose children
     * may come from several threads.
     */
    std::uint32_t record(const char* name, std::uint32_t parent,
                         std::uint64_t request, std::int64_t start,
                         std::int64_t end)
    {
        if (!enabled_)
            return 0;
        std::lock_guard<std::mutex> lock(mutex_);
        auto id = static_cast<std::uint32_t>(spans_.size() + 1);
        spans_.push_back({id, parent, name, request, start, end});
        return id;
    }

    void end(std::uint32_t id)
    {
        if (id == 0)
            return;
        std::int64_t t = nowNs();
        std::vector<std::uint32_t>& stack = threadStack();
        if (!stack.empty() && stack.back() == id)
            stack.pop_back();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[id - 1].end = t;
    }

    std::vector<Span> spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

    /** One JSON object per span per line; false on an IO failure. */
    bool writeJsonl(const std::string& path) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        for (const Span& s : spans()) {
            std::fprintf(f,
                         "{\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                         "\"request\":%llu,\"start_ns\":%lld,"
                         "\"end_ns\":%lld}\n",
                         s.id, s.parent, s.name.c_str(),
                         static_cast<unsigned long long>(s.request),
                         static_cast<long long>(s.start),
                         static_cast<long long>(s.end));
        }
        return std::fclose(f) == 0;
    }

  private:
    static std::vector<std::uint32_t>& threadStack()
    {
        thread_local std::vector<std::uint32_t> stack;
        return stack;
    }

    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span; a no-op when the tracer is disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request = 0)
        : tracer_(tracer), id_(tracer.begin(name, request))
    {
    }
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer& tracer_;
    std::uint32_t id_;
};

/**
 * Self time of every span (same order as @p spans): its duration
 * minus the union of its direct children's intervals clipped to it.
 * Children recorded from different threads may overlap; time covered
 * by several of them is subtracted once.
 */
inline std::vector<std::int64_t>
selfTimes(const std::vector<Span>& spans)
{
    std::map<std::uint32_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span& s : spans) {
        auto it = index.find(s.parent);
        if (s.parent == 0 || it == index.end())
            continue;
        const Span& p = spans[it->second];
        std::int64_t a = std::max(s.start, p.start);
        std::int64_t b = std::min(s.end, p.end);
        if (b > a)
            kids[it->second].push_back({a, b});
    }
    std::vector<std::int64_t> out(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::vector<std::pair<std::int64_t, std::int64_t>>& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t curA = 0, curB = 0;
        bool open = false;
        for (const auto& [a, b] : iv) {
            if (open && a <= curB) {
                curB = std::max(curB, b);
                continue;
            }
            if (open)
                covered += curB - curA;
            curA = a;
            curB = b;
            open = true;
        }
        if (open)
            covered += curB - curA;
        out[i] = (spans[i].end - spans[i].start) - covered;
    }
    return out;
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Printed beside the value: sample counts, resolution, caveats. */
    std::string note;
};

/** What one workload run produced. */
struct RunReport
{
    std::vector<Metric> metrics;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    /** One line per failure, printed to stderr. */
    std::vector<std::string> errors;

    void add(std::string name, double value, std::string unit,
             std::string note = "")
    {
        metrics.push_back(
            {std::move(name), value, std::move(unit), std::move(note)});
    }
    void fail(std::string why)
    {
        ++failed;
        errors.push_back(std::move(why));
    }
};

} // namespace perfbench
