/**
 * @file
 * Tests of the benchmark's own helpers (perfbench/src/util.h): the
 * percentile sample-count rule, span self time with overlapping
 * children, the digest fold, and Poisson schedule determinism.
 *
 *   cmake --build .bench_build --target perfbench_selftest
 *   ctest --test-dir .bench_build
 */

#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "util.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                       \
    do {                                                                  \
        if (!(cond)) {                                                    \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,   \
                         __LINE__, #cond);                                \
            ++failures;                                                   \
        }                                                                 \
    } while (0)

using namespace perfbench;

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

void
testPercentileRule()
{
    // 1000 samples: rank 990, exactly ten beyond -> resolved.
    Percentile p = tailPercentile(oneTo(1000), 0.99);
    CHECK(p.samples == 1000);
    CHECK(p.beyond == 10);
    CHECK(p.resolved);
    CHECK(p.value == 990.0);

    // 999 samples: only nine beyond -> unresolved, reported as the max.
    p = tailPercentile(oneTo(999), 0.99);
    CHECK(p.beyond == 9);
    CHECK(!p.resolved);
    CHECK(p.value == 999.0);

    // A median-level quantile of 20 samples has ten beyond.
    p = tailPercentile(oneTo(20), 0.5);
    CHECK(p.resolved && p.value == 10.0);

    CHECK(tailPercentile({}, 0.99).samples == 0);
    CHECK(median({}) == 0.0);
    CHECK(median({3, 1, 2}) == 2.0);
    CHECK(median({4, 1, 3, 2}) == 2.5);
}

void
testSelfTime()
{
    // parent [0,100]; children [10,40] and [30,60] overlap, [90,120]
    // sticks out of the parent; a grandchild must not count against
    // the parent, and an unrelated root is untouched.
    std::vector<Span> spans = {
        {1, 0, "parent", 7, 0, 100},  {2, 1, "a", 7, 10, 40},
        {3, 1, "b", 7, 30, 60},       {4, 1, "c", 7, 90, 120},
        {5, 2, "grandchild", 7, 15, 35}, {6, 0, "other", 8, 0, 50},
    };
    std::vector<std::int64_t> self = selfTimes(spans);
    CHECK(self[0] == 100 - 50 - 10); // union [10,60] + [90,100]
    CHECK(self[1] == 30 - 20);
    CHECK(self[2] == 30);
    CHECK(self[3] == 30);
    CHECK(self[4] == 20);
    CHECK(self[5] == 50);

    // Identical children count once; a child inside another adds
    // nothing.
    std::vector<Span> twins = {
        {1, 0, "p", 0, 0, 10}, {2, 1, "x", 0, 2, 6}, {3, 1, "y", 0, 2, 6}};
    CHECK(selfTimes(twins)[0] == 6);
    std::vector<Span> nested = {
        {1, 0, "p", 0, 0, 100}, {2, 1, "x", 0, 10, 60}, {3, 1, "y", 0, 20, 30}};
    CHECK(selfTimes(nested)[0] == 50);
}

void
testTracer()
{
    Tracer off;
    CHECK(off.begin("x") == 0);
    off.record("y", 0, 1, 0, 1);
    CHECK(off.spans().empty());

    Tracer t;
    t.setEnabled(true);
    std::uint32_t outer = t.begin("outer", 3);
    {
        ScopedSpan inner(t, "inner", 3);
    }
    std::uint32_t other = 0;
    std::thread([&] { other = t.begin("thread-root"); t.end(other); })
        .join();
    t.end(outer);
    std::vector<Span> s = t.spans();
    CHECK(s.size() == 3);
    CHECK(s[1].parent == outer);      // nested on this thread
    CHECK(s[2].parent == 0);          // other threads nest separately
    CHECK(s[0].end >= s[1].end);
    CHECK(s[1].request == 3);
}

void
testDigestFold()
{
    CHECK(foldDigests({}) == 0xcbf29ce484222325ULL);
    CHECK(foldDigests({0}) == 0xa8c7f832281a39c5ULL);
    CHECK(foldDigests({0x0123456789abcdefULL, 42}) == 0x4096061ceb07625fULL);
    CHECK(foldDigests({1, 2}) != foldDigests({2, 1})); // order matters
}

void
testPoissonSchedule()
{
    const std::vector<double> mix = {0.70, 0.15, 0.10, 0.05};
    std::vector<Arrival> a = poissonSchedule(11, 40.0, 500.0, mix);
    std::vector<Arrival> b = poissonSchedule(11, 40.0, 500.0, mix);
    std::vector<Arrival> c = poissonSchedule(12, 40.0, 500.0, mix);
    CHECK(a.size() == 20000);
    CHECK(a.size() == b.size() && a.size() == c.size());
    bool same = true, differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        same = same && a[i].due == b[i].due && a[i].cls == b[i].cls;
        differs = differs || a[i].due != c[i].due;
    }
    CHECK(same);
    CHECK(differs);

    // Ordered, inside the window, exponential gaps (mean 1/rate,
    // coefficient of variation 1), and the mix carried to within one
    // arrival per class.
    int count[4] = {};
    double prev = 0.0, sum = 0.0, sumSq = 0.0;
    bool ordered = true;
    for (const Arrival& x : a) {
        ordered = ordered && x.due >= prev && x.due < 500.0;
        double gap = x.due - prev;
        sum += gap;
        sumSq += gap * gap;
        prev = x.due;
        ++count[x.cls];
    }
    CHECK(ordered);
    const double n = static_cast<double>(a.size());
    const double mean = sum / n;
    const double cv = std::sqrt(sumSq / n - mean * mean) / mean;
    CHECK(std::fabs(mean * 40.0 - 1.0) < 0.02);
    CHECK(std::fabs(cv - 1.0) < 0.05);
    for (int k = 0; k < 4; ++k)
        CHECK(std::fabs(count[k] - n * mix[k]) <= 1.0);
}

void
testWeyl()
{
    // Any prefix is near-uniform: 1000 draws put 100 +- 2 in each tenth.
    Weyl w(0.37);
    int bins[10] = {};
    for (int i = 0; i < 1000; ++i)
        ++bins[static_cast<int>(w.next() * 10)];
    for (int b : bins)
        CHECK(b >= 98 && b <= 102);
    Weyl r(0.9);
    for (int i = 0; i < 100; ++i) {
        int v = r.range(3, 6);
        CHECK(v >= 3 && v <= 6);
    }
}

} // namespace

int
main()
{
    testPercentileRule();
    testSelfTime();
    testTracer();
    testDigestFold();
    testPoissonSchedule();
    testWeyl();
    if (failures == 0)
        std::printf("perfbench_selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
