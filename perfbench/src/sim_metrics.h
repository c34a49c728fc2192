#pragma once

/**
 * @file
 * The sim.stats.* per-layer metrics: exact model counts summed over
 * every row a workload ran. A change to the simulator's speed must
 * leave all of them identical.
 */

#include <cstdint>

#include "sim/session.h"
#include "util.h"

namespace perfbench {

struct StatsSum
{
    std::int64_t cycles = 0;
    std::int64_t ops = 0;
    std::int64_t forwarded = 0;
    std::int64_t assignments = 0;
    std::int64_t requestWait = 0;
    std::int64_t blocked = 0;

    void add(const syscomm::sim::RunResult& r)
    {
        cycles += r.cycles;
        ops += r.stats.opsExecuted;
        forwarded += r.stats.wordsForwarded;
        assignments += r.stats.assignments;
        requestWait += r.stats.requestWaitCycles;
        blocked += r.stats.cellBlockedCycles;
    }

    /** Events a kernel handles: ops + forwarded words + assignments. */
    std::int64_t events() const { return ops + forwarded + assignments; }

    void report(RunReport& out) const
    {
        auto count = [&](const char* name, std::int64_t v) {
            out.add(name, static_cast<double>(v), "count");
        };
        count("sim.stats.cycles", cycles);
        count("sim.stats.ops_executed", ops);
        count("sim.stats.words_forwarded", forwarded);
        count("sim.stats.assignments", assignments);
        count("sim.stats.request_wait_cycles", requestWait);
        count("sim.stats.cell_blocked_cycles", blocked);
    }
};

/** "n=<count> <what>": the sample-count note beside a metric. */
inline std::string
samplesNote(std::size_t n, const char* what)
{
    return "n=" + std::to_string(n) + " " + what;
}

} // namespace perfbench
