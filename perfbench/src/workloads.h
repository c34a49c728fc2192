#pragma once

/**
 * @file
 * The benchmark's workloads and the metric names they report. The
 * name tables are the single source of the metric vocabulary:
 * BENCHMARK.json lists the same names, main() prints exactly these in
 * this order, and a workload that reports a name not listed here is a
 * bug caught before anything is printed.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

struct MetricName
{
    const char* name;
    const char* unit;
};

/** Untraced-run metrics, reported by every workload. */
inline const std::vector<MetricName> kEndToEnd = {
    {"setup_s", "s"},
    {"cell_cycles_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"cold_latency_p50_ms", "ms"},
    {"goodput_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

/**
 * Traced-run metrics, reported by every workload. A layer that is not
 * on a workload's path reports 0 there — the predicted-no-change
 * pairing of perfbench/README.md made literal.
 */
inline const std::vector<MetricName> kPerLayer = {
    {"text.parse_ms.p50", "ms"},
    {"text.parse_mb_per_s", "MB/s"},
    {"serve.protocol.json_parse_ms.p50", "ms"},
    {"serve.protocol.status_rtt_us.p50", "us"},
    {"serve.cache.hit_rate", "ratio"},
    {"serve.cache.misses", "count"},
    {"serve.cache.evictions", "count"},
    {"serve.cache.key_ms.p50", "ms"},
    {"core.analyze.ms.p50", "ms"},
    {"core.analyze.verdict.certified", "count"},
    {"core.analyze.verdict.unknown", "count"},
    {"core.analyze.verdict.deadlock", "count"},
    {"sim.compile.build_ms", "ms"},
    {"sim.compile.builds", "count"},
    {"serve.daemon.ack_ms.p50", "ms"},
    {"serve.daemon.ack_ms.p99", "ms"},
    {"serve.daemon.queue_wait_ms.p50", "ms"},
    {"serve.daemon.queue_wait_ms.p99", "ms"},
    {"serve.daemon.exec_ms.p50", "ms"},
    {"serve.daemon.result_ms.p50", "ms"},
    {"serve.daemon.rejected_lint", "count"},
    {"serve.daemon.rejected_queue_full", "count"},
    {"serve.daemon.generator_lag_ms.p99", "ms"},
    {"serve.io.spool_bytes_per_sub", "B"},
    {"sim.session.ctor_ms", "ms"},
    {"sim.session.run_ms.p50", "ms"},
    {"sim.session.run_ms.p99", "ms"},
    {"sim.session.ns_per_cell_cycle", "ns"},
    {"sim.session.ns_per_event", "ns"},
    {"sim.stats.cycles", "count"},
    {"sim.stats.ops_executed", "count"},
    {"sim.stats.words_forwarded", "count"},
    {"sim.stats.assignments", "count"},
    {"sim.stats.request_wait_cycles", "count"},
    {"sim.stats.cell_blocked_cycles", "count"},
    {"sim.shape_sweep.parallel_efficiency", "ratio"},
    {"sim.shape_sweep.journal_bytes", "B"},
    {"sim.shape_sweep.journal_overhead_s", "s"},
    {"latency.samples", "count"},
    {"trace.overhead_frac", "ratio"},
};

/** What every workload is handed. */
struct RunConfig
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Working directory for journals, the spool and the socket. */
    std::string workDir;
    Tracer* tracer = nullptr;
};

/** Workload names, in the order the benchmark documents them. */
inline const std::vector<std::string> kWorkloads = {
    "sweep_dense", "sweep_stream", "serve_mixed"};

/** sweep_dense / sweep_stream; false for any other name. */
bool runSweepWorkload(const std::string& name, const RunConfig& config,
                      RunReport& report);

/** serve_mixed. */
void runServeWorkload(const RunConfig& config, RunReport& report);

/**
 * Recompute and print the golden digest folds of every sweep input
 * variant (the table in golden.h). Returns a process exit code.
 */
int printSweepGoldens();

} // namespace perfbench
