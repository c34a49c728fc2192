/**
 * @file
 * Experiment S1: what compile-once/run-many buys. 64 seed-varied runs
 * of the 256-cell sparse/streaming workload through one SimSession
 * (state reset in place, stats-only collection) vs 64 fresh
 * simulateProgram() calls (revalidate, relabel, reallocate and
 * materialize every result vector per run), plus one-shape ShapeSweep
 * thread-scaling over 1/2/4/8 workers (S2, with the per-row
 * machineDigest() cost every sweep row pays) and many small batches
 * through one persistent sweep (S3). Appends machine-readable lines
 * to BENCH_session.json.
 *
 * Usage: bench_session_reuse [--quick]
 *   --quick  CI smoke: fewer runs per mode, no full thread ladder.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/program.h"
#include "core/topology.h"
#include "sim/machine.h"
#include "sim/session.h"
#include "sim/shape_sweep.h"

namespace {

using namespace syscomm;
using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

MachineSpec
makeSpec(int cells)
{
    MachineSpec spec;
    spec.topo = Topology::linearArray(cells);
    spec.queuesPerLink = 2;
    spec.queueCapacity = 4;
    return spec;
}

} // namespace

int
main(int argc, char** argv)
{
    bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    if (argc > 1 && !quick) {
        std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
        return 2;
    }
    const int kCells = 256;
    const int kRuns = quick ? 16 : 64;
    const int kReps = quick ? 1 : 3; // repeat and keep the best

    bench::banner("S1", "SimSession reuse vs one-shot simulateProgram, "
                        "256-cell sparse streaming workload");
    bench::JsonWriter json("session_reuse", "BENCH_session.json");

    // Short sparse streams: 4 messages of 4 words with 16-cycle
    // compute gaps over a 256-cell array. Runs are short relative to
    // the per-run compile/allocate/collect overhead the session
    // amortizes — the sweep regime (many short seed-varied runs) the
    // API is built for. The default long-stream shape is reported
    // separately below.
    Program program = bench::streamingProgram(kCells, 4, 4, 16);
    MachineSpec spec = makeSpec(kCells);

    // Correctness guard: both paths agree on the outcome.
    {
        sim::SimSession session(program, spec);
        sim::RunResult reused = session.run({});
        sim::RunResult oneshot = sim::simulateProgram(program, spec);
        if (!reused.completed() || !oneshot.completed() ||
            reused.cycles != oneshot.cycles) {
            std::fprintf(stderr, "workload mismatch: reused=%s/%lld "
                                 "one-shot=%s/%lld\n",
                         reused.statusStr(),
                         static_cast<long long>(reused.cycles),
                         oneshot.statusStr(),
                         static_cast<long long>(oneshot.cycles));
            return 1;
        }
    }

    // ------------------------------------------------------------------
    // A: one session, kRuns seed-varied runs, stats-only collection.
    // ------------------------------------------------------------------
    double best_session = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        sim::SimSession session(program, spec);
        auto start = Clock::now();
        for (int i = 0; i < kRuns; ++i) {
            sim::RunRequest request;
            request.seed = static_cast<std::uint64_t>(i + 1);
            sim::RunResult r = session.run(request);
            if (!r.completed())
                return 1;
        }
        best_session = std::min(best_session, seconds(start));
    }

    // ------------------------------------------------------------------
    // B: kRuns fresh simulateProgram() calls (the legacy path:
    // revalidates, relabels, reallocates, collects everything).
    // ------------------------------------------------------------------
    double best_oneshot = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        auto start = Clock::now();
        for (int i = 0; i < kRuns; ++i) {
            sim::SimOptions options;
            options.seed = static_cast<std::uint64_t>(i + 1);
            sim::RunResult r = sim::simulateProgram(program, spec, options);
            if (!r.completed())
                return 1;
        }
        best_oneshot = std::min(best_oneshot, seconds(start));
    }

    double speedup = best_oneshot / best_session;
    bench::row({"mode", "runs", "seconds", "runs/sec"});
    bench::rule(4);
    bench::row({"session-reuse", std::to_string(kRuns),
                bench::fmt(best_session),
                bench::fmt(kRuns / best_session)});
    bench::row({"one-shot", std::to_string(kRuns),
                bench::fmt(best_oneshot),
                bench::fmt(kRuns / best_oneshot)});
    std::printf("reuse speedup: %.2fx\n\n", speedup);

    std::string runs_str = std::to_string(kRuns);
    std::string cells_str = std::to_string(kCells);
    json.record("seconds", best_session,
                {{"mode", "session-reuse"},
                 {"runs", runs_str},
                 {"cells", cells_str}});
    json.record("seconds", best_oneshot,
                {{"mode", "one-shot"},
                 {"runs", runs_str},
                 {"cells", cells_str}});
    json.record("speedup", speedup,
                {{"runs", runs_str}, {"cells", cells_str}});

    // ------------------------------------------------------------------
    // Context: the default long-stream shape (128-word streams). The
    // simulation loop dominates there, so reuse buys less — reported
    // for scale, not as the headline.
    // ------------------------------------------------------------------
    if (!quick) {
        Program longProgram = bench::streamingProgram(kCells);
        double session_s = 1e300;
        double oneshot_s = 1e300;
        {
            sim::SimSession session(longProgram, spec);
            auto start = Clock::now();
            for (int i = 0; i < kRuns; ++i) {
                sim::RunRequest request;
                request.seed = static_cast<std::uint64_t>(i + 1);
                if (!session.run(request).completed())
                    return 1;
            }
            session_s = seconds(start);
        }
        {
            auto start = Clock::now();
            for (int i = 0; i < kRuns; ++i) {
                sim::SimOptions options;
                options.seed = static_cast<std::uint64_t>(i + 1);
                if (!sim::simulateProgram(longProgram, spec, options)
                         .completed())
                    return 1;
            }
            oneshot_s = seconds(start);
        }
        std::printf("long-stream (128-word) reuse speedup: %.2fx\n\n",
                    oneshot_s / session_s);
        json.record("speedup_long_stream", oneshot_s / session_s,
                    {{"runs", runs_str}, {"cells", cells_str}});
    }

    // ------------------------------------------------------------------
    // S2: one-shape ShapeSweep thread scaling: the same request batch
    // across 1/2/4/8 workers.
    // ------------------------------------------------------------------
    bench::banner("S2", "one-shape ShapeSweep thread scaling");
    sim::ShapeSpec shape;
    shape.queuesPerLink = spec.queuesPerLink;
    shape.queueCapacity = spec.queueCapacity;
    std::vector<sim::RunRequest> requests;
    for (int i = 0; i < kRuns; ++i) {
        sim::RunRequest request;
        request.seed = static_cast<std::uint64_t>(i + 1);
        requests.push_back(request);
    }

    bench::row({"workers", "seconds", "runs/sec", "speedup"});
    bench::rule(4);
    double base = 0.0;
    std::vector<int> ladder = quick ? std::vector<int>{1, 4}
                                    : std::vector<int>{1, 2, 4, 8};
    for (int workers : ladder) {
        sim::ShapeSweepOptions sweepOptions;
        sweepOptions.numWorkers = workers;
        sim::ShapeSweep sweep(program, spec.topo, {shape}, sweepOptions);
        double best = 1e300;
        std::int64_t completed = 0;
        for (int rep = 0; rep < kReps; ++rep) {
            sim::ShapeSweepResult result = sweep.run(requests);
            completed = result.shapeSummary(0).completed();
            best = std::min(best, result.wallSeconds);
        }
        if (completed != static_cast<std::int64_t>(requests.size())) {
            std::fprintf(stderr, "sweep incomplete: %lld/%zu\n",
                         static_cast<long long>(completed),
                         requests.size());
            return 1;
        }
        if (workers == ladder.front())
            base = best;
        bench::row({std::to_string(workers), bench::fmt(best),
                    bench::fmt(kRuns / best), bench::fmt(base / best)});
        json.record("sweep_seconds", best,
                    {{"driver", "one_shape_sweep"},
                     {"workers", std::to_string(workers)},
                     {"runs", runs_str},
                     {"cells", cells_str}});
        json.record("sweep_speedup", base / best,
                    {{"driver", "one_shape_sweep"},
                     {"workers", std::to_string(workers)},
                     {"runs", runs_str},
                     {"cells", cells_str}});
    }

    // Every sweep row records SimSession::machineDigest() at its
    // terminal state: time that per-row cost on this workload, so the
    // sweep timings above can be read as runs + rows x digest.
    {
        sim::SimSession session(program, spec);
        if (!session.run(requests.front()).completed())
            return 1;
        const int kDigests = 2000;
        volatile std::uint64_t sink = 0;
        auto start = Clock::now();
        for (int i = 0; i < kDigests; ++i)
            sink = sink ^ session.machineDigest();
        const double us = seconds(start) / kDigests * 1e6;
        std::printf("machineDigest per row: %.2f us (x %d rows = %.3f ms)"
                    "\n",
                    us, kRuns, us * kRuns / 1e3);
        json.record("digest_us_per_row", us, {{"cells", cells_str}});
    }

    // ------------------------------------------------------------------
    // S3: the persistent worker pool. Many *small* batches through one
    // sweep — the regime where spawning threads per run() call would
    // dominate. The pool is warmed by the first batch; every later
    // batch is a condition-variable hand-off.
    // ------------------------------------------------------------------
    bench::banner("S3", "persistent pool: many small batches per sweep");
    const int kBatches = quick ? 16 : 128;
    const int kBatchSize = 8;
    std::vector<sim::RunRequest> smallBatch;
    for (int i = 0; i < kBatchSize; ++i) {
        sim::RunRequest request;
        request.seed = static_cast<std::uint64_t>(i + 1);
        smallBatch.push_back(request);
    }

    bench::row({"workers", "batches", "seconds", "batches/sec"});
    bench::rule(4);
    for (int workers : ladder) {
        sim::ShapeSweepOptions sweepOptions;
        sweepOptions.numWorkers = workers;
        sim::ShapeSweep sweep(program, spec.topo, {shape}, sweepOptions);
        auto batchCompleted = [&] {
            return sweep.run(smallBatch).shapeSummary(0).completed() ==
                   kBatchSize;
        };
        // Warm-up batch: spawns the pool threads and builds the
        // pooled sessions; the timed loop then measures steady state,
        // which is what a sweep service would see.
        if (!batchCompleted())
            return 1;
        double best = 1e300;
        for (int rep = 0; rep < kReps; ++rep) {
            auto start = Clock::now();
            for (int b = 0; b < kBatches; ++b) {
                if (!batchCompleted())
                    return 1;
            }
            best = std::min(best, seconds(start));
        }
        bench::row({std::to_string(workers), std::to_string(kBatches),
                    bench::fmt(best), bench::fmt(kBatches / best)});
        json.record("small_batch_seconds", best,
                    {{"driver", "one_shape_sweep"},
                     {"workers", std::to_string(workers)},
                     {"batches", std::to_string(kBatches)},
                     {"batch_size", std::to_string(kBatchSize)},
                     {"cells", cells_str}});
        json.record("small_batches_per_sec", kBatches / best,
                    {{"driver", "one_shape_sweep"},
                     {"workers", std::to_string(workers)},
                     {"batches", std::to_string(kBatches)},
                     {"batch_size", std::to_string(kBatchSize)},
                     {"cells", cells_str}});
    }
    return 0;
}
