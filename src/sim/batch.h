#pragma once

/**
 * @file
 * The threading and aggregation half of the sweep driver.
 *
 * The paper's deadlock-avoidance results only show at scale — sweeps
 * over seeds, policies, queue counts and cycle budgets — and a sweep
 * is embarrassingly parallel: every RunRequest is independent.
 * ShapeSweep (sim/shape_sweep.h) is the one sweep driver; a sweep
 * over a single machine is a one-shape ShapeSweep. This header holds
 * the pieces it is built from: WorkerPool (persistent threads with
 * work-stealing dispatch), clampWorkers (the worker-count policy) and
 * summarizeSweep (the status histogram, cycle percentiles and
 * per-policy statistics of a batch of finished runs).
 *
 * Determinism: every aggregate is computed from results in request
 * order after the workers join, so a summary is identical to one over
 * a serial loop on the same requests (tests/test_shape_sweep.cpp
 * asserts exactly that).
 */

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "sim/session.h"

namespace syscomm::sim {

/**
 * A persistent pool of worker threads with work-stealing dispatch —
 * ShapeSweep fans its (shape × request) grid cells across one.
 * Threads are spawned on demand by the
 * first dispatch that needs them and parked between batches; the
 * mutex hand-off orders everything the caller wrote before dispatch()
 * against the workers' reads, so callers may freely prepare per-slot
 * state (sessions, buffers) between batches.
 */
class WorkerPool
{
  public:
    WorkerPool();
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /**
     * Run @p job(slot, index) for every index in [0, count), spread
     * over @p workers slots by a shared work-stealing counter. Slot 0
     * is the calling thread; slots 1..workers-1 are pool threads. The
     * call blocks until every index completed; an exception thrown by
     * any slot is parked and rethrown here after the join (first slot
     * wins), so a throwing job fails the dispatch, not the process.
     * Not reentrant — one dispatch at a time per pool.
     */
    void dispatch(int workers, std::size_t count,
                  const std::function<void(int, std::size_t)>& job);

    /** Pool threads currently alive (spawned on demand, never shed). */
    int pooledWorkers() const;

  private:
    struct State;
    std::unique_ptr<State> state_;
};

/**
 * Worker count a dispatch over @p work_items should use: the sizing
 * policy ShapeSweep applies to its WorkerPool.
 * @p requested <= 0 picks std::thread::hardware_concurrency() — and
 * because that call may legitimately return 0 ("not computable"),
 * the result is floored at 1 *after* the hardware lookup, so an
 * unknowable core count degrades to a serial sweep, never to a
 * zero-worker one. The result is also clamped to the number of work
 * items (threads with nothing to steal are pure overhead), and the
 * floor applies last: even work_items == 0 yields 1, and a
 * one-worker dispatch runs inline on the calling thread without
 * spawning anything (WorkerPool::dispatch's workers == 1 path) —
 * the "single-worker sweeps are really serial" promise
 * ShapeSweepOptions makes, which tests/test_shape_sweep.cpp pins via
 * pooledWorkers().
 */
int clampWorkers(int requested, std::size_t work_items);

/** Aggregates over the runs that used one policy. */
struct PolicySummary
{
    PolicyKind policy = PolicyKind::kCompatible;
    int runs = 0;
    int completed = 0;
    int deadlocked = 0;
    int budgetExhausted = 0;
    int configErrors = 0;
    /** Truncated runs (RunRequest::pauseAt; sweeps normally use 0). */
    int paused = 0;
    /** Runs frozen with injected faults implicated (kFaulted). */
    int faulted = 0;
    /** Mean completion cycles over completed runs (0 when none). */
    double meanCycles = 0.0;
    /** Mean queue-request wait over completed runs (0 when none). */
    double meanRequestWait = 0.0;
};

/** Aggregates over a batch of finished runs. */
struct SweepSummary
{
    /** Runs per terminal status, indexed by RunStatus. */
    std::int64_t statusCounts[kNumRunStatuses] = {};

    /**
     * Cycle-count distribution over runs that simulated (config
     * errors excluded). Percentiles are nearest-rank. When *no* run
     * simulated (every run was a config error, or the batch was
     * empty) there is no distribution: the five order statistics are
     * -1 — never a fabricated 0, which is a legal cycle count —
     * and meanCycles is 0.
     */
    Cycle minCycles = -1;
    Cycle maxCycles = -1;
    Cycle p50Cycles = -1;
    Cycle p90Cycles = -1;
    Cycle p99Cycles = -1;
    double meanCycles = 0.0;

    /** Per-policy aggregates, ascending PolicyKind, used kinds only. */
    std::vector<PolicySummary> perPolicy;

    std::int64_t completed() const
    {
        return statusCounts[static_cast<int>(RunStatus::kCompleted)];
    }
    std::int64_t deadlocked() const
    {
        return statusCounts[static_cast<int>(RunStatus::kDeadlocked)];
    }

    /** Multi-line human-readable dump. */
    std::string str() const;
};

/**
 * Aggregate finished runs: @p results[i] ran @p requests[i] (only its
 * policy is read), and a null entry — a row a stopped sweep never ran
 * — is skipped. The runs are read in place, never copied.
 */
SweepSummary summarizeSweep(const std::vector<const RunResult*>& results,
                            const std::vector<RunRequest>& requests);

} // namespace syscomm::sim
