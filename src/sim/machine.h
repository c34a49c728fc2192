#pragma once

/**
 * @file
 * The array simulator: cells executing their programs over hardware
 * queues managed by an assignment policy. This is the run-time
 * substrate the paper assumes (a programmable systolic array in the
 * Warp/iWarp family), reduced to the semantics the deadlock machinery
 * depends on:
 *
 *  - one program op per cell per cycle; R/W block until possible,
 *  - words advance one hop per cycle via transparent I/O processes,
 *  - queues are assigned/released per message, direction set at
 *    assignment, released after the last word passes,
 *  - optional memory-to-memory mode (Fig. 1 baseline) charges each
 *    cell-level R and W two local memory accesses.
 *
 * The engine itself lives behind SimSession (sim/session.h), which
 * compiles a program once and runs it many times. This header keeps
 * the original single-use entry point, simulateProgram, as a thin
 * wrapper for callers that simulate a program exactly once.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "core/machine_spec.h"
#include "core/program.h"
#include "sim/session.h"

namespace syscomm::sim {

/**
 * Knobs for one single-use simulation run (legacy API). New code
 * should prefer SessionOptions + RunRequest, which split these into
 * session-scoped and per-run halves and make result collection
 * opt-in; this struct maps onto them with every Collect flag set, so
 * its behavior is unchanged from the original simulator.
 */
struct SimOptions
{
    PolicyKind policy = PolicyKind::kCompatible;
    KernelKind kernel = KernelKind::kEventDriven;
    /**
     * Labels per MessageId for the compatible policy and the audit.
     * Left empty, the simulator computes them with the section 6
     * scheme (trivial fallback).
     */
    std::vector<std::int64_t> labels;
    Cycle maxCycles = 1'000'000;
    std::uint64_t seed = 1;
    /** Audit the assignment trace against the labels after the run. */
    bool audit = false;
    /** Memory-to-memory communication model (Fig. 1 baseline). */
    bool memoryToMemory = false;
    /** Cycles per local memory access in memory-to-memory mode. */
    int memAccessCost = 1;
};

/** Session-scoped half of a SimOptions (kernel, labels, memory model). */
SessionOptions sessionOptionsFrom(const SimOptions& options);

/** Per-run half of a SimOptions; collects everything, as the
 *  single-use simulator always did. */
RunRequest runRequestFrom(const SimOptions& options);

/** One-shot convenience wrapper. */
RunResult simulateProgram(const Program& program, const MachineSpec& spec,
                          const SimOptions& options = {});

} // namespace syscomm::sim
