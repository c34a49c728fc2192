/**
 * @file
 * SimSession coverage: the compile-once/run-many entry point must be
 * indistinguishable from a fresh single-use simulator on every run,
 * across interleaved seeds and policies; sweep summaries must count
 * every terminal status; interleaved multi-shape sweep batches must
 * equal serial sessions; and the Collect flags must gate exactly the
 * vectors they name without perturbing any counter.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algos/paper_figures.h"
#include "core/program_gen.h"
#include "sim/machine.h"
#include "sim/session.h"
#include "sim/shape_sweep.h"
#include "test_support.h"

namespace syscomm {
namespace {

using sim::Collect;
using sim::collects;
using sim::KernelKind;
using sim::PolicyKind;
using sim::RunRequest;
using sim::RunResult;
using sim::RunStatus;
using sim::SessionOptions;
using sim::ShapeSpec;
using sim::ShapeSweep;
using sim::ShapeSweepOptions;
using sim::ShapeSweepResult;
using sim::SimOptions;
using sim::SimSession;
using sim::simulateProgram;
using sim::SweepSummary;

/** A seed-sensitive workload: perturbed program under unsafe policies
 *  (covers both completed and deadlocked runs). */
Program
perturbedProgram(std::uint64_t seed)
{
    Topology topo = Topology::linearArray(5);
    GenOptions gen;
    gen.numMessages = 6;
    gen.maxWords = 4;
    gen.seed = 200 + seed;
    gen.interleave = 0.5;
    Program p = randomDeadlockFreeProgram(topo, gen);
    return perturbProgram(p, static_cast<int>(1 + seed % 4), seed);
}

MachineSpec
smallSpec(int cells, int queues, int capacity)
{
    MachineSpec spec;
    spec.topo = Topology::linearArray(cells);
    spec.queuesPerLink = queues;
    spec.queueCapacity = capacity;
    return spec;
}

// ---------------------------------------------------------------------
// (a) run -> reset -> run is bit-identical to a fresh simulator
// ---------------------------------------------------------------------

TEST(SimSession, RerunIsBitIdenticalToFreshSimulator)
{
    for (KernelKind kernel :
         {KernelKind::kEventDriven, KernelKind::kReference}) {
        for (PolicyKind policy :
             {PolicyKind::kCompatible, PolicyKind::kFcfs,
              PolicyKind::kRandom}) {
            Program p = perturbedProgram(3);
            MachineSpec spec = smallSpec(5, 2, 1);

            SessionOptions session;
            session.kernel = kernel;
            SimSession reused(p, spec, session);

            RunRequest request;
            request.policy = policy;
            request.seed = 7;
            request.maxCycles = 20'000;
            request.collect = Collect::kAll;

            RunResult first = reused.run(request);
            RunResult second = reused.run(request);
            RunResult third = reused.run(request);

            SimOptions legacy;
            legacy.kernel = kernel;
            legacy.policy = policy;
            legacy.seed = 7;
            legacy.maxCycles = 20'000;
            legacy.audit = true;
            RunResult fresh = simulateProgram(p, spec, legacy);

            std::string ctx =
                std::string("kernel=") + sim::kernelKindName(kernel) +
                " policy=" + sim::policyKindName(policy);
            expectSameRunResult(second, first, ctx + " (2nd vs 1st)");
            expectSameRunResult(third, first, ctx + " (3rd vs 1st)");
            expectSameRunResult(first, fresh, ctx + " (session vs fresh)");
        }
    }
    EXPECT_NE(perturbedProgram(3).numMessages(), 0);
}

// ---------------------------------------------------------------------
// (b) interleaved different-seed runs don't leak state
// ---------------------------------------------------------------------

TEST(SimSession, InterleavedSeedsDoNotLeakState)
{
    Program p = perturbedProgram(5);
    MachineSpec spec = smallSpec(5, 1, 1);

    SimSession session(p, spec);
    const std::uint64_t seeds[] = {1, 2, 9, 4, 2, 1, 9};

    // Fresh baselines per seed.
    std::vector<RunResult> fresh;
    for (std::uint64_t seed : seeds) {
        SimOptions legacy;
        legacy.policy = PolicyKind::kRandom;
        legacy.seed = seed;
        legacy.maxCycles = 20'000;
        legacy.audit = true; // Collect::kAll audits too
        fresh.push_back(simulateProgram(p, spec, legacy));
    }

    // The same seeds interleaved through one session.
    for (std::size_t i = 0; i < std::size(seeds); ++i) {
        RunRequest request;
        request.policy = PolicyKind::kRandom;
        request.seed = seeds[i];
        request.maxCycles = 20'000;
        request.collect = Collect::kAll;
        RunResult r = session.run(request);
        expectSameRunResult(r, fresh[i],
                         "seed=" + std::to_string(seeds[i]) + " pos=" +
                             std::to_string(i));
    }
    EXPECT_EQ(session.runCount(), static_cast<int>(std::size(seeds)));
}

TEST(SimSession, InterleavedPoliciesDoNotLeakState)
{
    Program p = perturbedProgram(2);
    MachineSpec spec = smallSpec(5, 2, 1);
    SimSession session(p, spec);

    const PolicyKind order[] = {
        PolicyKind::kCompatible, PolicyKind::kFcfs, PolicyKind::kRandom,
        PolicyKind::kCompatibleEager, PolicyKind::kCompatible,
        PolicyKind::kRandom, PolicyKind::kFcfs};
    for (PolicyKind policy : order) {
        RunRequest request;
        request.policy = policy;
        request.seed = 11;
        request.maxCycles = 20'000;
        request.collect = Collect::kAll;
        RunResult r = session.run(request);

        SimOptions legacy;
        legacy.policy = policy;
        legacy.seed = 11;
        legacy.maxCycles = 20'000;
        legacy.audit = true; // Collect::kAll audits too
        RunResult fresh = simulateProgram(p, spec, legacy);
        expectSameRunResult(r, fresh,
                         std::string("policy=") +
                             sim::policyKindName(policy));
    }
}

// ---------------------------------------------------------------------
// (c) sweep summaries
// ---------------------------------------------------------------------

TEST(SweepSummary, StatusHistogramCoversDeadlocks)
{
    // Fig. 7 at one queue per link: the compatible policy completes,
    // FCFS jams — a threaded one-shape sweep's histogram must see
    // both terminal states.
    Program p = algos::fig7Program();
    ShapeSpec shape;
    shape.queuesPerLink = 1;
    shape.queueCapacity = 1;
    std::vector<RunRequest> requests;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        RunRequest request;
        request.policy =
            seed % 2 ? PolicyKind::kFcfs : PolicyKind::kCompatible;
        request.seed = seed;
        request.maxCycles = 20'000;
        requests.push_back(request);
    }
    ShapeSweepOptions options;
    options.numWorkers = 4;
    ShapeSweep sweep(p, algos::fig7Topology(), {shape}, options);
    SweepSummary summary = sweep.run(requests).shapeSummary(0);
    EXPECT_EQ(summary.completed(), 6);
    EXPECT_EQ(summary.deadlocked(), 6);
    ASSERT_EQ(summary.perPolicy.size(), 2u);
    EXPECT_EQ(summary.perPolicy[0].policy, PolicyKind::kCompatible);
    EXPECT_EQ(summary.perPolicy[0].completed, 6);
    EXPECT_EQ(summary.perPolicy[1].policy, PolicyKind::kFcfs);
    EXPECT_EQ(summary.perPolicy[1].deadlocked, 6);
    EXPECT_FALSE(summary.str().empty());
}

std::vector<const RunResult*>
pointersTo(const std::vector<RunResult>& results)
{
    std::vector<const RunResult*> pointers;
    for (const RunResult& result : results)
        pointers.push_back(&result);
    return pointers;
}

TEST(SweepSummary, PrintedHistogramCoversEveryStatusIncludingPaused)
{
    // A paused run in a batch must appear in the printed report: the
    // histogram line is generated from runStatusName over all
    // kNumRunStatuses buckets, so a status added later cannot be
    // silently dropped (kPaused was, before this printed by name).
    std::vector<RunResult> results(sim::kNumRunStatuses);
    for (int s = 0; s < sim::kNumRunStatuses; ++s)
        results[s].status = static_cast<RunStatus>(s);
    std::vector<RunRequest> requests(results.size());
    SweepSummary summary =
        sim::summarizeSweep(pointersTo(results), requests);
    const std::string text = summary.str();
    for (int s = 0; s < sim::kNumRunStatuses; ++s) {
        const std::string bucket =
            std::string(sim::runStatusName(static_cast<RunStatus>(s))) +
            " 1";
        EXPECT_NE(text.find(bucket), std::string::npos)
            << "missing bucket '" << bucket << "' in:\n"
            << text;
    }
}

TEST(SweepSummary, AllErrorBatchHasNoFabricatedCycleDistribution)
{
    // Every run a config error: there is no cycle distribution, and
    // the order statistics must say so (-1) instead of computing
    // percentiles of an empty vector (UB) or faking a 0.
    std::vector<RunResult> results(3);
    std::vector<RunRequest> requests(3);
    SweepSummary summary =
        sim::summarizeSweep(pointersTo(results), requests);
    EXPECT_EQ(summary.minCycles, -1);
    EXPECT_EQ(summary.maxCycles, -1);
    EXPECT_EQ(summary.p50Cycles, -1);
    EXPECT_EQ(summary.p90Cycles, -1);
    EXPECT_EQ(summary.p99Cycles, -1);
    EXPECT_DOUBLE_EQ(summary.meanCycles, 0.0);
    EXPECT_EQ(summary.statusCounts[static_cast<int>(
                  RunStatus::kConfigError)],
              3);
    EXPECT_FALSE(summary.str().empty());
}

// ---------------------------------------------------------------------
// (d) Collect flags off => vectors empty, stats unchanged
// ---------------------------------------------------------------------

TEST(SimSession, CollectFlagsGateVectorsWithoutChangingStats)
{
    Program p = perturbedProgram(4);
    MachineSpec spec = smallSpec(5, 2, 2);
    SimSession session(p, spec);

    RunRequest all;
    all.seed = 3;
    all.maxCycles = 20'000;
    all.collect = Collect::kAll;
    RunResult full = session.run(all);

    RunRequest none = all;
    none.collect = Collect::kNone;
    RunResult bare = session.run(none);

    // Identical simulation...
    EXPECT_EQ(bare.status, full.status);
    EXPECT_EQ(bare.cycles, full.cycles);
    EXPECT_TRUE(bare.stats == full.stats)
        << "full:\n"
        << full.stats.summary() << "bare:\n"
        << bare.stats.summary();
    EXPECT_EQ(bare.labelsUsed, full.labelsUsed);

    // ...with nothing materialized.
    EXPECT_TRUE(bare.events.empty());
    EXPECT_TRUE(bare.releases.empty());
    EXPECT_TRUE(bare.msgTiming.empty());
    EXPECT_TRUE(bare.received.empty());
    EXPECT_TRUE(bare.audit.compatible);
    EXPECT_TRUE(bare.audit.violations.empty());

    // And the full run actually collected things to gate.
    EXPECT_FALSE(full.events.empty());
    EXPECT_FALSE(full.releases.empty());
    EXPECT_FALSE(full.msgTiming.empty());
    EXPECT_FALSE(full.received.empty());

    // Each flag gates exactly its vector.
    RunRequest timingOnly = all;
    timingOnly.collect = Collect::kMsgTiming;
    RunResult timed = session.run(timingOnly);
    EXPECT_TRUE(timed.events.empty());
    EXPECT_TRUE(timed.received.empty());
    EXPECT_EQ(timed.msgTiming, full.msgTiming);
    EXPECT_TRUE(timed.stats == full.stats);

    RunRequest auditOnly = all;
    auditOnly.collect = Collect::kAudit;
    RunResult audited = session.run(auditOnly);
    // The audit consumed the event log internally but did not
    // materialize it.
    EXPECT_TRUE(audited.events.empty());
    EXPECT_EQ(audited.audit.compatible, full.audit.compatible);
    EXPECT_EQ(audited.audit.violations.size(),
              full.audit.violations.size());
}

// ---------------------------------------------------------------------
// Observer streaming
// ---------------------------------------------------------------------

class RecordingObserver : public sim::RunObserver
{
  public:
    void onAssign(const sim::AssignmentEvent& e) override
    {
        assigns.push_back(e);
    }
    void onRelease(const sim::AssignmentEvent& e) override
    {
        releases.push_back(e);
    }
    void onDeliver(MessageId msg, int seq, double value, Cycle now) override
    {
        (void)value;
        (void)now;
        deliveries.emplace_back(msg, seq);
    }

    std::vector<sim::AssignmentEvent> assigns;
    std::vector<sim::AssignmentEvent> releases;
    std::vector<std::pair<MessageId, int>> deliveries;
};

TEST(SimSession, ObserverStreamsWhatCollectWouldMaterialize)
{
    Program p = perturbedProgram(1);
    MachineSpec spec = smallSpec(5, 2, 1);
    SimSession session(p, spec);

    RunRequest collected;
    collected.seed = 2;
    collected.maxCycles = 20'000;
    collected.collect = Collect::kEvents | Collect::kReleases;
    RunResult full = session.run(collected);

    RecordingObserver observer;
    RunRequest streamed;
    streamed.seed = 2;
    streamed.maxCycles = 20'000;
    streamed.observer = &observer;
    RunResult bare = session.run(streamed);

    EXPECT_EQ(bare.status, full.status);
    EXPECT_TRUE(bare.events.empty());
    EXPECT_EQ(observer.assigns, full.events);
    EXPECT_EQ(observer.releases, full.releases);
    EXPECT_EQ(static_cast<std::int64_t>(observer.deliveries.size()),
              full.stats.wordsDelivered);
}

// ---------------------------------------------------------------------
// Config errors don't poison the session
// ---------------------------------------------------------------------

TEST(SimSession, RecoversAfterPolicyConfigError)
{
    // Static assignment on a 1-queue machine with competing messages
    // fails at cycle 0; the next run on the same session must be
    // unaffected.
    Program p = perturbedProgram(6);
    MachineSpec spec = smallSpec(5, 1, 1);
    SimSession session(p, spec);

    RunRequest bad;
    bad.policy = PolicyKind::kStatic;
    bad.maxCycles = 20'000;
    RunResult failed = session.run(bad);
    ASSERT_EQ(failed.status, RunStatus::kConfigError);
    EXPECT_FALSE(failed.error.empty());

    RunRequest good;
    good.policy = PolicyKind::kCompatible;
    good.maxCycles = 20'000;
    good.collect = Collect::kAll;
    RunResult after = session.run(good);

    SimOptions legacy;
    legacy.policy = PolicyKind::kCompatible;
    legacy.maxCycles = 20'000;
    RunResult fresh = simulateProgram(p, spec, legacy);
    expectSameRunResult(after, fresh, "run after config error");
}

TEST(SimSession, StaticCycleZeroEventsKeepAscendingLinkOrder)
{
    // The pre-session simulator set links up in ascending order at
    // cycle 0; the routed-links-only loop must preserve that order in
    // the event log.
    Program p(4);
    MessageId m = p.declareMessage("M", 0, 3); // crosses links 0,1,2
    p.write(0, m);
    p.read(3, m);
    MachineSpec spec = smallSpec(4, 1, 1);

    SimSession session(p, spec);
    RunRequest request;
    request.policy = PolicyKind::kStatic;
    request.collect = Collect::kEvents;
    RunResult r = session.run(request);
    ASSERT_EQ(r.status, RunStatus::kCompleted);
    ASSERT_EQ(r.events.size(), 3u);
    for (std::size_t i = 0; i < r.events.size(); ++i) {
        EXPECT_EQ(r.events[i].cycle, 0);
        EXPECT_EQ(r.events[i].link, static_cast<LinkIndex>(i));
    }
}

TEST(SimSession, ConfigErrorResultHonorsCollectFlags)
{
    // Static setup fully succeeds on link 0 (one crossing, one
    // queue) and then fails on link 1 (two competing crossings): the
    // partial cycle-0 assignment event from link 0 must not leak into
    // a result that never asked for events.
    Program p(3);
    MessageId a = p.declareMessage("A", 0, 1);
    MessageId b = p.declareMessage("B", 1, 2);
    MessageId c = p.declareMessage("C", 1, 2);
    p.write(0, a);
    p.read(1, a);
    p.write(1, b);
    p.read(2, b);
    p.write(1, c);
    p.read(2, c);
    MachineSpec spec = smallSpec(3, 1, 1);

    SimSession session(p, spec);
    RunRequest bad;
    bad.policy = PolicyKind::kStatic;
    bad.collect = Collect::kAudit; // audit tracks events internally
    RunResult r = session.run(bad);
    ASSERT_EQ(r.status, RunStatus::kConfigError);
    EXPECT_TRUE(r.events.empty());

    // Asking for events does expose the partial cycle-0 log, exactly
    // as the single-use simulator always did.
    bad.collect = Collect::kAudit | Collect::kEvents;
    RunResult collected = session.run(bad);
    ASSERT_EQ(collected.status, RunStatus::kConfigError);
    EXPECT_FALSE(collected.events.empty());
}

TEST(SimSession, InvalidProgramReportsConfigErrorEveryRun)
{
    Program p(2);
    p.declareMessage("M", 0, 0); // sender == receiver: validation fails
    MachineSpec spec = smallSpec(2, 2, 1);

    SimSession session(p, spec);
    EXPECT_FALSE(session.valid());
    EXPECT_FALSE(session.error().empty());
    for (int i = 0; i < 2; ++i) {
        RunResult r = session.run({});
        EXPECT_EQ(r.status, RunStatus::kConfigError);
        EXPECT_FALSE(r.error.empty());
    }
}

// ---------------------------------------------------------------------
// Session labels & per-run overrides
// ---------------------------------------------------------------------

TEST(SimSession, RunLabelOverridesDoNotStickToTheSession)
{
    Program p = perturbedProgram(8);
    MachineSpec spec = smallSpec(5, 2, 1);
    SimSession session(p, spec);

    RunRequest plain;
    plain.maxCycles = 20'000;
    plain.collect = Collect::kAll;
    RunResult before = session.run(plain);

    // Trivial all-equal labels for one run only.
    RunRequest trivial = plain;
    trivial.labels.assign(p.numMessages(), 0);
    RunResult overridden = session.run(trivial);
    EXPECT_EQ(overridden.labelsUsed, trivial.labels);

    RunResult after = session.run(plain);
    expectSameRunResult(after, before, "after label override");
}

TEST(SimSession, LabelFreeRunsAreHistoryIndependent)
{
    Program p = perturbedProgram(9);
    MachineSpec spec = smallSpec(5, 2, 1);
    SimSession session(p, spec);

    RunRequest fcfs;
    fcfs.policy = PolicyKind::kFcfs;
    fcfs.maxCycles = 20'000;
    fcfs.collect = Collect::kEvents; // events but no audit: no labels
    RunResult before = session.run(fcfs);
    EXPECT_TRUE(before.labelsUsed.empty());

    // A compatible run resolves the session labels...
    RunRequest compat;
    compat.maxCycles = 20'000;
    EXPECT_FALSE(session.run(compat).labelsUsed.empty());

    // ...but an identical label-free request still reports none, and
    // matches both its own first run and a fresh simulator.
    RunResult after = session.run(fcfs);
    expectSameRunResult(after, before, "fcfs after compatible");

    SimOptions legacy;
    legacy.policy = PolicyKind::kFcfs;
    legacy.maxCycles = 20'000;
    RunResult fresh = simulateProgram(p, spec, legacy);
    EXPECT_TRUE(fresh.labelsUsed.empty());
    EXPECT_EQ(after.labelsUsed, fresh.labelsUsed);
    EXPECT_EQ(after.events, fresh.events);

    // Legacy callers that hand labels to a label-free policy still
    // see them echoed (the wrapper forwards them as a per-run
    // override).
    SimOptions withLabels = legacy;
    withLabels.labels.assign(p.numMessages(), 0);
    EXPECT_EQ(simulateProgram(p, spec, withLabels).labelsUsed,
              withLabels.labels);
}

// ---------------------------------------------------------------------
// (h) pooled workers with per-worker arenas, interleaved across
//     machine shapes
// ---------------------------------------------------------------------

TEST(ShapeSweep, InterleavedMultiShapeBatchesMatchSerial)
{
    // One sweep over three machine *shapes* (queue count / capacity /
    // extension ladders): its persistent worker pool and per-shape
    // session pools serve every batch. Batches mix collected vectors
    // and policies, and every row must equal a serial SimSession
    // loop on its shape. Run under TSan in CI: any sharing of hot
    // arena state between workers (or stale state surviving the
    // hand-off between batches) is a race or a mismatch here.
    Program p = perturbedProgram(6);
    Topology topo = Topology::linearArray(5);
    std::vector<ShapeSpec> shapes(3);
    shapes[0].queuesPerLink = 1;
    shapes[1].queueCapacity = 2;
    shapes[2].extensionCapacity = 2;
    shapes[2].extensionPenalty = 3;

    ShapeSweepOptions threaded;
    threaded.numWorkers = 3;
    ShapeSweep sweep(p, topo, shapes, threaded);
    std::vector<std::unique_ptr<SimSession>> serials;
    for (std::size_t shape = 0; shape < shapes.size(); ++shape)
        serials.push_back(
            std::make_unique<SimSession>(p, sweep.spec(shape)));

    const PolicyKind policies[] = {PolicyKind::kCompatible,
                                   PolicyKind::kFcfs, PolicyKind::kRandom};
    for (int round = 0; round < 3; ++round) {
        std::vector<RunRequest> batch;
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            RunRequest request;
            request.policy = policies[(round + seed) % 3];
            request.seed = 100 * (round + 1) + seed;
            request.maxCycles = 20'000;
            request.collect =
                seed % 2 ? Collect::kAll
                         : Collect::kEvents | Collect::kMsgTiming;
            batch.push_back(request);
        }
        ShapeSweepResult sweepResult = sweep.run(batch);
        ASSERT_EQ(sweepResult.rows.size(), shapes.size() * batch.size());
        for (std::size_t shape = 0; shape < shapes.size(); ++shape) {
            for (std::size_t i = 0; i < batch.size(); ++i) {
                expectSameRunResult(serials[shape]->run(batch[i]),
                                    sweepResult.row(shape, i).result,
                                    "round " + std::to_string(round) +
                                        " shape " + std::to_string(shape) +
                                        " request " + std::to_string(i));
            }
        }
    }
    EXPECT_EQ(sweep.pooledWorkers(), 2); // 3 workers - lead thread
}

} // namespace
} // namespace syscomm
