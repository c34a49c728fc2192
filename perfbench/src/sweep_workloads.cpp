/**
 * @file
 * sweep_dense and sweep_stream: one cold ShapeSweep::run() over a
 * 65,536-cell largeArrayProgram per repetition, repeated until the
 * run's time is spent. See perfbench/README.md for why each exists.
 */

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/program_gen.h"
#include "golden.h"
#include "host.h"
#include "sim_metrics.h"
#include "sim/shape_sweep.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace syscomm;

constexpr int kCells = 65536;

/** One sweep workload's fixed definition. */
struct SweepDef
{
    std::string name;
    ArrayPhase phase = ArrayPhase::kDenseActive;
    std::vector<sim::ShapeSpec> shapes;
    /** Journal + checkpoint interval; 0 = no journal. */
    Cycle checkpointEvery = 0;
};

sim::ShapeSpec
shape(std::string name, int queues, int capacity, int extension = 0,
      int penalty = 4)
{
    sim::ShapeSpec s;
    s.name = std::move(name);
    s.queuesPerLink = queues;
    s.queueCapacity = capacity;
    s.extensionCapacity = extension;
    s.extensionPenalty = penalty;
    return s;
}

SweepDef
sweepDef(const std::string& name)
{
    SweepDef def;
    def.name = name;
    if (name == "sweep_dense") {
        def.phase = ArrayPhase::kDenseActive;
        for (int q : {2, 3})
            for (int c : {1, 4})
                def.shapes.push_back(shape(
                    "q" + std::to_string(q) + "c" + std::to_string(c), q, c));
    } else {
        def.phase = ArrayPhase::kStreaming;
        for (int c : {1, 2, 4, 8})
            def.shapes.push_back(shape("c" + std::to_string(c), 1, c));
        // The skew: a capacity-1 rung whose overflow pays a 16-cycle
        // extension penalty runs ~1.4x the cycles of the others.
        def.shapes.push_back(shape("c1x8p16", 1, 1, 8, 16));
        // Rows run ~2,050-2,200 cycles (the penalty rung ~3,000), so
        // each row writes about one mid-run checkpoint.
        def.checkpointEvery = 1200;
    }
    return def;
}

/**
 * The generator inputs of variant @p variant (seed mod
 * kSweepVariants). Dense varies the per-pair word counts; streaming
 * varies the words per stream. Every variant has a pinned golden.
 */
LargeArrayOptions
variantOptions(const SweepDef& def, int variant)
{
    LargeArrayOptions o;
    o.phase = def.phase;
    if (def.phase == ArrayPhase::kDenseActive) {
        o.wordsPerMessage = 64;
        o.seed = 1 + static_cast<std::uint64_t>(variant);
    } else {
        o.messages = kCells / 1024;
        o.wordsPerMessage = 56 + variant;
        o.computeGap = 8;
    }
    return o;
}

std::vector<sim::RunRequest>
requests()
{
    std::vector<sim::RunRequest> r(2);
    r[0].policy = sim::PolicyKind::kCompatible;
    r[1].policy = sim::PolicyKind::kFcfs;
    return r;
}

/** Program + topology + sweep, built in that order (setup_s). */
struct Built
{
    std::unique_ptr<Program> program;
    std::unique_ptr<sim::ShapeSweep> sweep;
    double setupSeconds = 0.0;
};

Built
build(const SweepDef& def, int variant, const std::string& journal,
      Cycle checkpointEvery, Tracer* tracer)
{
    Built b;
    Clock::time_point t0 = Clock::now();
    {
        ScopedSpan span(*tracer, "bench.generate");
        b.program = std::make_unique<Program>(
            largeArrayProgram(kCells, variantOptions(def, variant)));
    }
    ScopedSpan span(*tracer, "sim.shape_sweep.ctor");
    sim::ShapeSweepOptions options;
    options.numWorkers = 0; // hardware_concurrency
    if (!journal.empty()) {
        options.journalPath = journal;
        options.checkpointEvery = checkpointEvery;
    }
    b.sweep = std::make_unique<sim::ShapeSweep>(
        *b.program, SharedTopology(Topology::linearArray(kCells)),
        def.shapes, options);
    b.setupSeconds = secondsSince(t0);
    return b;
}

/** One timed cold grid. */
struct Grid
{
    sim::ShapeSweepResult result;
    double wall = 0.0;
    std::uint64_t fold = 0;
    double cellCycles = 0.0;
    std::uintmax_t journalBytes = 0;
};

Grid
runGrid(Built& built, const std::string& journal, Tracer* tracer)
{
    std::error_code ec;
    if (!journal.empty())
        std::filesystem::remove(journal, ec); // never resume: cold grid
    Grid g;
    Clock::time_point t0 = Clock::now();
    {
        ScopedSpan span(*tracer, "sim.shape_sweep.run");
        g.result = built.sweep->run(requests());
    }
    g.wall = secondsSince(t0);
    std::vector<std::uint64_t> digests;
    for (const sim::ShapeSweepRow& row : g.result.rows) {
        digests.push_back(row.machineDigest);
        g.cellCycles += static_cast<double>(row.result.cycles) * kCells;
    }
    g.fold = foldDigests(digests);
    if (!journal.empty()) {
        g.journalBytes = std::filesystem::file_size(journal, ec);
        std::filesystem::remove(journal, ec);
    }
    return g;
}

/** Count every way @p grid is wrong; returns the rows that are right. */
std::int64_t
checkGrid(const Grid& grid, std::uint64_t golden, const std::string& what,
          RunReport& report)
{
    std::int64_t good = 0;
    for (const sim::ShapeSweepRow& row : grid.result.rows) {
        if (row.finished && row.result.completed())
            ++good;
        else
            report.fail(what + ": row (" + std::to_string(row.shape) + "," +
                        std::to_string(row.request) + ") " +
                        row.result.statusStr());
    }
    if (grid.result.rows.size() != grid.result.numShapes * 2 ||
        !grid.result.complete)
        report.fail(what + ": incomplete grid");
    if (grid.fold != golden) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      ": digest fold 0x%016" PRIx64 " != golden 0x%016" PRIx64,
                      grid.fold, golden);
        report.fail(what + buf);
        good = 0;
    }
    return good;
}

/** The untraced run: cold grids until the time is spent. */
void
measure(const SweepDef& def, int variant, const RunConfig& config,
        const std::string& journal, RunReport& report)
{
    const std::uint64_t golden = sweepGolden(def.name, variant);
    std::vector<double> setups, walls, rates, goodputs;
    Clock::time_point start = Clock::now();
    do {
        Built built =
            build(def, variant, journal, def.checkpointEvery, config.tracer);
        Grid grid = runGrid(built, journal, config.tracer);
        std::int64_t good = checkGrid(
            grid, golden, def.name + " rep " + std::to_string(walls.size()),
            report);
        report.attempted += static_cast<std::int64_t>(grid.result.rows.size());
        setups.push_back(built.setupSeconds);
        walls.push_back(grid.wall);
        rates.push_back(grid.cellCycles / grid.wall);
        goodputs.push_back(static_cast<double>(good) / grid.wall);
        // Start another grid only if it should end within the budget.
    } while (secondsSince(start) + setups.back() + walls.back() <=
             config.seconds);

    std::vector<double> wallMs;
    for (double w : walls)
        wallMs.push_back(1e3 * w);
    Percentile p99 = tailPercentile(wallMs, 0.99);
    const std::string grids = samplesNote(walls.size(), "cold grids");
    report.add("setup_s", median(setups), "s",
               samplesNote(setups.size(), "generate+construct"));
    report.add("cell_cycles_per_s", median(rates), "1/s", grids);
    report.add("latency_p50_ms", median(wallMs), "ms",
               grids + ", run() call to result");
    report.add("latency_p99_ms", p99.value, "ms",
               grids + (p99.resolved ? "" : ", p99 unresolved: max"));
    report.add("cold_latency_p50_ms", median(wallMs), "ms",
               grids + ", every grid compiles");
    report.add("goodput_per_s", median(goodputs), "1/s",
               grids + ", correct rows");
    report.add("peak_rss_mb", peakRssMb(), "MiB");
}

/** The traced run: per-layer attribution of one grid. */
void
attribute(const SweepDef& def, int variant, const RunConfig& config,
          const std::string& journal, RunReport& report)
{
    const std::uint64_t golden = sweepGolden(def.name, variant);
    Tracer& tracer = *config.tracer;

    // The same grid untraced, then traced: the difference is the
    // tracing overhead, the traced one carries the spans. A first,
    // discarded grid warms the allocator so neither pays for it.
    Tracer off;
    Grid untraced;
    for (int pass = 0; pass < 2; ++pass) {
        Built plain = build(def, variant, journal, def.checkpointEvery, &off);
        untraced = runGrid(plain, journal, &off);
        report.attempted +=
            static_cast<std::int64_t>(untraced.result.rows.size());
        checkGrid(untraced, golden, def.name + " untraced", report);
    }

    tracer.setEnabled(true);
    std::int64_t builds0 = sim::CompiledProgram::buildCount();
    Built built = build(def, variant, journal, def.checkpointEvery, &tracer);
    Grid grid = runGrid(built, journal, &tracer);
    std::int64_t builds = sim::CompiledProgram::buildCount() - builds0;
    report.attempted += static_cast<std::int64_t>(grid.result.rows.size());
    checkGrid(grid, golden, def.name + " traced", report);

    // Journal cost: the same grid with journaling toggled. sweep_dense
    // runs unjournaled, so its probe journals finished rows only.
    const bool journaled = !journal.empty();
    const std::string probe =
        journaled ? "" : config.workDir + "/probe.journal";
    Built toggled = build(def, variant, probe, 0, &off);
    Grid other = runGrid(toggled, probe, &off);
    toggled = Built{};
    report.attempted += static_cast<std::int64_t>(other.result.rows.size());
    checkGrid(other, golden, def.name + " journal toggled", report);
    const std::uintmax_t journalBytes =
        journaled ? grid.journalBytes : other.journalBytes;
    const double journalOverhead =
        journaled ? untraced.wall - other.wall : other.wall - untraced.wall;

    // sim.compile: the shared compile the first run() paid, alone.
    std::shared_ptr<const sim::CompiledProgram> compiled;
    Clock::time_point t0 = Clock::now();
    {
        ScopedSpan span(tracer, "sim.compile");
        compiled = sim::CompiledProgram::compile(
            *built.program, SharedTopology(Topology::linearArray(kCells)));
    }
    double buildMs = 1e3 * secondsSince(t0);

    // sim.session: every row serially on a fresh session.
    std::vector<double> ctorMs, runMs;
    double serialSeconds = 0.0, cellCycles = 0.0;
    StatsSum replayed;
    const std::vector<sim::RunRequest> reqs = requests();
    for (const sim::ShapeSweepRow& row : grid.result.rows) {
        std::uint64_t rowId = row.shape * reqs.size() + row.request + 1;
        t0 = Clock::now();
        std::unique_ptr<sim::SimSession> session;
        {
            ScopedSpan span(tracer, "sim.session.ctor", rowId);
            session = std::make_unique<sim::SimSession>(
                compiled, built.sweep->spec(row.shape));
        }
        ctorMs.push_back(1e3 * secondsSince(t0));
        t0 = Clock::now();
        sim::RunResult r;
        {
            ScopedSpan span(tracer, "sim.session.run", rowId);
            r = session->run(reqs[row.request]);
        }
        double s = secondsSince(t0);
        ++report.attempted;
        if (session->machineDigest() != row.machineDigest ||
            r.cycles != row.result.cycles)
            report.fail(def.name + ": serial replay of row " +
                        std::to_string(rowId) + " diverged from the sweep");
        runMs.push_back(1e3 * s);
        serialSeconds += s;
        cellCycles += static_cast<double>(r.cycles) * kCells;
        replayed.add(r);
    }
    tracer.setEnabled(false);

    Percentile runP99 = tailPercentile(runMs, 0.99);
    report.add("sim.compile.build_ms", buildMs, "ms");
    report.add("sim.compile.builds", static_cast<double>(builds), "count",
               "buildCount() delta over the traced grid");
    report.add("sim.session.ctor_ms", median(ctorMs), "ms",
               samplesNote(ctorMs.size(), "sessions"));
    report.add("sim.session.run_ms.p50", median(runMs), "ms",
               samplesNote(runMs.size(), "serial rows"));
    report.add("sim.session.run_ms.p99", runP99.value, "ms",
               samplesNote(runMs.size(), "serial rows") +
                   (runP99.resolved ? "" : ", p99 unresolved: max"));
    report.add("sim.session.ns_per_cell_cycle",
               1e9 * serialSeconds / cellCycles, "ns");
    report.add("sim.session.ns_per_event",
               1e9 * serialSeconds / static_cast<double>(replayed.events()),
               "ns", "events = ops + forwarded words + assignments");
    StatsSum swept;
    for (const sim::ShapeSweepRow& row : grid.result.rows)
        swept.add(row.result);
    swept.report(report);
    report.add("sim.shape_sweep.parallel_efficiency",
               serialSeconds / (grid.wall * grid.result.workersUsed), "ratio",
               std::to_string(grid.result.workersUsed) + " workers");
    report.add("sim.shape_sweep.journal_bytes",
               static_cast<double>(journalBytes), "B",
               journal.empty() ? "probe: rows only" : "rows + checkpoints");
    report.add("sim.shape_sweep.journal_overhead_s", journalOverhead, "s",
               "journaled wall - unjournaled wall");
    report.add("latency.samples", 1.0, "count", "one traced grid");
    report.add("trace.overhead_frac", grid.wall / untraced.wall - 1.0,
               "ratio", "traced vs untraced grid wall");
}

} // namespace

bool
runSweepWorkload(const std::string& name, const RunConfig& config,
                 RunReport& report)
{
    if (name != "sweep_dense" && name != "sweep_stream")
        return false;
    const SweepDef def = sweepDef(name);
    const int variant = static_cast<int>(config.seed % kSweepVariants);
    const std::string journal =
        def.checkpointEvery > 0 ? config.workDir + "/" + name + ".journal"
                                : "";
    std::printf("%s: %d cells, %zu shapes x 2 requests, input variant %d "
                "(seed mod %d), journal %s\n",
                name.c_str(), kCells, def.shapes.size(), variant,
                kSweepVariants, journal.empty() ? "off" : "on");
    if (config.trace)
        attribute(def, variant, config, journal, report);
    else
        measure(def, variant, config, journal, report);
    return true;
}

int
printSweepGoldens()
{
    Tracer off;
    for (const char* name : {"sweep_dense", "sweep_stream"}) {
        const SweepDef def = sweepDef(name);
        std::printf("%s:\n", name);
        for (int v = 0; v < kSweepVariants; ++v) {
            Built built = build(def, v, "", 0, &off);
            Grid grid = runGrid(built, "", &off);
            bool ok = grid.result.complete;
            for (const sim::ShapeSweepRow& row : grid.result.rows)
                ok = ok && row.result.completed();
            std::printf("    0x%016" PRIx64 "ULL,%s\n", grid.fold,
                        ok ? "" : " // NOT COMPLETED");
            std::fflush(stdout);
        }
    }
    return 0;
}

} // namespace perfbench
