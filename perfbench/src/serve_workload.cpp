/**
 * @file
 * serve_mixed: an in-process syscommd (Unix socket, spool directory,
 * --lint=enforce, 2 workers) fed by an open-loop, seeded Poisson
 * schedule at a fixed rate, with a fixed-cadence status poller
 * observing completions. See perfbench/README.md for the traffic mix
 * and why it is shaped this way.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/analyze.h"
#include "host.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "sim/shape_sweep.h"
#include "sim_metrics.h"
#include "text/parser.h"
#include "text/printer.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace syscomm;
using serve::JsonValue;
namespace fs = std::filesystem;

/**
 * Offered load, submissions per second. Fixed once at about half the
 * capacity the seed commit measured on the reference host (see
 * README.md) and never recalibrated: a faster daemon shows as lower
 * latency at the same load, a slower one as queueing.
 */
constexpr double kRate = 38.0;
/** Poller cadence — the resolution of every observed latency. */
constexpr int kPollMs = 1;
/** Daemon start-ups timed for setup_s (median reported). */
constexpr int kSetups = 3;
/** How long the last submission may take before it counts failed. */
constexpr int kDrainTimeoutS = 60;

enum Class : int
{
    kHot = 0,
    kCold,
    kDeadlocked,
    kSweep,
};
/** Traffic mix, indexed by Class. */
const std::vector<double> kMix = {0.70, 0.15, 0.10, 0.05};
constexpr int kHotPool = 8;
/** Step of the size streams' second axis (sqrt(2) - 1). */
constexpr double kSqrt2Frac = 0.41421356237309515;

/** One distinct submission: the request line and what it must yield. */
struct Line
{
    Class cls = kHot;
    int cells = 0;
    std::string text;
    std::vector<sim::ShapeSpec> shapes;
    sim::RunRequest request;
    /** The submit request line, rendered once at setup. */
    std::string json;
    /** Per row: reference digest/cycles from a direct SimSession run. */
    std::vector<std::uint64_t> digests;
    std::vector<Cycle> cycles;
};

/** One scheduled submission and what the client observed of it. */
struct Item
{
    std::size_t line = 0;
    // Steady-clock ns; 0 = not observed.
    std::int64_t due = 0;
    std::int64_t sent = 0;
    std::int64_t acked = 0;
    std::int64_t active = 0; ///< first poll past "waiting"
    std::int64_t done = 0;   ///< first poll seeing a terminal state
    std::string id;
    std::string state;
    std::string rejected;
    std::string error;
};

sim::ShapeSpec
shape(int queues, int capacity)
{
    sim::ShapeSpec s;
    s.name = "q" + std::to_string(queues) + "c" + std::to_string(capacity);
    s.queuesPerLink = queues;
    s.queueCapacity = capacity;
    return s;
}

/**
 * A ring where every cell writes @p words words to its successor and
 * reads as many from its predecessor, write first. @p perturbed swaps
 * each cell's first pair so every cell reads first: a read cycle the
 * analyzer proves deadlocked under any policy and buffering.
 */
Program
ringProgram(int cells, int words, bool perturbed)
{
    Program p(cells);
    std::vector<MessageId> msg(cells);
    for (int c = 0; c < cells; ++c)
        msg[c] = p.declareMessage("m" + std::to_string(c), c,
                                  (c + 1) % cells);
    for (int c = 0; c < cells; ++c) {
        MessageId in = msg[(c + cells - 1) % cells];
        for (int w = 0; w < words; ++w) {
            if (perturbed && w == 0) {
                p.read(c, in);
                p.write(c, msg[c]);
            } else {
                p.write(c, msg[c]);
                p.read(c, in);
            }
        }
    }
    return p;
}

JsonValue
shapeJson(const sim::ShapeSpec& s)
{
    return JsonValue::object()
        .set("name", JsonValue::str(s.name))
        .set("queues", JsonValue::integer(s.queuesPerLink))
        .set("capacity", JsonValue::integer(s.queueCapacity))
        .set("extension", JsonValue::integer(s.extensionCapacity))
        .set("penalty", JsonValue::integer(s.extensionPenalty));
}

Line
makeLine(Class cls, int cells, int words, sim::PolicyKind policy)
{
    Line line;
    line.cls = cls;
    line.cells = cells;
    line.text =
        text::printProgram(ringProgram(cells, words, cls == kDeadlocked));
    if (cls == kSweep)
        line.shapes = {shape(1, 1), shape(1, 2), shape(2, 1), shape(2, 2)};
    else
        line.shapes = {shape(2, 2)};
    line.request.policy = policy;

    JsonValue body = JsonValue::object();
    body.set("verb", JsonValue::str("submit"));
    body.set("kind", JsonValue::str(cls == kSweep ? "sweep" : "run"));
    body.set("program", JsonValue::str(line.text));
    body.set("topology", JsonValue::object()
                             .set("kind", JsonValue::str("ring"))
                             .set("cells", JsonValue::integer(cells)));
    if (cls == kSweep) {
        JsonValue shapes = JsonValue::array();
        for (const sim::ShapeSpec& s : line.shapes)
            shapes.push(shapeJson(s));
        body.set("shapes", std::move(shapes));
    } else {
        body.set("shape", shapeJson(line.shapes[0]));
    }
    body.set("requests",
             JsonValue::array().push(
                 JsonValue::object()
                     .set("policy",
                          JsonValue::str(policy == sim::PolicyKind::kFcfs
                                             ? "fcfs"
                                             : "compatible"))
                     .set("seed", JsonValue::integer(1))
                     .set("max_cycles", JsonValue::integer(1'000'000))));
    line.json = serve::writeJson(body);
    return line;
}

MachineSpec
machineSpec(const SharedTopology& topo, const sim::ShapeSpec& s)
{
    MachineSpec spec;
    spec.topo = topo;
    spec.queuesPerLink = s.queuesPerLink;
    spec.queueCapacity = s.queueCapacity;
    spec.extensionCapacity = s.extensionCapacity;
    spec.extensionPenalty = s.extensionPenalty;
    return spec;
}

/**
 * Reference digests: each row of @p line run directly on a SimSession
 * over the program parsed back from the exact text submitted. Out of
 * every timing.
 */
bool
computeReference(Line& line)
{
    text::ParseResult parsed = text::parseProgram(line.text);
    if (!parsed.ok)
        return false;
    SharedTopology topo(Topology::ring(line.cells));
    for (const sim::ShapeSpec& s : line.shapes) {
        const MachineSpec spec = machineSpec(topo, s);
        sim::SimSession session(parsed.program, spec);
        sim::RunResult r = session.run(line.request);
        if (!r.completed())
            return false;
        line.digests.push_back(session.machineDigest());
        line.cycles.push_back(r.cycles);
    }
    return true;
}

/**
 * The whole seeded input: distinct lines plus the arrival schedule.
 * Program picks and sizes come from seeded low-discrepancy streams, so
 * every seed draws a different set that covers the same ranges evenly.
 */
struct Workload
{
    std::vector<Line> lines;
    /** hot[h * 2 + policy], sweep[h]: indices into lines. */
    std::vector<std::size_t> hot, sweep;
    std::set<std::pair<int, int>> used; ///< (cells, words) drawn
    Weyl hotPick, sweepPick, cells[2], words[2];

    explicit Workload(std::uint64_t seed)
        : Workload(Rng(seed ^ 0x5e7e5eedULL))
    {
    }

    explicit Workload(Rng rng)
        : hotPick(rng.unit()), sweepPick(rng.unit()),
          cells{Weyl(rng.unit()), Weyl(rng.unit())},
          words{Weyl(rng.unit(), kSqrt2Frac), Weyl(rng.unit(), kSqrt2Frac)}
    {
        for (int h = 0; h < kHotPool; ++h) {
            int c = 256 + 96 * h, w = 40 - 3 * h;
            used.insert({c, w});
            for (sim::PolicyKind p :
                 {sim::PolicyKind::kCompatible, sim::PolicyKind::kFcfs}) {
                hot.push_back(lines.size());
                lines.push_back(makeLine(kHot, c, w, p));
            }
            sweep.push_back(lines.size());
            lines.push_back(
                makeLine(kSweep, c, w, sim::PolicyKind::kCompatible));
        }
    }

    /** A never-seen (cells, words) program of class @p cls. */
    std::size_t fresh(Class cls)
    {
        const bool cold = cls == kCold;
        const int lo = cold ? 1024 : 256, hi = cold ? 4096 : 1024;
        int c = cells[cold].range(lo, hi);
        const int w = cold ? words[1].range(3, 6) : words[0].range(8, 24);
        while (!used.insert({c, w}).second)
            c = c == hi ? lo : c + 1;
        lines.push_back(makeLine(cls, c, w, sim::PolicyKind::kCompatible));
        return lines.size() - 1;
    }

    /** Items of one schedule of @p seconds, drawing programs as needed. */
    std::vector<Item> schedule(std::uint64_t seed, double seconds)
    {
        std::vector<Item> items;
        for (const Arrival& a : poissonSchedule(seed, kRate, seconds, kMix)) {
            Item item;
            item.due = static_cast<std::int64_t>(a.due * 1e9);
            switch (static_cast<Class>(a.cls)) {
              case kHot:
                item.line = hot[hotPick.range(0, 2 * kHotPool - 1)];
                break;
              case kSweep:
                item.line = sweep[sweepPick.range(0, kHotPool - 1)];
                break;
              default:
                item.line = fresh(static_cast<Class>(a.cls));
                break;
            }
            items.push_back(item);
        }
        return items;
    }
};

/** Reference digests for every runnable line, on a few threads. */
bool
computeReferences(std::vector<Line>& lines)
{
    std::atomic<std::size_t> next{0};
    std::atomic<bool> ok{true};
    auto work = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < lines.size();) {
            if (lines[i].cls != kDeadlocked && lines[i].digests.empty() &&
                !computeReference(lines[i]))
                ok = false;
        }
    };
    unsigned n =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < n; ++t)
        threads.emplace_back(work);
    for (std::thread& t : threads)
        t.join();
    return ok;
}

std::uintmax_t
dirBytes(const std::string& dir)
{
    std::uintmax_t total = 0;
    std::error_code ec;
    for (const fs::directory_entry& e : fs::directory_iterator(dir, ec))
        if (e.is_regular_file(ec))
            total += e.file_size(ec);
    return total;
}

/** The daemon under test plus the path clients reach it on. */
struct Service
{
    std::unique_ptr<serve::SyscommDaemon> daemon;
    std::string socket;
    std::string spool;
};

/**
 * (Re)start the daemon on a fresh spool; seconds from construction to
 * the first answered ping (setup_s).
 */
double
startService(Service& svc, RunReport& report)
{
    svc.daemon.reset(); // stops and joins the previous one
    std::error_code ec;
    fs::remove_all(svc.spool, ec);
    fs::remove(svc.socket, ec);
    serve::DaemonOptions options;
    options.socketPath = svc.socket;
    options.spoolDir = svc.spool;
    options.workers = 2;
    options.lintMode = serve::DaemonOptions::LintMode::kEnforce;
    Clock::time_point t0 = Clock::now();
    svc.daemon = std::make_unique<serve::SyscommDaemon>(options);
    std::string error;
    serve::ServeClient client;
    JsonValue pong;
    if (!svc.daemon->start(error) || !client.connectUnix(svc.socket, error) ||
        !client.ping(pong, error))
        report.fail("daemon start: " + error);
    return secondsSince(t0);
}

JsonValue
stats(Service& svc)
{
    serve::ServeClient client;
    JsonValue out;
    std::string error;
    if (client.connectUnix(svc.socket, error))
        client.stats(out, error);
    return out;
}

std::int64_t
statInt(const JsonValue& stats, const char* group, const char* key)
{
    const JsonValue* g = stats.find(group);
    return g != nullptr ? g->getInt(key, 0) : 0;
}

/** Parse a response line; a null value on garbage. */
JsonValue
parsed(const std::string& line)
{
    JsonValue v;
    std::string error;
    serve::parseJson(line, v, error);
    return v;
}

/** Run each hot program once so the passes see them as cache hits. */
void
prime(Service& svc, const Workload& workload, RunReport& report)
{
    serve::ServeClient client;
    std::string error;
    if (!client.connectUnix(svc.socket, error))
        report.fail("prime connect: " + error);
    for (std::size_t i = 0; i < workload.hot.size(); i += 2) {
        const std::string& line = workload.lines[workload.hot[i]].json;
        std::string response, id;
        JsonValue status;
        if (client.roundTrip(line, response, error))
            id = parsed(response).getString("id");
        if (id.empty() || !client.waitTerminal(id, 60'000, status, error))
            report.fail("priming hot program " + std::to_string(i / 2) +
                        " failed: " + error);
    }
}

/** What one open-loop pass produced, beyond the per-item records. */
struct Pass
{
    std::vector<Item> items;
    std::vector<double> statusRttUs;
    std::vector<double> resultMs;
    std::int64_t good = 0;
    double cellCycles = 0.0;
    JsonValue statsBefore, statsAfter;
    std::uintmax_t spoolBytes = 0;
    std::int64_t admitted = 0;
};

/**
 * Run @p items open-loop against @p svc through two sender
 * connections, each sending its items at their due time or as soon as
 * its previous ack arrives: one carries the warm working set (hot and
 * sweep), the other never-seen programs (cold and deadlocked), as two
 * clients with those habits would. One poller connection polls every
 * outstanding id every kPollMs.
 */
void
openLoop(Service& svc, const std::vector<Line>& lines, Tracer& tracer,
         Pass& pass, RunReport& report)
{
    std::vector<Item>& items = pass.items;
    std::mutex mutex; // guards items' observed fields + outstanding
    std::vector<std::size_t> outstanding;
    std::atomic<int> sendersLeft{2};
    const std::int64_t t0 = nowNs() + 20'000'000; // 20 ms to get going
    std::vector<std::size_t> queues[2];
    for (std::size_t i = 0; i < items.size(); ++i) {
        items[i].due += t0;
        Class cls = lines[items[i].line].cls;
        queues[cls == kCold || cls == kDeadlocked].push_back(i);
    }

    auto sender = [&](const std::vector<std::size_t>& queue) {
        serve::ServeClient client;
        std::string error;
        if (!client.connectUnix(svc.socket, error)) {
            std::lock_guard<std::mutex> lock(mutex);
            report.fail("sender connect: " + error);
        }
        for (std::size_t i : queue) {
            Item& item = items[i];
            std::this_thread::sleep_until(Clock::time_point(
                std::chrono::nanoseconds(item.due)));
            std::int64_t sent = nowNs();
            std::string response;
            bool ok = client.roundTrip(lines[item.line].json, response, error);
            std::int64_t acked = nowNs();
            JsonValue ack = parsed(response);
            std::lock_guard<std::mutex> lock(mutex);
            item.sent = sent;
            item.acked = acked;
            if (!ok) {
                item.error = "transport: " + error;
                item.done = acked;
            } else if (!ack.getBool("ok", false)) {
                item.state = ack.getString("state", "rejected");
                item.rejected = ack.getString("rejected");
                item.error = ack.getString("error");
                item.done = acked;
            } else {
                item.id = ack.getString("id");
                outstanding.push_back(i);
            }
        }
        --sendersLeft;
    };

    auto poller = [&] {
        serve::ServeClient client;
        std::string error;
        if (!client.connectUnix(svc.socket, error)) {
            std::lock_guard<std::mutex> lock(mutex);
            report.fail("poller connect: " + error);
            return;
        }
        const std::int64_t deadline =
            (items.empty() ? t0 : items.back().due) +
            static_cast<std::int64_t>(kDrainTimeoutS) * 1'000'000'000;
        for (std::int64_t tick = t0;; tick += kPollMs * 1'000'000) {
            std::int64_t now = nowNs();
            if (tick < now) // fell behind: keep the cadence's phase
                tick += (now - tick) / (kPollMs * 1'000'000) *
                        (kPollMs * 1'000'000);
            std::this_thread::sleep_until(
                Clock::time_point(std::chrono::nanoseconds(tick)));
            std::vector<std::size_t> snapshot;
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (outstanding.empty() && sendersLeft == 0)
                    return;
                snapshot = outstanding;
            }
            if (nowNs() > deadline) {
                std::lock_guard<std::mutex> lock(mutex);
                for (std::size_t i : snapshot)
                    items[i].error = "no terminal state within the drain "
                                     "timeout";
                outstanding.clear();
                return;
            }
            for (std::size_t i : snapshot) {
                std::string response;
                std::int64_t a = nowNs();
                std::uint32_t span = tracer.begin(
                    "serve.protocol.status", i + 1);
                bool ok = client.roundTrip(
                    "{\"verb\":\"status\",\"id\":\"" + items[i].id + "\"}",
                    response, error);
                tracer.end(span);
                std::int64_t b = nowNs();
                JsonValue status = parsed(response);
                std::lock_guard<std::mutex> lock(mutex);
                pass.statusRttUs.push_back(1e-3 * static_cast<double>(b - a));
                Item& item = items[i];
                if (!ok) {
                    item.error = "transport: " + error;
                    item.done = b;
                } else {
                    std::string state = status.getString("state");
                    if (state != "waiting" && item.active == 0)
                        item.active = b;
                    if (!status.getBool("terminal", false))
                        continue;
                    item.state = state;
                    item.done = b;
                }
                outstanding.erase(std::find(outstanding.begin(),
                                            outstanding.end(), i));
            }
        }
    };

    pass.statsBefore = stats(svc);
    const std::uintmax_t spool0 = dirBytes(svc.spool);
    {
        std::vector<std::thread> threads;
        threads.emplace_back(sender, std::cref(queues[0]));
        threads.emplace_back(sender, std::cref(queues[1]));
        threads.emplace_back(poller);
        for (std::thread& t : threads)
            t.join();
    }
    pass.statsAfter = stats(svc);
    pass.spoolBytes = dirBytes(svc.spool) - spool0;
}

/** Fetch results and judge every item; out of the timed window. */
void
verify(Service& svc, const std::vector<Line>& lines, Tracer& tracer,
       Pass& pass, RunReport& report)
{
    serve::ServeClient client;
    std::string error;
    if (!client.connectUnix(svc.socket, error))
        report.fail("result connect: " + error);
    for (std::size_t i = 0; i < pass.items.size(); ++i) {
        Item& item = pass.items[i];
        const Line& line = lines[item.line];
        const std::string what = "submission " + std::to_string(i) + " (" +
                                 (item.id.empty() ? "-" : item.id) + ")";
        ++report.attempted;
        if (!item.id.empty())
            ++pass.admitted;
        if (!item.error.empty() && item.rejected.empty()) {
            report.fail(what + ": " + item.error);
            continue;
        }
        if (line.cls == kDeadlocked) {
            if (item.rejected != "lint")
                report.fail(what + ": deadlocked program not rejected by "
                                   "lint (state " + item.state + ")");
            else
                ++pass.good;
            continue;
        }
        if (item.state != "completed") {
            report.fail(what + ": state " + item.state + " " + item.rejected +
                        " " + item.error);
            continue;
        }
        std::string response;
        std::int64_t a = nowNs();
        std::uint32_t span = tracer.begin("serve.daemon.result", i + 1);
        bool ok = client.roundTrip(
            "{\"verb\":\"result\",\"id\":\"" + item.id + "\"}", response,
            error);
        tracer.end(span);
        pass.resultMs.push_back(1e-6 * static_cast<double>(nowNs() - a));
        JsonValue body = parsed(response);
        const JsonValue* result = body.find("result");
        if (!ok || result == nullptr) {
            report.fail(what + ": no result: " + error);
            continue;
        }
        std::vector<const JsonValue*> rows;
        if (const JsonValue* r = result->find("rows")) {
            for (const JsonValue& row : r->items())
                rows.push_back(&row);
        } else {
            rows.push_back(result);
        }
        bool match = rows.size() == line.digests.size();
        double cellCycles = 0.0;
        for (std::size_t k = 0; match && k < rows.size(); ++k) {
            match = rows[k]->getString("status") == "completed" &&
                    rows[k]->getString("machine_digest") ==
                        serve::hexDigest(line.digests[k]) &&
                    rows[k]->getInt("cycles", -1) == line.cycles[k];
            cellCycles += static_cast<double>(line.cycles[k]) * line.cells;
        }
        if (!match) {
            report.fail(what + ": machine digest differs from the direct "
                               "SimSession run");
            continue;
        }
        ++pass.good;
        pass.cellCycles += cellCycles;
    }
}

double
ms(std::int64_t ns)
{
    return 1e-6 * static_cast<double>(ns);
}

/** due -> terminal, in ms, for items of @p cls (-1 = every class). */
std::vector<double>
latencies(const Pass& pass, const std::vector<Line>& lines, int cls)
{
    std::vector<double> out;
    for (const Item& item : pass.items)
        if (item.done > 0 && (cls < 0 || lines[item.line].cls == cls))
            out.push_back(ms(item.done - item.due));
    return out;
}

void
reportEndToEnd(const Pass& pass, const std::vector<Line>& lines,
               double setup, RunReport& report)
{
    // Rates are per second of the pass as it ran: first due time to
    // the last terminal state seen, so a drain tail counts.
    std::int64_t first = pass.items.front().due, last = first;
    for (const Item& item : pass.items)
        last = std::max(last, item.done);
    const double seconds = 1e-9 * static_cast<double>(last - first);
    std::vector<double> all = latencies(pass, lines, -1);
    std::vector<double> cold = latencies(pass, lines, kCold);
    Percentile p99 = tailPercentile(all, 0.99);
    const std::string res =
        ", due->terminal, " + std::to_string(kPollMs) + " ms resolution";
    report.add("setup_s", setup, "s",
               samplesNote(kSetups, "daemon start->ping->hot pool primed"));
    report.add("cell_cycles_per_s", pass.cellCycles / seconds, "1/s",
               "correct completed runs + sweep rows, per pass second");
    report.add("latency_p50_ms", median(all), "ms",
               samplesNote(all.size(), "submissions") + res);
    report.add("latency_p99_ms", p99.value, "ms",
               samplesNote(all.size(), "submissions") + ", " +
                   std::to_string(p99.beyond) + " beyond" +
                   (p99.resolved ? "" : ", p99 unresolved: max"));
    report.add("cold_latency_p50_ms", median(cold), "ms",
               samplesNote(cold.size(), "cold submissions") + res);
    report.add("goodput_per_s", static_cast<double>(pass.good) / seconds,
               "1/s", "correct terminal outcomes per pass second");
    report.add("peak_rss_mb", peakRssMb(), "MiB");
}

/**
 * The per-submission timeline as spans: due -> terminal, split into
 * generator lag, ack, poll-observed queue wait and execution.
 */
void
recordTimelines(const Pass& pass, Tracer& tracer)
{
    for (std::size_t i = 0; i < pass.items.size(); ++i) {
        const Item& it = pass.items[i];
        if (it.done == 0 || it.sent == 0)
            continue;
        std::uint32_t root =
            tracer.record("serve.submission", 0, i + 1, it.due, it.done);
        tracer.record("serve.daemon.generator_lag", root, i + 1, it.due,
                      it.sent);
        tracer.record("serve.daemon.ack", root, i + 1, it.sent, it.acked);
        if (it.active > 0) {
            tracer.record("serve.daemon.queue_wait", root, i + 1, it.acked,
                          it.active);
            tracer.record("serve.daemon.exec", root, i + 1, it.active,
                          it.done);
        }
    }
}

/** Per-layer numbers the client observed of one traced pass. */
void
reportObserved(const Pass& pass, RunReport& report)
{
    std::vector<double> ack, wait, exec, lag;
    for (const Item& it : pass.items) {
        if (it.sent == 0)
            continue;
        lag.push_back(ms(it.sent - it.due));
        ack.push_back(ms(it.acked - it.sent));
        if (it.active > 0 && it.done > 0) {
            wait.push_back(ms(it.active - it.acked));
            exec.push_back(ms(it.done - it.active));
        }
    }
    auto tail = [&](const char* name, const std::vector<double>& v,
                    const char* what) {
        Percentile p = tailPercentile(v, 0.99);
        report.add(name, p.value, "ms",
                   samplesNote(v.size(), what) +
                       (p.resolved ? "" : ", p99 unresolved: max"));
    };
    const std::string res = ", " + std::to_string(kPollMs) + " ms polls";
    report.add("serve.daemon.ack_ms.p50", median(ack), "ms",
               samplesNote(ack.size(), "acks"));
    tail("serve.daemon.ack_ms.p99", ack, "acks");
    report.add("serve.daemon.queue_wait_ms.p50", median(wait), "ms",
               samplesNote(wait.size(), "admitted") + res);
    tail("serve.daemon.queue_wait_ms.p99", wait, "admitted");
    report.add("serve.daemon.exec_ms.p50", median(exec), "ms",
               samplesNote(exec.size(), "admitted") + res);
    report.add("serve.daemon.result_ms.p50", median(pass.resultMs), "ms",
               samplesNote(pass.resultMs.size(), "result calls"));
    tail("serve.daemon.generator_lag_ms.p99", lag, "sends");
    report.add("serve.protocol.status_rtt_us.p50", median(pass.statusRttUs),
               "us", samplesNote(pass.statusRttUs.size(), "status calls"));

    const JsonValue& s0 = pass.statsBefore;
    const JsonValue& s1 = pass.statsAfter;
    auto delta = [&](const char* group, const char* key) {
        return static_cast<double>(statInt(s1, group, key) -
                                   statInt(s0, group, key));
    };
    double hits = delta("cache", "hits"), misses = delta("cache", "misses");
    report.add("serve.cache.hit_rate",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
               "base: " + std::to_string(std::llround(hits + misses)) +
                   " lookups");
    report.add("serve.cache.misses", misses, "count");
    report.add("serve.cache.evictions", delta("cache", "evictions"), "count");
    report.add("serve.daemon.rejected_lint", delta("queue", "rejected_lint"),
               "count");
    report.add("serve.daemon.rejected_queue_full",
               delta("queue", "rejected_queue_full"), "count");
    report.add("serve.io.spool_bytes_per_sub",
               pass.admitted > 0 ? static_cast<double>(pass.spoolBytes) /
                                       static_cast<double>(pass.admitted)
                                 : 0.0,
               "B", samplesNote(static_cast<std::size_t>(pass.admitted),
                                "admitted"));
    report.add("latency.samples", static_cast<double>(lag.size()), "count",
               "submissions sent in the traced pass");
}

/**
 * Replay every distinct submission of a pass serially through the
 * layers the daemon calls — parseJson, parseProgram, keyFor, compile,
 * analysis, SimSession — timing each call from outside.
 */
void
replay(const Pass& pass, const std::vector<Line>& lines,
       const RunConfig& config, RunReport& report)
{
    Tracer& tracer = *config.tracer;
    std::map<std::size_t, std::size_t> uses; // line -> submissions
    for (const Item& it : pass.items)
        ++uses[it.line];

    std::vector<double> jsonMs, parseMs, keyMs, buildMs, analyzeMs, ctorMs,
        runMs;
    double parseBytes = 0.0, parseSeconds = 0.0, runSeconds = 0.0,
           cellCycles = 0.0, sweepSerial = 0.0, sweepWall = 0.0,
           journalBytes = 0.0, journalOverhead = 0.0;
    std::int64_t verdicts[4] = {};
    StatsSum replayed;
    // Work the daemon does per submission (parse, key, run) is
    // weighted by the submissions that carried the line; work it
    // does once per program (compile, analysis) is not.
    auto timed = [&](const char* name, std::uint64_t req,
                     std::vector<double>& samples, std::size_t copies,
                     auto&& fn) {
        std::int64_t a = nowNs();
        std::uint32_t span = tracer.begin(name, req);
        fn();
        tracer.end(span);
        samples.insert(samples.end(), copies, ms(nowNs() - a));
    };

    for (const auto& [li, count] : uses) {
        const Line& line = lines[li];
        const std::uint64_t req = 1'000'000 + li;
        const std::string what = "replay of line " + std::to_string(li);
        ScopedSpan root(tracer, "replay.submission", req);
        ++report.attempted;

        JsonValue msg;
        std::string error;
        timed("serve.protocol.parse_json", req, jsonMs, count,
              [&] { serve::parseJson(line.json, msg, error); });
        const std::string textBody = msg.getString("program");
        text::ParseResult parsedProgram;
        timed("text.parse", req, parseMs, count,
              [&] { parsedProgram = text::parseProgram(textBody); });
        parseBytes += static_cast<double>(textBody.size());
        parseSeconds += 1e-3 * parseMs.back();

        if (!parsedProgram.ok) {
            report.fail(what + ": " + parsedProgram.error);
            continue;
        }
        const Program& program = parsedProgram.program;
        SharedTopology topo(Topology::ring(line.cells));
        timed("serve.cache.key", req, keyMs, count, [&] {
            serve::CompileCache::keyFor(program, topo.get(), "");
        });
        std::shared_ptr<const sim::CompiledProgram> compiled;
        timed("sim.compile", req, buildMs, 1, [&] {
            compiled = sim::CompiledProgram::compile(program, topo);
        });
        // The daemon analyzes a sweep at its most-buffered rung.
        const sim::ShapeSpec& widest = line.shapes.back();
        std::shared_ptr<const AnalysisReport> analysis;
        timed("core.analyze", req, analyzeMs, 1, [&] {
            analysis = compiled->analysis(machineSpec(topo, widest));
        });
        const LintVerdict verdict = analysis->verdict;
        ++verdicts[std::min<int>(static_cast<int>(verdict), 3)];
        if ((verdict == LintVerdict::kDeadlock) != (line.cls == kDeadlocked)) {
            report.fail(what + ": verdict " + lintVerdictName(verdict));
            continue;
        }
        if (line.cls == kDeadlocked)
            continue;

        double serial = 0.0;
        for (std::size_t k = 0; k < line.shapes.size(); ++k) {
            MachineSpec spec = machineSpec(topo, line.shapes[k]);
            std::unique_ptr<sim::SimSession> session;
            timed("sim.session.ctor", req, ctorMs, count, [&] {
                session = std::make_unique<sim::SimSession>(compiled, spec);
            });
            sim::RunResult r;
            timed("sim.session.run", req, runMs, count,
                  [&] { r = session->run(line.request); });
            serial += 1e-3 * runMs.back();
            cellCycles += static_cast<double>(r.cycles) * line.cells;
            replayed.add(r);
            if (session->machineDigest() != line.digests[k])
                report.fail(what + ": replayed digest differs");
        }
        runSeconds += serial;
        if (line.cls != kSweep)
            continue;

        // The daemon's sweep path: one worker, journaled on the spool
        // at its default checkpoint interval; the same grid without the
        // journal gives the journal's cost.
        const std::string journal = config.workDir + "/replay.journal";
        double walls[2] = {};
        for (int journaled = 0; journaled < 2; ++journaled) {
            sim::ShapeSweepOptions o;
            o.numWorkers = 1;
            if (journaled) {
                o.journalPath = journal;
                o.checkpointEvery = serve::DaemonOptions{}.sweepCheckpointEvery;
            }
            std::error_code ec;
            fs::remove(journal, ec);
            sim::ShapeSweep sweep(compiled, line.shapes, o);
            Clock::time_point t0 = Clock::now();
            {
                ScopedSpan span(tracer, "sim.shape_sweep.run", req);
                sweep.run({line.request});
            }
            walls[journaled] = secondsSince(t0);
            if (journaled)
                journalBytes += static_cast<double>(fs::file_size(journal, ec));
            fs::remove(journal, ec);
        }
        sweepSerial += serial;
        sweepWall += walls[0];
        journalOverhead += walls[1] - walls[0];
    }

    Percentile runP99 = tailPercentile(runMs, 0.99);
    const std::string n = samplesNote(pass.items.size(), "submissions") +
                          " over " + std::to_string(uses.size()) +
                          " distinct";
    const std::string once = samplesNote(buildMs.size(), "distinct programs");
    report.add("serve.protocol.json_parse_ms.p50", median(jsonMs), "ms", n);
    report.add("text.parse_ms.p50", median(parseMs), "ms", n);
    report.add("text.parse_mb_per_s", 1e-6 * parseBytes / parseSeconds,
               "MB/s", n);
    report.add("serve.cache.key_ms.p50", median(keyMs), "ms", n);
    report.add("sim.compile.build_ms", median(buildMs), "ms",
               once + ", median");
    report.add("core.analyze.ms.p50", median(analyzeMs), "ms", once);
    report.add("core.analyze.verdict.certified",
               static_cast<double>(verdicts[0]), "count");
    report.add("core.analyze.verdict.unknown",
               static_cast<double>(
                   verdicts[static_cast<int>(LintVerdict::kUnknown)]),
               "count");
    report.add("core.analyze.verdict.deadlock",
               static_cast<double>(
                   verdicts[static_cast<int>(LintVerdict::kDeadlock)]),
               "count");
    report.add("sim.session.ctor_ms", median(ctorMs), "ms",
               samplesNote(ctorMs.size(), "sessions"));
    report.add("sim.session.run_ms.p50", median(runMs), "ms",
               samplesNote(runMs.size(), "runs"));
    report.add("sim.session.run_ms.p99", runP99.value, "ms",
               samplesNote(runMs.size(), "runs") +
                   (runP99.resolved ? "" : ", p99 unresolved: max"));
    report.add("sim.session.ns_per_cell_cycle", 1e9 * runSeconds / cellCycles,
               "ns");
    report.add("sim.session.ns_per_event",
               1e9 * runSeconds / static_cast<double>(replayed.events()), "ns",
               "events = ops + forwarded words + assignments");
    replayed.report(report);
    report.add("sim.shape_sweep.parallel_efficiency",
               sweepWall > 0 ? sweepSerial / sweepWall : 0.0, "ratio",
               "1 sweep worker, as the daemon runs them");
    report.add("sim.shape_sweep.journal_bytes", journalBytes, "B",
               "sum over distinct sweeps");
    report.add("sim.shape_sweep.journal_overhead_s", journalOverhead, "s",
               "sum over distinct sweeps");
}

} // namespace

void
runServeWorkload(const RunConfig& config, RunReport& report)
{
    Tracer& tracer = *config.tracer;
    Service svc;
    svc.socket = config.workDir + "/serve.sock";
    svc.spool = config.workDir + "/spool";

    // The traced run plays one half-length schedule twice, untraced
    // and traced, each on a freshly started and primed daemon.
    Workload workload(config.seed);
    const double passSeconds =
        config.trace ? config.seconds / 2 : config.seconds;
    const std::vector<Item> schedule =
        workload.schedule(config.seed, passSeconds);
    if (!computeReferences(workload.lines)) {
        report.fail("reference SimSession run did not complete");
        return;
    }
    std::printf("serve_mixed: %.0f submissions/s open loop, %zu submissions "
                "per pass, %zu distinct programs, %d ms polls\n",
                kRate, schedule.size(), workload.lines.size(), kPollMs);

    // setup_s: a fresh daemon from construction to first ping, plus
    // priming its hot pool; the last one started serves the pass.
    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k) {
        double started = startService(svc, report);
        Clock::time_point t0 = Clock::now();
        prime(svc, workload, report);
        setups.push_back(started + secondsSince(t0));
    }
    Pass untraced;
    untraced.items = schedule;
    Tracer off;
    openLoop(svc, workload.lines, off, untraced, report);
    verify(svc, workload.lines, off, untraced, report);

    if (!config.trace) {
        reportEndToEnd(untraced, workload.lines, median(setups), report);
    } else {
        startService(svc, report);
        prime(svc, workload, report);
        Pass traced;
        traced.items = schedule;
        tracer.setEnabled(true);
        std::int64_t builds0 = sim::CompiledProgram::buildCount();
        openLoop(svc, workload.lines, tracer, traced, report);
        std::int64_t builds = sim::CompiledProgram::buildCount() - builds0;
        verify(svc, workload.lines, tracer, traced, report);
        recordTimelines(traced, tracer);
        reportObserved(traced, report);
        report.add("sim.compile.builds", static_cast<double>(builds), "count",
                   "daemon compiles during the traced pass");
        replay(traced, workload.lines, config, report);
        tracer.setEnabled(false);
        double a = median(latencies(untraced, workload.lines, -1));
        double b = median(latencies(traced, workload.lines, -1));
        report.add("trace.overhead_frac", a > 0 ? b / a - 1.0 : 0.0, "ratio",
                   "latency_p50_ms, traced vs untraced pass of one schedule");
    }

    svc.daemon.reset();
    std::error_code ec;
    fs::remove_all(svc.spool, ec);
}

} // namespace perfbench
