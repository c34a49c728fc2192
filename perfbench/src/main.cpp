/**
 * @file
 * perfbench: the repository benchmark's entry point.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--commit ID] [--work-dir DIR]
 *   perfbench --print-golden
 *
 * Runs one workload (sweep_dense, sweep_stream, serve_mixed), checks
 * its outputs, prints the host fingerprint, a metric table and — as
 * the last line of stdout — one JSON object {correct, attempted,
 * failed, metrics}. --trace 0 reports the end-to-end metrics, --trace
 * 1 the per-layer ones and writes the recorded spans. Exit status is
 * 0 only when every output was correct. perfbench/run.py builds this
 * binary and is the command to use; see perfbench/README.md.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "host.h"
#include "util.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

int
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload {sweep_dense|sweep_stream|"
                 "serve_mixed} --seed N --seconds S --trace 0|1 "
                 "[--commit ID] [--work-dir DIR]\n"
                 "       %s --print-golden\n",
                 argv0, argv0);
    return 2;
}

/** JSON string body with quotes and backslashes escaped. */
std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric>& metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", " : "") + jsonString(metrics[i].name) +
               ": {\"value\": " + number(metrics[i].value) +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    return out + "}";
}

/**
 * Order @p report's metrics as @p names lists them. A name the
 * workload did not report is 0 when @p fillMissing (a layer off the
 * workload's path), else a bug; so is an unlisted or mis-unit name.
 */
bool
canonicalize(RunReport& report, const std::vector<MetricName>& names,
             bool fillMissing)
{
    std::map<std::string, Metric> got;
    for (Metric& m : report.metrics)
        got[m.name] = std::move(m);
    std::vector<Metric> ordered;
    for (const MetricName& n : names) {
        auto it = got.find(n.name);
        if (it == got.end()) {
            if (!fillMissing) {
                std::fprintf(stderr, "perfbench: metric %s not reported\n",
                             n.name);
                return false;
            }
            ordered.push_back({n.name, 0.0, n.unit, "not on this path"});
            continue;
        }
        if (it->second.unit != n.unit) {
            std::fprintf(stderr, "perfbench: metric %s unit %s != %s\n",
                         n.name, it->second.unit.c_str(), n.unit);
            return false;
        }
        if (!std::isfinite(it->second.value)) {
            report.fail(std::string("metric ") + n.name + " is not finite");
            it->second.value = 0.0;
        }
        ordered.push_back(std::move(it->second));
        got.erase(it);
    }
    for (const auto& [name, m] : got) {
        std::fprintf(stderr, "perfbench: unlisted metric %s\n", name.c_str());
        return false;
    }
    report.metrics = std::move(ordered);
    return true;
}

/** Where the traced time went: self time summed per span name. */
void
printSelfTimes(const std::vector<Span>& spans)
{
    std::vector<std::int64_t> self = selfTimes(spans);
    std::map<std::string, std::pair<double, std::size_t>> byName;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& [ms, n] = byName[spans[i].name];
        ms += 1e-6 * static_cast<double>(self[i]);
        ++n;
    }
    std::printf("%-38s %18s  %s\n", "span", "self ms", "count");
    for (const auto& [name, total] : byName)
        std::printf("%-38s %18.3f  %zu\n", name.c_str(), total.first,
                    total.second);
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload, commit = "unknown", workDir = ".bench_build/work";
    RunConfig config;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--print-golden")
            return printSweepGoldens();
        if (i + 1 >= argc)
            return usage(argv[0]);
        std::string val = argv[++i];
        if (arg == "--workload") {
            workload = val;
        } else if (arg == "--seed") {
            config.seed = std::strtoull(val.c_str(), nullptr, 10);
            haveSeed = true;
        } else if (arg == "--seconds") {
            config.seconds = std::atof(val.c_str());
            haveSeconds = config.seconds > 0.0;
        } else if (arg == "--trace") {
            config.trace = val == "1";
            haveTrace = val == "0" || val == "1";
        } else if (arg == "--commit") {
            commit = val;
        } else if (arg == "--work-dir") {
            workDir = val;
        } else {
            return usage(argv[0]);
        }
    }
    bool known = false;
    for (const std::string& w : kWorkloads)
        known = known || w == workload;
    if (!known || !haveSeed || !haveSeconds || !haveTrace)
        return usage(argv[0]);

    std::error_code ec;
    std::filesystem::create_directories(workDir, ec);
    const std::string resultsDir = workDir + "/../results";
    std::filesystem::create_directories(resultsDir, ec);
    config.workDir = workDir;
    Tracer tracer;
    config.tracer = &tracer;

    const HostInfo host = probeHost();
    char fingerprint[1024];
    std::snprintf(
        fingerprint, sizeof fingerprint,
        "{\"nproc\": %u, \"cpu\": %s, \"l2_bytes\": %ld, \"llc_bytes\": %ld, "
        "\"commit\": %s, \"build_type\": %s, \"workload\": %s, "
        "\"seed\": %" PRIu64 ", \"seconds\": %s, \"trace\": %d}",
        host.nproc, jsonString(host.cpuModel).c_str(), host.l2Bytes,
        host.llcBytes, jsonString(commit).c_str(),
        jsonString(PERFBENCH_BUILD_TYPE).c_str(), jsonString(workload).c_str(),
        config.seed, number(config.seconds).c_str(), config.trace ? 1 : 0);
    std::printf("host: %s\n", fingerprint);
    std::fflush(stdout);

    RunReport report;
    if (!runSweepWorkload(workload, config, report))
        runServeWorkload(config, report);
    if (!canonicalize(report, config.trace ? kPerLayer : kEndToEnd,
                      config.trace))
        return 2;

    const double failedFrac =
        report.attempted > 0 ? static_cast<double>(report.failed) /
                                   static_cast<double>(report.attempted)
                             : 1.0;
    std::printf("%-38s %18s  %-6s\n", "metric", "value", "unit");
    for (const Metric& m : report.metrics)
        std::printf("%-38s %18.6g  %-6s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    std::printf("%-38s %18.6g  %-6s %" PRId64 " of %" PRId64 " attempted\n",
                "failed_frac", failedFrac, "ratio", report.failed,
                report.attempted);
    if (config.trace)
        printSelfTimes(tracer.spans());
    for (const std::string& e : report.errors)
        std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());

    const bool correct = report.failed == 0 && report.attempted > 0;
    const std::string metrics = metricsJson(report.metrics);
    const std::string stem = resultsDir + "/" + workload + "-seed" +
                             std::to_string(config.seed) + "-trace" +
                             (config.trace ? "1" : "0");
    if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
        std::fprintf(f,
                     "{\"host\": %s, \"correct\": %s, \"attempted\": %" PRId64
                     ", \"failed\": %" PRId64 ", \"failed_frac\": %s, "
                     "\"metrics\": %s}\n",
                     fingerprint, correct ? "true" : "false",
                     report.attempted, report.failed,
                     number(failedFrac).c_str(), metrics.c_str());
        std::fclose(f);
    }
    if (config.trace && !tracer.writeJsonl(stem + ".spans.jsonl"))
        std::fprintf(stderr, "perfbench: could not write spans\n");

    std::printf("{\"correct\": %s, \"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
                correct ? "true" : "false", report.attempted, report.failed,
                metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
