/**
 * @file
 * morphling_perfbench: the repository benchmark. One run executes one
 * workload and prints, as its last line, one JSON object
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * carrying the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1) this workload produces. perfbench/run.py builds this
 * binary, runs it, and checks and completes the metrics against
 * BENCHMARK.json; README.md lists the workloads and metrics.
 *
 *   morphling_perfbench --workload pbs_burst [--seed 1] [--seconds 10]
 *                       [--trace 0|1] [--trace-out trace.json]
 *                       [--git-sha SHA]
 */

#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "tfhe/fft_dispatch.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1; //!< fixed default; printed with every result
    double seconds = 10;    //!< measured window of the (untraced) run
    bool trace = false;     //!< --trace 1: per-layer run
    std::string traceOut;   //!< Chrome-trace JSON path (traced runs)
    std::string gitSha = "unknown";
};

int
usage(const char *why)
{
    std::cerr << "morphling_perfbench: " << why
              << "\nusage: morphling_perfbench --workload "
                 "pbs_burst|tenant_openloop "
                 "[--seed N] [--seconds S] [--trace 0|1] [--trace-out "
                 "FILE] [--git-sha SHA]\n";
    return 2;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "pbs_burst")
        return makePbsBurst(seed);
    if (name == "tenant_openloop")
        return makeTenantOpenloop(seed);
    return nullptr;
}

/**
 * Print the metrics as a table and return them as a JSON object.
 * run.py checks them against BENCHMARK.json, the one list of metric
 * names and units.
 */
std::string
renderMetrics(const Metrics &m)
{
    std::ostringstream json;
    json << std::setprecision(17) << "{";
    const auto &entries = m.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto &e = entries[i];
        const double v = std::isfinite(e.value) ? e.value : 0.0;
        std::cout << "  " << std::left << std::setw(36) << e.name
                  << std::right << std::setw(20) << std::setprecision(8) << v
                  << " " << e.unit << "\n";
        json << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": " << v
             << ", \"unit\": \"" << e.unit << "\"}";
    }
    json << "}";
    return json.str();
}

void
printVerdict(const Verdict &v)
{
    std::cout << "outputs: sent=" << v.sent << " succeeded=" << v.succeeded
              << " failed=" << v.failed << " wrong=" << v.wrong << "\n";
}

int
run(const Options &opts)
{
    auto workload = makeWorkload(opts.workload, opts.seed);
    if (!workload)
        return usage(("unknown workload '" + opts.workload + "'").c_str());

    // Resolve the FFT tier first: its one-time log line would otherwise
    // land inside the context line.
    const auto tier = morphling::tfhe::activeFftDispatchTier();
    std::cout << "context: {\"workload\": \"" << opts.workload
              << "\", \"params\": \"" << workload->params()
              << "\", \"seed\": " << opts.seed
              << ", \"seconds\": " << opts.seconds
              << ", \"trace\": " << (opts.trace ? 1 : 0)
              << ", \"nproc\": " << hostThreads() << ", \"fft_tier\": \""
              << morphling::tfhe::fftDispatchTierName(tier)
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"git_sha\": \"" << opts.gitSha << "\"}\n";

    Verdict verdict;
    Metrics metrics;
    if (!opts.trace) {
        PassResult r = workload->run(opts.seconds, nullptr);
        verdict = r.verdict;
        metrics = r.e2e;
        addCycleModelMetrics(metrics, nullptr, nullptr);
    } else {
        // The traced run: the workload untraced and then traced (half
        // the window each, for the tracing overhead), then the layer
        // replay and the cycle model's per-unit breakdown.
        SpanRecorder spans;
        const PassResult plain = workload->run(opts.seconds / 2, nullptr);
        PassResult traced = workload->run(opts.seconds / 2, &spans);
        verdict = plain.verdict;
        verdict.merge(traced.verdict);
        metrics = traced.layer;
        const double base = plain.e2e.get("latency_p50_ms");
        metrics.set("telemetry.overhead_frac",
                    base > 0 ? traced.e2e.get("latency_p50_ms") / base - 1
                             : 0.0,
                    "frac");
        std::cout << "  tail latency (traced pass): " << traced.tailLine
                  << "\n";
        runLayerReplay(opts.seed, &spans, metrics, verdict);
        Metrics sim;
        addCycleModelMetrics(sim, &metrics, &spans);
        spans.printSelfTimes(std::cout);
        if (!opts.traceOut.empty()) {
            if (spans.writeChromeTrace(opts.traceOut))
                std::cout << "trace: wrote " << opts.traceOut << "\n";
            else
                std::cerr << "trace: cannot write " << opts.traceOut << "\n";
        }
    }

    printVerdict(verdict);
    const std::string json = renderMetrics(metrics);
    std::cout << "{\"correct\": "
              << (verdict.bad() == 0 && verdict.sent > 0 ? "true" : "false")
              << ", \"attempted\": " << std::max<std::uint64_t>(1, verdict.sent)
              << ", \"failed\": " << verdict.bad()
              << ", \"metrics\": " << json << "}" << std::endl;
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return perfbench::usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                opts.workload = value;
            else if (arg == "--seed")
                opts.seed = std::stoull(value);
            else if (arg == "--seconds")
                opts.seconds = std::stod(value);
            else if (arg == "--trace")
                opts.trace = std::stoi(value) != 0;
            else if (arg == "--trace-out")
                opts.traceOut = value;
            else if (arg == "--git-sha")
                opts.gitSha = value;
            else
                return perfbench::usage(("unknown option " + arg).c_str());
        } catch (const std::exception &) {
            return perfbench::usage(("bad value for " + arg).c_str());
        }
    }
    if (opts.workload.empty())
        return perfbench::usage("--workload is required");
    if (!(opts.seconds > 0))
        return perfbench::usage("--seconds must be positive");
    return perfbench::run(opts);
}
