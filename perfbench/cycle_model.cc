/**
 * @file
 * The cycle model (src/arch, src/sim): the exact simulated-throughput
 * metrics every run reports (Table V on sets I-IV, and a 4-shard
 * shared-HBM fleet on set I), and its per-unit breakdown for traced
 * runs.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <iterator>

#include "arch/accelerator.h"
#include "arch/config.h"
#include "compiler/sw_scheduler.h"
#include "exec/sharded_backend.h"
#include "workloads.h"

namespace perfbench {

using namespace morphling;

namespace {

/** LWEs per Table V measurement. */
constexpr std::uint64_t kTableVBatch = 2048;
/** LWEs of the fleet superbatch and its shard count. */
constexpr std::uint64_t kFleetBatch = 1024;
constexpr unsigned kFleetShards = 4;

/** The paper's Table V Morphling throughput (BS/s) on sets I-IV. */
struct PaperRow
{
    const char *set;
    double throughput;
};
constexpr PaperRow kPaperTableV[] = {
    {"I", 147615}, {"II", 78692}, {"III", 41850}, {"IV", 98933}};

/** The fleet's 16-group phase-aligned schedule (bench_sharded_scaling). */
compiler::Program
fleetProgram()
{
    compiler::SchedulerConfig config;
    config.numGroups = 16;
    config.groupSize = 16;
    config.interleave = compiler::InterleaveMode::kGroupInterleaved;
    return compiler::SwScheduler(tfhe::paramsSetI(), config)
        .scheduleBootstrapBatch(kFleetBatch);
}

} // namespace

void
addCycleModelMetrics(Metrics &e2e, Metrics *layer, SpanRecorder *spans)
{
    ScopedSpan root(spans, "cycle_model");
    const arch::ArchConfig config = arch::ArchConfig::morphlingDefault();

    double err = 0;
    arch::SimReport set1;
    double set1_host_ms = 0;
    for (const auto &row : kPaperTableV) {
        const arch::Accelerator acc(config, tfhe::paramsByName(row.set));
        ScopedSpan span(spans, std::string("sim.table5.") + row.set,
                        root.id());
        const auto t0 = Clock::now();
        const arch::SimReport rep = acc.runBootstrapBatch(kTableVBatch);
        if (std::string(row.set) == "I") {
            set1 = rep;
            set1_host_ms = msSince(t0);
        }
        err += std::abs(rep.throughputBs - row.throughput) / row.throughput;
        std::cout << "  cycle model: set " << row.set << " "
                  << rep.throughputBs << " BS/s (paper " << row.throughput
                  << "), " << rep.cycles << " cycles\n";
    }
    err /= static_cast<double>(std::size(kPaperTableV));

    const auto program = fleetProgram();
    auto fleet = exec::ShardedBackend::fleetTiming(config, tfhe::paramsSetI(),
                                                   kFleetShards);
    {
        ScopedSpan span(spans, "sim.fleet", root.id());
        (void)fleet.run(program, exec::Job{});
    }
    const arch::FleetReport &fr = fleet.fleetReport();
    const double fleet_bs =
        fr.makespanSeconds > 0
            ? static_cast<double>(kFleetBatch) / fr.makespanSeconds
            : 0.0;
    std::cout << "  cycle model: fleet of " << kFleetShards << ", "
              << kFleetBatch << " LWEs in " << fr.makespanCycles
              << " cycles = " << fleet_bs << " BS/s\n";

    e2e.set("sim_bs_per_s", set1.throughputBs, "BS/s");
    e2e.set("sim_fleet_bs_per_s", fleet_bs, "BS/s");
    e2e.set("sim_err_frac", err, "frac");
    if (!layer)
        return;

    double noc_max = 0;
    for (const auto &[link, util] : set1.nocUtilization)
        noc_max = std::max(noc_max, util);
    layer->set("arch.cycles", static_cast<double>(set1.cycles), "cycles");
    layer->set("arch.fleet_cycles", static_cast<double>(fr.makespanCycles),
               "cycles");
    layer->set("arch.bsk_bytes", static_cast<double>(set1.bskBytes), "B");
    layer->set("arch.hbm_bytes", static_cast<double>(set1.hbmBytes), "B");
    layer->set("arch.xpu_busy_frac", set1.xpuBusyFrac, "frac");
    layer->set("arch.xpu_stall_frac", set1.xpuStallFrac, "frac");
    layer->set("arch.vpu_busy_frac", set1.vpuBusyFrac, "frac");
    layer->set("arch.hbm_gbs", set1.hbmAchievedGBs, "GB/s");
    layer->set("arch.noc_util_max", noc_max, "frac");
    layer->set("arch.pipeline_latency_ms", set1.pipelineLatencyMs, "ms");
    layer->set("arch.fleet_broadcast_amortization", fr.broadcastAmortization,
               "x");
    layer->set("sim.host_ms", set1_host_ms, "ms");
}

} // namespace perfbench
