#include "sharded_backend.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "common/logging.h"
#include "exec/timing_backend.h"
#include "telemetry/metrics.h"
#include "telemetry/sim_bridge.h"
#include "telemetry/telemetry.h"

#if defined(__linux__) || defined(__APPLE__)
#include <time.h>
#endif

namespace morphling::exec {

using compiler::Opcode;

namespace {

/** CPU time of the calling thread; 0 when the platform clock is
 *  unavailable (callers fall back to wall time). */
std::uint64_t
threadCpuNanos()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
        return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
               static_cast<std::uint64_t>(ts.tv_nsec);
    }
#endif
    return 0;
}

std::uint64_t
wallNanosSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

} // namespace

ShardedBackend::ShardedBackend(
    std::vector<std::unique_ptr<ExecutionBackend>> shards)
    : shards_(std::move(shards))
{
    fatal_if(shards_.empty(), "ShardedBackend needs at least one shard");
    for (const auto &shard : shards_)
        fatal_if(shard == nullptr, "ShardedBackend given a null shard");
}

ShardedBackend
ShardedBackend::functional(const tfhe::EvaluationKeys &keys,
                           unsigned numShards, FunctionalConfig config)
{
    fatal_if(numShards == 0, "sharded backend needs >= 1 shard");
    std::vector<std::unique_ptr<ExecutionBackend>> shards;
    shards.reserve(numShards);
    for (unsigned s = 0; s < numShards; ++s)
        shards.push_back(
            std::make_unique<FunctionalBackend>(keys, config));
    return ShardedBackend(std::move(shards));
}

ShardedBackend
ShardedBackend::timing(const arch::ArchConfig &config,
                       const tfhe::TfheParams &params,
                       unsigned numShards)
{
    fatal_if(numShards == 0, "sharded backend needs >= 1 shard");
    std::vector<std::unique_ptr<ExecutionBackend>> shards;
    shards.reserve(numShards);
    for (unsigned s = 0; s < numShards; ++s)
        shards.push_back(std::make_unique<TimingBackend>(config, params));
    return ShardedBackend(std::move(shards));
}

ShardedBackend
ShardedBackend::fleetTiming(const arch::ArchConfig &config,
                            const tfhe::TfheParams &params,
                            unsigned numShards)
{
    fatal_if(numShards == 0, "sharded backend needs >= 1 shard");
    ShardedBackend b;
    b.fleetMode_ = true;
    b.fleetShards_ = numShards;
    b.fleetConfig_ = config;
    b.fleetParams_ = &params;
    return b;
}

const compiler::ProgramSlice &
ShardedBackend::slice(unsigned s) const
{
    panic_if(s >= slices_.size(), "shard ", s, " out of range");
    return slices_[s];
}

const ExecutionBackend &
ShardedBackend::shardBackend(unsigned s) const
{
    panic_if(s >= shards_.size(), "shard ", s, " out of range");
    return *shards_[s];
}

void
ShardedBackend::reset()
{
    slices_.clear();
    slotMap_.clear();
    shardInputs_.clear();
    stats_.clear();
    merged_.clear();
    outputs_.clear();
    hasOutputs_ = false;
    report_ = arch::SimReport{};
    hasReport_ = false;
    makespan_ = 0;
    cursor_ = 0;
    loaded_ = false;
    fleetReport_ = arch::FleetReport{};
    shardCompletions_.clear();
}

void
ShardedBackend::load(const compiler::Program &program, const Job &job)
{
    MORPHLING_SPAN("exec", "sharded.load");
    reset();

    const unsigned n_shards = numShards();
    const unsigned n_groups = program.numGroups();

    // Round-robin shard assignment by group id. Every shard gets at
    // least one (possibly empty) group stream so the fan-out below is
    // uniform in shard count.
    slices_.reserve(n_shards);
    for (unsigned s = 0; s < n_shards; ++s) {
        std::vector<std::uint8_t> groups;
        for (unsigned g = s; g < std::max(n_groups, n_shards);
             g += n_shards)
            groups.push_back(static_cast<std::uint8_t>(g));
        slices_.push_back(program.sliceGroups(
            program.name() + "/shard" + std::to_string(s), groups));
    }

    // Flat input-slot cursor over the whole program, mirroring the
    // functional backend's slot assignment: each DMA.LD_LWE covers the
    // next `count` slots in program emission order.
    std::vector<std::size_t> slot_begin(program.size(), 0);
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < program.size(); ++i) {
        if (program.at(i).op == Opcode::DmaLoadLwe) {
            slot_begin[i] = cursor;
            cursor += program.at(i).count;
        }
    }

    slotMap_.resize(n_shards);
    shardInputs_.resize(n_shards);
    for (unsigned s = 0; s < n_shards; ++s) {
        for (const std::size_t gi : slices_[s].globalIndex) {
            const auto &inst = program.at(gi);
            if (inst.op != Opcode::DmaLoadLwe)
                continue;
            for (unsigned k = 0; k < inst.count; ++k)
                slotMap_[s].push_back(slot_begin[gi] + k);
        }
        if (job.inputs != nullptr) {
            shardInputs_[s].reserve(slotMap_[s].size());
            for (const std::size_t slot : slotMap_[s]) {
                panic_if(slot >= job.inputs->size(),
                         "shard slot ", slot, " beyond the job's ",
                         job.inputs->size(), " inputs");
                shardInputs_[s].push_back((*job.inputs)[slot]);
            }
        }
    }

    // Fan out. Private-memory shards run on their own threads against
    // their own inner backends; fleet shards advance together in one
    // shared-fabric event queue.
    std::vector<ExecutionResult> results(n_shards);
    stats_.resize(n_shards);
    if (fleetMode_)
        runShardsFleet(results);
    else
        runShardsThreaded(program, job, results);

    const auto merge0 = std::chrono::steady_clock::now();
    {
        MORPHLING_SPAN("exec", "sharded.merge");
        mergeRetirement(program, results);
        mergeOutputs(program, results);
        mergeReports(results);
    }

    MORPHLING_TELEMETRY_ONLY({
        auto &reg = telemetry::MetricsRegistry::instance();
        reg.counter("exec.sharded.runs", "sharded program executions")
            .inc();
        reg.gauge("exec.sharded.shards", "shards in the last run")
            .set(static_cast<double>(n_shards));
        const double total =
            std::max<double>(1.0, static_cast<double>(program.size()));
        for (unsigned s = 0; s < n_shards; ++s) {
            reg.gauge("exec.sharded.shard" + std::to_string(s) +
                          ".occupancy",
                      "fraction of the program's instructions this "
                      "shard executed in the last run")
                .set(static_cast<double>(stats_[s].instructions) /
                     total);
        }
        reg.histogram("exec.sharded.merge_latency_us",
                      "per-shard retirement logs -> global program "
                      "order")
            .observe(static_cast<double>(wallNanosSince(merge0)) /
                     1e3);
        // Per-shard virtual-time tracks: one interval per timing
        // shard spanning its local makespan, rendered next to the
        // per-component tracks in the Chrome trace.
        for (unsigned s = 0; s < n_shards; ++s) {
            if (stats_[s].hasReport) {
                MORPHLING_SIM_INTERVAL(
                    "sharded.shard" + std::to_string(s), "makespan",
                    0, stats_[s].cycles, 0);
            }
        }
    })

    loaded_ = true;
}

void
ShardedBackend::runShardsThreaded(const compiler::Program &program,
                                  const Job &job,
                                  std::vector<ExecutionResult> &results)
{
    (void)program;
    const unsigned n_shards = numShards();
    auto run_shard = [&](unsigned s) {
        MORPHLING_SPAN("exec", "sharded.shard");
        const auto wall0 = std::chrono::steady_clock::now();
        const std::uint64_t cpu0 = threadCpuNanos();
        Job shard_job;
        shard_job.inputs = &shardInputs_[s];
        shard_job.lut = job.lut;
        shard_job.signLut = job.signLut;
        shard_job.options = job.options;
        results[s] = shards_[s]->run(slices_[s].program, shard_job);
        const std::uint64_t cpu1 = threadCpuNanos();
        auto &st = stats_[s];
        st.shard = s;
        st.groups = slices_[s].groups;
        st.instructions = slices_[s].program.size();
        st.blindRotations = slices_[s].program.totalBlindRotations();
        st.wallNanos = wallNanosSince(wall0);
        st.cpuNanos =
            (cpu1 > cpu0) ? cpu1 - cpu0 : st.wallNanos; // clockless hosts
        st.hasReport = results[s].hasReport;
        st.cycles = results[s].hasReport ? results[s].report.cycles : 0;
    };
    if (n_shards == 1) {
        run_shard(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(n_shards);
        for (unsigned s = 0; s < n_shards; ++s)
            pool.emplace_back(run_shard, s);
        for (auto &t : pool)
            t.join();
    }
}

void
ShardedBackend::runShardsFleet(std::vector<ExecutionResult> &results)
{
    MORPHLING_SPAN("exec", "sharded.fleet");
    const unsigned n_shards = numShards();
    const auto wall0 = std::chrono::steady_clock::now();
    const std::uint64_t cpu0 = threadCpuNanos();

    arch::AcceleratorFleet fleet(fleetConfig_, *fleetParams_, n_shards);
    std::vector<const compiler::Program *> programs;
    std::vector<arch::RetireHook> hooks;
    programs.reserve(n_shards);
    hooks.reserve(n_shards);
    shardCompletions_.assign(n_shards, {});
    for (unsigned s = 0; s < n_shards; ++s) {
        programs.push_back(&slices_[s].program);
        auto &log = shardCompletions_[s];
        log.reserve(slices_[s].program.size());
        hooks.push_back([&log](std::size_t index,
                               const compiler::Instruction &inst,
                               std::uint64_t tick) {
            RetiredInstruction r;
            r.index = index;
            r.inst = inst;
            r.seq = log.size();
            r.tick = tick;
            log.push_back(r);
        });
    }
    fleetReport_ = fleet.run(programs, hooks);

    const std::uint64_t cpu1 = threadCpuNanos();
    const std::uint64_t wall = wallNanosSince(wall0);
    for (unsigned s = 0; s < n_shards; ++s) {
        results[s].backend = "fleet-timing";
        results[s].retired = architecturalRetirement(
            slices_[s].program, shardCompletions_[s]);
        results[s].hasOutputs = false;
        results[s].hasReport = slices_[s].program.size() > 0;
        results[s].report = fleetReport_.shards[s];
        auto &st = stats_[s];
        st.shard = s;
        st.groups = slices_[s].groups;
        st.instructions = slices_[s].program.size();
        st.blindRotations = slices_[s].program.totalBlindRotations();
        // Every fleet shard advances in the same event queue on one
        // host thread; per-shard host time is not separable.
        st.wallNanos = wall;
        st.cpuNanos = (cpu1 > cpu0) ? cpu1 - cpu0 : wall;
        st.hasReport = results[s].hasReport;
        st.cycles = results[s].hasReport ? results[s].report.cycles : 0;
    }
}

void
ShardedBackend::mergeRetirement(const compiler::Program &program,
                                std::vector<ExecutionResult> &results)
{
    const unsigned n_groups = program.numGroups();
    // Per-group queues in global coordinates. Each shard retires its
    // groups in program order (the retirement contract), so a group's
    // queue is its stream in program order no matter how the inner
    // backend interleaved its groups.
    std::vector<std::vector<RetiredInstruction>> queue(n_groups);
    for (unsigned s = 0; s < numShards(); ++s) {
        const auto &slice = slices_[s];
        panic_if(results[s].retired.size() != slice.program.size(),
                 "shard ", s, " retired ", results[s].retired.size(),
                 " of ", slice.program.size(), " instructions");
        for (const auto &r : results[s].retired) {
            panic_if(r.index >= slice.globalIndex.size(),
                     "shard ", s, " retired out-of-range index ",
                     r.index);
            const std::size_t gi = slice.globalIndex[r.index];
            RetiredInstruction global = r;
            global.index = gi;
            global.inst = program.at(gi);
            queue[global.inst.group].push_back(global);
        }
    }

    // Deterministic interleave, reproducing FunctionalBackend's
    // group-parallel order exactly: per barrier-delimited segment,
    // groups ascending, program order within a group, then the
    // segment's barrier retirements in group order.
    merged_.reserve(program.size());
    std::vector<std::size_t> head(n_groups, 0);
    auto emit = [&](const RetiredInstruction &r) {
        merged_.push_back(r);
        merged_.back().seq = merged_.size() - 1;
    };
    while (merged_.size() < program.size()) {
        for (unsigned g = 0; g < n_groups; ++g) {
            auto &q = queue[g];
            while (head[g] < q.size() &&
                   q[head[g]].inst.op != Opcode::Barrier)
                emit(q[head[g]++]);
        }
        bool released = false;
        for (unsigned g = 0; g < n_groups; ++g) {
            auto &q = queue[g];
            if (head[g] < q.size() &&
                q[head[g]].inst.op == Opcode::Barrier) {
                emit(q[head[g]++]);
                released = true;
            }
        }
        if (!released && merged_.size() < program.size())
            panic("sharded merge stalled at ", merged_.size(), " of ",
                  program.size(), " instructions");
    }
}

void
ShardedBackend::mergeOutputs(const compiler::Program &program,
                             std::vector<ExecutionResult> &results)
{
    hasOutputs_ = true;
    for (const auto &r : results)
        hasOutputs_ = hasOutputs_ && r.hasOutputs;
    if (!hasOutputs_)
        return;

    const std::uint64_t total = program.totalBlindRotations();
    unsigned dim = 0;
    for (const auto &r : results) {
        if (!r.outputs.empty()) {
            dim = r.outputs.front().dimension();
            break;
        }
    }
    outputs_.assign(total, tfhe::LweCiphertext(dim));
    for (unsigned s = 0; s < numShards(); ++s) {
        panic_if(results[s].outputs.size() != slotMap_[s].size(),
                 "shard ", s, " produced ", results[s].outputs.size(),
                 " outputs for ", slotMap_[s].size(), " slots");
        for (std::size_t j = 0; j < slotMap_[s].size(); ++j)
            outputs_[slotMap_[s][j]] = std::move(results[s].outputs[j]);
    }
}

void
ShardedBackend::mergeReports(std::vector<ExecutionResult> &results)
{
    // Fleet view over the timing shards: the run finishes when the
    // slowest shard does (makespan = max), work counters sum across
    // chips, utilizations are re-derived against the fleet makespan.
    // Per-chip detail stays available through shardStats() and the
    // shard backends.
    unsigned reporting = 0;
    std::uint64_t bootstraps = 0;
    for (const auto &r : results) {
        if (!r.hasReport)
            continue;
        if (reporting == 0)
            report_ = r.report; // param echo, breakdown maps
        ++reporting;
        makespan_ = std::max(makespan_, r.report.cycles);
        bootstraps += r.report.bootstraps;
    }
    hasReport_ = reporting > 0;
    if (!hasReport_)
        return;

    arch::SimReport fleet = report_;
    fleet.cycles = makespan_;
    fleet.seconds = 0;
    fleet.bootstraps = bootstraps;
    fleet.hbmBytes = 0;
    fleet.bskBytes = 0;
    fleet.vpuDmaBytes = 0;
    fleet.vpuKsCycles = 0;
    fleet.vpuMsCycles = 0;
    fleet.vpuSeCycles = 0;
    fleet.vpuPaluCycles = 0;
    fleet.xpuBusyCycles = 0;
    fleet.xpuStallCycles = 0;
    fleet.chipPowerW = 0;
    fleet.nocAggregateTBs = 0;
    fleet.pipelineLatencyMs = 0;
    fleet.meanChunkLatencyMs = 0;
    for (const auto &r : results) {
        if (!r.hasReport)
            continue;
        const auto &rep = r.report;
        fleet.seconds = std::max(fleet.seconds, rep.seconds);
        fleet.hbmBytes += rep.hbmBytes;
        fleet.bskBytes += rep.bskBytes;
        fleet.vpuDmaBytes += rep.vpuDmaBytes;
        fleet.vpuKsCycles += rep.vpuKsCycles;
        fleet.vpuMsCycles += rep.vpuMsCycles;
        fleet.vpuSeCycles += rep.vpuSeCycles;
        fleet.vpuPaluCycles += rep.vpuPaluCycles;
        fleet.xpuBusyCycles += rep.xpuBusyCycles;
        fleet.xpuStallCycles += rep.xpuStallCycles;
        fleet.chipPowerW += rep.chipPowerW;
        fleet.nocAggregateTBs += rep.nocAggregateTBs;
        fleet.pipelineLatencyMs =
            std::max(fleet.pipelineLatencyMs, rep.pipelineLatencyMs);
        fleet.meanChunkLatencyMs =
            std::max(fleet.meanChunkLatencyMs, rep.meanChunkLatencyMs);
    }
    const double span_cycles = static_cast<double>(
        std::max<std::uint64_t>(1, makespan_) * reporting);
    fleet.xpuBusyFrac =
        static_cast<double>(fleet.xpuBusyCycles) / span_cycles;
    fleet.xpuStallFrac =
        static_cast<double>(fleet.xpuStallCycles) / span_cycles;
    if (fleet.seconds > 0) {
        fleet.throughputBs =
            static_cast<double>(fleet.bootstraps) / fleet.seconds;
        fleet.hbmAchievedGBs =
            static_cast<double>(fleet.hbmBytes) / fleet.seconds / 1e9;
        if (fleet.bootstraps > 0) {
            fleet.energyPerBsUj = fleet.chipPowerW * fleet.seconds /
                                  static_cast<double>(fleet.bootstraps) *
                                  1e6;
        }
    }
    report_ = fleet;
}

std::optional<RetiredInstruction>
ShardedBackend::step()
{
    panic_if(!loaded_, "step() before load()");
    if (cursor_ >= merged_.size())
        return std::nullopt;
    return merged_[cursor_++];
}

bool
ShardedBackend::done() const
{
    return loaded_ && cursor_ >= merged_.size();
}

ExecutionResult
ShardedBackend::finish()
{
    panic_if(!loaded_, "finish() before load()");
    panic_if(!done(), "finish() before the program fully retired");
    ExecutionResult result;
    result.backend = name();
    result.outputs = std::move(outputs_);
    result.hasOutputs = hasOutputs_;
    result.report = report_;
    result.hasReport = hasReport_;
    result.retired = std::move(merged_);
    merged_.clear();
    outputs_.clear();
    cursor_ = 0;
    loaded_ = false;
    return result;
}

} // namespace morphling::exec
