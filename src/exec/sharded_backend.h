/**
 * @file
 * The sharded execution backend: splits a Program's barrier-delimited
 * group streams across N inner backends and merges the per-shard
 * retirement logs back into global program order.
 *
 * The compiled Program's groups are data-independent between barriers
 * (each chunk reads and writes its own slots of the flat input/output
 * arrays; barriers only express stage ordering within a group's own
 * stream), so a superbatch shards across N simulated accelerators or N
 * functional workers by group id with no cross-shard communication.
 * Shard s owns groups {g : g % N == s}; each shard executes its
 * Program::sliceGroups sub-program on its own inner backend, on its
 * own thread, against its own slice of the input ciphertexts.
 *
 * Merge determinism (docs/execution_model.md): per-shard logs are
 * recombined segment by segment — within every barrier-delimited
 * segment, groups in ascending global id, each group's instructions in
 * program order, then the segment's barrier retirements, again in
 * group order. This is byte-for-byte the order FunctionalBackend's
 * group-parallel run() produces, and it is independent of shard count
 * and of how the inner backends interleaved their groups — so a
 * 1-shard, 2-shard and 4-shard run of the same Program emit identical
 * retirement logs and bit-identical outputs.
 *
 * Timing shards are independent accelerators with independent virtual
 * clocks: RetiredInstruction::tick stays shard-local, shardStats()
 * reports per-shard cycles, and the merged SimReport carries the
 * max-over-shards makespan (the fleet finishes when its slowest shard
 * does) with summed work counters — the projection of Table VI-style
 * numbers to N accelerators.
 */

#ifndef MORPHLING_EXEC_SHARDED_BACKEND_H
#define MORPHLING_EXEC_SHARDED_BACKEND_H

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/config.h"
#include "arch/fleet.h"
#include "exec/backend.h"
#include "exec/functional_backend.h"

namespace morphling::exec {

/** Per-shard outcome of the last load(); see
 *  ShardedBackend::shardStats(). */
struct ShardStats
{
    unsigned shard = 0;
    std::vector<std::uint8_t> groups; //!< global group ids owned
    std::size_t instructions = 0;     //!< slice stream length
    std::uint64_t blindRotations = 0; //!< ciphertexts the shard owns
    bool hasReport = false;           //!< timing shard
    std::uint64_t cycles = 0;         //!< shard-local makespan (timing)
    /** Wall time the shard's thread spent in its inner run(). */
    std::uint64_t wallNanos = 0;
    /** CPU time of the shard's thread over the same run — the shard's
     *  critical path if each shard ran on its own host, which is what
     *  bench_sharded_scaling projects throughput from. */
    std::uint64_t cpuNanos = 0;
};

/**
 * Fans a Program out over N inner backends (any mix of functional
 * workers and independent accelerator-backed timing instances), runs
 * the shards concurrently, and presents the merged execution through
 * the ordinary ExecutionBackend interface: load() executes everything
 * eagerly (like TimingBackend), step() replays the deterministically
 * merged retirement log, finish() returns merged outputs (when every
 * shard produced them) and the fleet SimReport (when any shard timed).
 */
class ShardedBackend final : public ExecutionBackend
{
  public:
    /** Take ownership of one inner backend per shard; at least one. */
    explicit ShardedBackend(
        std::vector<std::unique_ptr<ExecutionBackend>> shards);

    /** N functional workers sharing one set of evaluation keys (the
     *  service's kShardedFunctional fan-out). */
    static ShardedBackend functional(const tfhe::EvaluationKeys &keys,
                                     unsigned numShards,
                                     FunctionalConfig config = {});

    /** N independent simulated accelerators of identical geometry. */
    static ShardedBackend timing(const arch::ArchConfig &config,
                                 const tfhe::TfheParams &params,
                                 unsigned numShards);

    /**
     * N accelerators on one shared memory fabric (arch::AcceleratorFleet):
     * BSK fetches broadcast across shards, all shards advance in one
     * event queue, and per-shard cycles are finish ticks on the shared
     * clock — the model that breaks the private-HBM BSK-streaming
     * bound. `params` must outlive the backend.
     */
    static ShardedBackend fleetTiming(const arch::ArchConfig &config,
                                      const tfhe::TfheParams &params,
                                      unsigned numShards);

    std::string_view name() const override { return "sharded"; }

    /** Slice, dispatch every shard on its own thread, join, merge. */
    void load(const compiler::Program &program, const Job &job) override;
    std::optional<RetiredInstruction> step() override;
    bool done() const override;
    ExecutionResult finish() override;

    unsigned numShards() const
    {
        return fleetMode_ ? fleetShards_
                          : static_cast<unsigned>(shards_.size());
    }

    /** True when this backend runs shards over the shared fabric. */
    bool fleetMode() const { return fleetMode_; }

    /** Fleet broadcast telemetry of the last load(); only valid in
     *  fleet mode after a load. */
    const arch::FleetReport &fleetReport() const { return fleetReport_; }

    /**
     * Raw per-shard completion logs (slice-local indices, shared-clock
     * ticks) of the last fleet-mode load(); the co-simulator checks
     * dependency order against these since fleet shards have no inner
     * TimingBackend. Empty outside fleet mode.
     */
    const std::vector<std::vector<RetiredInstruction>> &
    shardCompletions() const
    {
        return shardCompletions_;
    }

    /** Per-shard outcome of the last load(); valid until the next
     *  load(). */
    const std::vector<ShardStats> &shardStats() const { return stats_; }

    /** The sub-program shard `s` executed; valid until the next
     *  load(). */
    const compiler::ProgramSlice &slice(unsigned s) const;

    /** The inner backend of shard `s` (the co-simulator reaches
     *  through this for per-shard completion-order checks). */
    const ExecutionBackend &shardBackend(unsigned s) const;

    /** Max over timing shards' cycles; 0 when no shard reports. */
    std::uint64_t makespan() const { return makespan_; }

  private:
    ShardedBackend() = default; //!< fleet-mode factory path

    void reset();
    void runShardsThreaded(const compiler::Program &program,
                           const Job &job,
                           std::vector<ExecutionResult> &results);
    void runShardsFleet(std::vector<ExecutionResult> &results);
    void mergeRetirement(const compiler::Program &program,
                         std::vector<ExecutionResult> &results);
    void mergeOutputs(const compiler::Program &program,
                      std::vector<ExecutionResult> &results);
    void mergeReports(std::vector<ExecutionResult> &results);

    std::vector<std::unique_ptr<ExecutionBackend>> shards_;

    // Fleet mode (shared-fabric timing): no inner backends; the
    // AcceleratorFleet runs every shard in one event queue.
    bool fleetMode_ = false;
    unsigned fleetShards_ = 0;
    arch::ArchConfig fleetConfig_{};
    const tfhe::TfheParams *fleetParams_ = nullptr;
    arch::FleetReport fleetReport_{};
    std::vector<std::vector<RetiredInstruction>> shardCompletions_;

    // State of the last load(), cleared by the next one.
    std::vector<compiler::ProgramSlice> slices_;
    /** Global input/output slot of each shard-local slot. */
    std::vector<std::vector<std::size_t>> slotMap_;
    std::vector<std::vector<tfhe::LweCiphertext>> shardInputs_;
    std::vector<ShardStats> stats_;
    std::vector<RetiredInstruction> merged_;
    std::vector<tfhe::LweCiphertext> outputs_;
    bool hasOutputs_ = false;
    arch::SimReport report_;
    bool hasReport_ = false;
    std::uint64_t makespan_ = 0;
    std::size_t cursor_ = 0;
    bool loaded_ = false;
};

} // namespace morphling::exec

#endif // MORPHLING_EXEC_SHARDED_BACKEND_H
