/**
 * @file
 * The benchmark workloads behind one interface, plus the input
 * generators the traced layer replay shares with them (so the replay
 * drives a sample of the workloads' own inputs).
 */

#ifndef MORPHLING_PERFBENCH_WORKLOADS_H
#define MORPHLING_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "tfhe/torus.h"

namespace perfbench {

/** Result of one measured pass of a workload. */
struct PassResult
{
    Verdict verdict;
    /** ops_per_s, latency_p50_ms, slo_met_frac, setup_s and
     *  server_mem_mb. */
    Metrics e2e;
    /** Workload-specific per-layer numbers (service stats, generator
     *  lateness, client costs). */
    Metrics layer;
    /** Tail latencies with their sample count (traced output only). */
    std::string tailLine;
};

/**
 * One benchmark workload. The constructor does the client-side work
 * (key generation, encryption, open-loop schedule) before any timing;
 * run() sets the server up several times and then measures.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Parameter set(s) the workload runs on, for the context stamp. */
    virtual std::string params() const = 0;

    /** Set up and measure for `seconds`; spans go to `spans` when it is
     *  not null. */
    virtual PassResult run(double seconds, SpanRecorder *spans) = 0;
};

/** @{ The workloads, by BENCHMARK.json name (serving.cc). */
std::unique_ptr<Workload> makePbsBurst(std::uint64_t seed);
std::unique_ptr<Workload> makeTenantOpenloop(std::uint64_t seed);
/** @} */

/**
 * Cycle-model metrics every run reports (cycle_model.cc): sim_bs_per_s,
 * sim_fleet_bs_per_s and sim_err_frac, workload-independent and exact.
 * With `layer` set, the per-unit arch.* / sim.* breakdown is added.
 */
void addCycleModelMetrics(Metrics &e2e, Metrics *layer,
                          SpanRecorder *spans);

/**
 * The traced layer replay (layers.cc): per-layer numbers from calls
 * into each module's public entry points, driven by a sample of the
 * workloads' own inputs for `seed`. Every output it produces is
 * verified into `verdict`.
 */
void runLayerReplay(std::uint64_t seed, SpanRecorder *spans,
                    Metrics &layer, Verdict &verdict);

/** @{ Seed salts: keys and encryptions draw distinct streams of one
 *  seed, identically in the workloads and the replay. */
inline constexpr std::uint64_t kKeySalt = 0x6B657973ull;
inline constexpr std::uint64_t kEncryptSalt = 0x656E6372ull;
/** @} */

/** @{ Inputs shared by pbs_burst and the layer replay. */
inline constexpr std::uint32_t kMessageSpace = 4;

/** The service LUT: m -> (m + 1) mod 4. */
std::vector<morphling::tfhe::Torus32> pbsLut();

/** `count` plaintexts in [0, 4) drawn from `seed`. */
std::vector<std::uint32_t> pbsMessages(std::uint64_t seed,
                                       std::size_t count);
/** @} */

} // namespace perfbench

#endif // MORPHLING_PERFBENCH_WORKLOADS_H
