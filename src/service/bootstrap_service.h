/**
 * @file
 * The concurrent bootstrap service layer: turns a stream of
 * independent LWE bootstrap requests into the 64-ciphertext
 * superbatches Morphling's scheduler is built around (Figure 6), and
 * runs them on a worker pool over pre-transformed evaluation keys.
 *
 * Request lifecycle (docs/service.md walks through it):
 *
 *   submit()/trySubmit() -> per-LUT pending bucket -> assembler thread
 *   groups compiler::kSuperbatchSize requests sharing a LUT into one
 *   Superbatch (or flushes a partial batch after maxWait, so light
 *   load still makes progress) -> worker pool lowers the batch as a
 *   one-level circuit to a Morphling Program (cached per LUT and batch
 *   size) and executes it through the ServiceConfig::backend execution
 *   backend (docs/execution_model.md) -> each request's std::future is
 *   fulfilled.
 *
 * Whole circuits ride the same pool: submitCircuit() accepts a
 * circuit::Circuit plus its input ciphertexts, a worker lowers it
 * (circuit/lowering.h) and runs the level-ordered Program DAG through
 * an exec::CircuitExecutor over the configured backend
 * (docs/circuit_ir.md). The single-LUT path above *is* the one-level
 * special case of this pipeline — one API, one execution substrate.
 *
 * Backpressure: the number of accepted-but-uncompleted requests is
 * bounded by ServiceConfig::maxOutstanding. submit() blocks for space;
 * trySubmit() fails fast and returns std::nullopt.
 *
 * Shutdown: shutdown() (or the destructor) stops admission, flushes
 * every partial batch, completes every accepted request, and joins all
 * threads. Submitting after shutdown is a fatal() usage error — do not
 * race submitters against shutdown().
 *
 * Thread safety: every public method may be called from any thread.
 * Key material is read-only after construction; each worker drives its
 * own execution backend instance, and the compiled-program cache is the
 * only state batches share.
 */

#ifndef MORPHLING_SERVICE_BOOTSTRAP_SERVICE_H
#define MORPHLING_SERVICE_BOOTSTRAP_SERVICE_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arch/config.h"
#include "circuit/circuit.h"
#include "circuit/lowering.h"
#include "compiler/sw_scheduler.h"
#include "exec/backend.h"
#include "service/service_stats.h"
#include "tfhe/batch.h"

namespace morphling::service {

/** Handle to a LUT registered with the service. */
using LutId = std::uint32_t;

/** The clock used for deadlines, flush timing and latency stats. */
using ServiceClock = std::chrono::steady_clock;

/** One completed submission, as observed by the worker loop. */
struct CompletionInfo
{
    double latencyUs = 0;         //!< submit -> promise fulfilled
    bool circuit = false;         //!< submitCircuit vs single-LUT
    std::uint64_t bootstraps = 1; //!< admission weight released
    bool deadlineMissed = false;  //!< dispatched past its deadline
};

/**
 * Observer invoked by worker threads for every completed request (and
 * once per completed circuit), after the service's own bookkeeping and
 * before the promise is fulfilled. Must be thread-safe and cheap —
 * it runs on the execution hot path. The tenant front door installs
 * one per tenant to feed SLO histograms (tenant_stats.h).
 */
using CompletionObserver = std::function<void(const CompletionInfo &)>;

/**
 * @{ Door checks on client input. Each throws std::invalid_argument
 * naming the mismatch. BootstrapService and the tenant front door run
 * them before they accept or charge for any work, so a malformed
 * request never reaches a worker thread.
 *
 * checkRequest: `ct` must have LWE dimension `lweDimension` and `lut`
 * must be one of the `numLuts` registered ids.
 * checkCircuitInputs: one ciphertext per circuit input, each of LWE
 * dimension `lweDimension`.
 */
void checkRequest(const tfhe::LweCiphertext &ct, LutId lut,
                  unsigned lweDimension, std::size_t numLuts);
void checkCircuitInputs(const circuit::Circuit &circuit,
                        const std::vector<tfhe::LweCiphertext> &inputs,
                        unsigned lweDimension);
/** @} */

/** Configuration of a BootstrapService. */
struct ServiceConfig
{
    /** Requests assembled into one batch; defaults to the paper's
     *  64-LWE superbatch shared with the SW scheduler. */
    unsigned superbatchSize = compiler::kSuperbatchSize;

    /** Worker threads executing batches (0 = hardware concurrency). */
    unsigned numWorkers = 0;

    /** Backpressure bound: accepted-but-uncompleted requests. */
    std::size_t maxOutstanding = 4 * compiler::kSuperbatchSize;

    /** Flush timer: a partial batch ships once its oldest request has
     *  waited this long. */
    std::chrono::microseconds maxWait{2000};

    /** Execution options for one superbatch inside a worker (threads
     *  within the batch, optional noise audit). The default (1 thread
     *  per batch) parallelizes across batches via numWorkers. */
    tfhe::BatchOptions batch;

    /**
     * Which execution backend runs a superbatch's compiled Program.
     * kFunctional is the production path; kShardedFunctional fans each
     * superbatch's group streams out across `numShards` functional
     * workers (exec::ShardedBackend) with bit-identical outputs;
     * kCosim additionally retires the program through the cycle model
     * in lockstep and panics on any divergence (a deep self-check —
     * orders of magnitude slower). kTiming is rejected by validate():
     * it produces no ciphertexts, so the service could never fulfil
     * its promises.
     */
    exec::BackendKind backend = exec::BackendKind::kFunctional;

    /** Shards per superbatch for kShardedFunctional; defaults to the
     *  paper's one-shard-per-group split of the 4-group superbatch. */
    unsigned numShards = compiler::kNumGroups;

    /**
     * Server coordinates and retry policy for kRemote: each worker
     * executes its batches through an exec::RemoteBackend against the
     * exec::RemoteServer at remote.host:remote.port. validate()
     * requires a non-zero port. The service computes the key
     * fingerprint once at construction (when not already supplied),
     * so per-batch backend creation stays cheap.
     */
    exec::RemoteClientConfig remote;

    /** Accelerator geometry for the kCosim timing side. */
    arch::ArchConfig timing;

    /**
     * Directory of the on-disk compiled-Program cache
     * (compiler::ProgramDiskCache). When non-empty, every batch shape
     * the service compiles is persisted there and cold starts load it
     * back instead of re-compiling; corrupt or stale entries fall back
     * to compilation. Empty (the default) keeps the cache in-memory
     * only.
     */
    std::string programCacheDir;

    /** Per-completion observer hook; default none. */
    CompletionObserver onComplete;

    /** First configuration error, or nullopt when the config can run.
     *  The BootstrapService constructor throws std::invalid_argument
     *  with this message instead of aborting the process. */
    std::optional<std::string> validate() const;
};

/**
 * A thread-safe service turning individual bootstrap requests into
 * superbatches executed on a worker pool.
 */
class BootstrapService
{
  public:
    /** Serve with evaluation keys only (the deployment-split server
     *  needs no secret material). Throws std::invalid_argument when
     *  ServiceConfig::validate() rejects the configuration. */
    explicit BootstrapService(tfhe::EvaluationKeys keys,
                              ServiceConfig config = {});

    /** Serve shared key material without copying it — the form the
     *  tenant registry hands out, so an LRU eviction does not tear
     *  the keys out from under a draining service. The pointee is
     *  treated as immutable for the service's lifetime. */
    explicit BootstrapService(
        std::shared_ptr<const tfhe::EvaluationKeys> keys,
        ServiceConfig config = {});

    BootstrapService(const BootstrapService &) = delete;
    BootstrapService &operator=(const BootstrapService &) = delete;

    /** Drains and joins (shutdown()) if still running. */
    ~BootstrapService();

    const ServiceConfig &config() const { return config_; }

    /**
     * Register a LUT the service will bootstrap against; requests
     * reference it by the returned id. Batches never mix LUTs
     * (mirroring the per-LUT test polynomial the hardware holds
     * resident during a group's blind rotations).
     */
    LutId registerLut(std::vector<tfhe::Torus32> lut);

    /**
     * Submit one request, blocking while the service is at its
     * maxOutstanding bound. The future is fulfilled when the
     * containing superbatch completes. Throws std::invalid_argument
     * (checkRequest) on a ciphertext of the wrong dimension or an
     * unknown LUT id; fatal() if the service has been shut down.
     */
    std::future<tfhe::LweCiphertext>
    submit(tfhe::LweCiphertext ct, LutId lut,
           std::optional<ServiceClock::time_point> deadline =
               std::nullopt);

    /**
     * Fail-fast submission: returns std::nullopt instead of blocking
     * when the service is at its backpressure bound (or shut down).
     * Throws like submit() on a malformed request.
     */
    std::optional<std::future<tfhe::LweCiphertext>>
    trySubmit(tfhe::LweCiphertext ct, LutId lut,
              std::optional<ServiceClock::time_point> deadline =
                  std::nullopt);

    /**
     * Submit a whole circuit: `inputs` carries one ciphertext per
     * circuit input (creation order), the future yields one ciphertext
     * per marked output. The circuit is lowered level by level and
     * executed through exec::CircuitExecutor on the configured
     * backend (kCosim circuits run on the functional backend; the
     * lockstep cross-check covers the single-LUT path). The circuit's
     * bootstrap count weighs against maxOutstanding, so big circuits
     * apply proportional backpressure; blocks at the bound like
     * submit(). Throws std::invalid_argument, before accepting any
     * work, when `inputs` does not match the circuit's input count or
     * holds a ciphertext of the wrong dimension (checkCircuitInputs);
     * fatal() if the service has been shut down.
     */
    std::future<std::vector<tfhe::LweCiphertext>>
    submitCircuit(circuit::Circuit circuit,
                  std::vector<tfhe::LweCiphertext> inputs);

    /** Ship every partial batch now instead of waiting for the flush
     *  timer (asynchronous; does not wait for completion). */
    void flush();

    /**
     * Stop admission, flush partial batches, complete every accepted
     * request and join all threads. Idempotent.
     */
    void shutdown();

    /** True once shutdown() has completed. */
    bool stopped() const;

    /** Accepted-but-uncompleted requests right now. */
    std::size_t outstanding() const;

    /** Consistent snapshot of all counters and histograms. */
    ServiceStats stats() const;

  private:
    struct Request
    {
        tfhe::LweCiphertext ct;
        std::optional<ServiceClock::time_point> deadline;
        ServiceClock::time_point submitted;
        std::promise<tfhe::LweCiphertext> promise;
    };

    /** Why a batch left the pending buckets (for the counters). */
    enum class FlushReason
    {
        kFull,
        kTimer,
        kDrain
    };

    struct Superbatch
    {
        LutId lutId = 0;
        std::shared_ptr<const std::vector<tfhe::Torus32>> lut;
        std::vector<Request> requests;
        FlushReason reason = FlushReason::kFull;
    };

    /** One accepted submitCircuit() job awaiting a worker. */
    struct CircuitJob
    {
        circuit::Circuit circuit;
        std::vector<tfhe::LweCiphertext> inputs;
        std::uint64_t cost = 0; //!< outstanding_ weight (bootstraps)
        ServiceClock::time_point submitted;
        std::promise<std::vector<tfhe::LweCiphertext>> promise;
    };

    std::optional<std::future<tfhe::LweCiphertext>>
    enqueue(tfhe::LweCiphertext ct, LutId lut,
            std::optional<ServiceClock::time_point> deadline,
            bool block);

    /** Move up to superbatchSize requests of one bucket into ready_.
     *  Caller holds mu_. */
    void assembleLocked(LutId lut, FlushReason reason);

    /** Earliest instant any pending request becomes due (timer or
     *  deadline). Caller holds mu_. */
    std::optional<ServiceClock::time_point> nextDueLocked() const;

    void assemblerMain();
    void workerMain();

    /** One cached single-LUT batch lowering: the one-level circuit
     *  plus its compiled Program (LoweredCircuit points into the
     *  heap-held Circuit, so entries are stable once created). */
    struct CachedBatch
    {
        std::unique_ptr<circuit::Circuit> circuit;
        circuit::LoweredCircuit lowered;
    };

    /** The one-level circuit bootstrapping `count` ciphertexts through
     *  a registered LUT, lowered on first use and cached (superbatches
     *  repeat sizes heavily: full batches always, partial flushes
     *  often). Thread-safe; the returned reference stays valid for the
     *  service's lifetime. */
    const CachedBatch &batchCircuitFor(LutId lut, std::size_t count);

    /** The backend a worker executes against, per ServiceConfig
     *  (kCosim maps to functional here; the lockstep pair is built
     *  inline in executeBatch). */
    std::unique_ptr<exec::ExecutionBackend> makeWorkerBackend() const;

    /** Execute one assembled superbatch — as a one-level circuit —
     *  through the configured execution backend; returns one output
     *  per input, in order. */
    std::vector<tfhe::LweCiphertext>
    executeBatch(const Superbatch &batch,
                 const std::vector<tfhe::LweCiphertext> &inputs);

    /** Lower and run one submitted circuit. */
    std::vector<tfhe::LweCiphertext> executeCircuit(CircuitJob &job);

    const std::shared_ptr<const tfhe::EvaluationKeys> keys_;
    const ServiceConfig config_;
    const ServiceClock::time_point start_;
    const compiler::SwScheduler scheduler_; //!< compiles superbatches

    mutable std::mutex programMu_; //!< guards batchCircuits_/diskCache_
    std::map<std::pair<LutId, std::size_t>, CachedBatch>
        batchCircuits_;
    std::unique_ptr<compiler::ProgramDiskCache> diskCache_;

    mutable std::mutex mu_;
    std::condition_variable spaceCv_;    //!< submitters await capacity
    std::condition_variable assembleCv_; //!< assembler awaits work
    std::condition_variable workCv_;     //!< workers await batches

    // All fields below are guarded by mu_.
    std::vector<std::shared_ptr<const std::vector<tfhe::Torus32>>>
        luts_;
    std::vector<std::deque<Request>> pending_; //!< one bucket per LUT
    std::deque<Superbatch> ready_;
    std::deque<CircuitJob> circuitReady_; //!< accepted circuits
    std::size_t pendingCount_ = 0;
    std::size_t outstanding_ = 0;
    bool draining_ = false;
    bool flushRequested_ = false;
    bool assemblerDone_ = false;
    bool stopped_ = false;
    sim::StatSet stats_{"service"};

    std::mutex shutdownMu_; //!< serializes shutdown() callers (joins)
    std::thread assembler_;
    std::vector<std::thread> workers_;
};

} // namespace morphling::service

#endif // MORPHLING_SERVICE_BOOTSTRAP_SERVICE_H
