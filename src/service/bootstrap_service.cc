#include "bootstrap_service.h"

#include <algorithm>
#include <stdexcept>

#include "common/logging.h"
#include "exec/circuit_executor.h"
#include "exec/cosim.h"
#include "exec/functional_backend.h"
#include "exec/timing_backend.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace morphling::service {

namespace {

double
toMicros(ServiceClock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

#if MORPHLING_TELEMETRY_ENABLED
/** Process-wide scrapeable mirror of the per-service StatSet: the
 *  registry view a metrics endpoint exposes (docs/observability.md).
 *  Resolved once; all update paths are lock-free. */
struct ServiceTelem
{
    telemetry::MetricsRegistry &reg = telemetry::MetricsRegistry::instance();
    telemetry::Counter &accepted =
        reg.counter("service.requests_accepted",
                    "requests admitted past backpressure");
    telemetry::Counter &rejected =
        reg.counter("service.requests_rejected",
                    "trySubmit refusals (queue full)");
    telemetry::Counter &completed =
        reg.counter("service.requests_completed", "promises fulfilled");
    telemetry::Counter &batches =
        reg.counter("service.superbatches", "batches dispatched");
    telemetry::Counter &flushFull =
        reg.counter("service.flush_full",
                    "batches dispatched at full size");
    telemetry::Counter &flushTimer =
        reg.counter("service.flush_timer",
                    "partial batches shipped by the flush timer");
    telemetry::Counter &flushDrain =
        reg.counter("service.flush_drain",
                    "partial batches shipped by shutdown drain");
    telemetry::Gauge &queueDepth =
        reg.gauge("service.queue_depth",
                  "submitted requests awaiting superbatch assembly");
    telemetry::Gauge &outstanding =
        reg.gauge("service.outstanding",
                  "accepted-but-uncompleted requests");
    telemetry::Histogram &occupancy =
        reg.histogram("service.batch_occupancy",
                      "requests per dispatched batch");
    telemetry::Histogram &batchLatencyUs =
        reg.histogram("service.batch_latency_us",
                      "batch assembly -> completion");
    telemetry::Histogram &requestLatencyUs =
        reg.histogram("service.request_latency_us",
                      "submit -> completion");
    telemetry::Counter &circuits =
        reg.counter("service.circuits", "circuit submissions accepted");
    telemetry::Histogram &circuitLatencyUs =
        reg.histogram("service.circuit_latency_us",
                      "submitCircuit -> completion");

    static ServiceTelem &
    get()
    {
        static ServiceTelem telem;
        return telem;
    }
};
#endif // MORPHLING_TELEMETRY_ENABLED

/** Deref the shared key material, throwing (not crashing) on null —
 *  runs in the constructor's initializer list, before any member that
 *  needs the params. */
const tfhe::EvaluationKeys &
requireKeys(const std::shared_ptr<const tfhe::EvaluationKeys> &keys)
{
    if (keys == nullptr)
        throw std::invalid_argument(
            "BootstrapService: null key material");
    return *keys;
}

ServiceConfig
normalized(ServiceConfig config,
           const std::shared_ptr<const tfhe::EvaluationKeys> &keys)
{
    if (config.numWorkers == 0) {
        config.numWorkers =
            std::max(1u, std::thread::hardware_concurrency());
    }
    // Fingerprint once per service, not once per batch: every worker
    // backend the kRemote path builds would otherwise re-serialize
    // the BSK just to identify the keys.
    if (config.backend == exec::BackendKind::kRemote &&
        !config.remote.fingerprint.has_value() && keys != nullptr) {
        config.remote.fingerprint =
            tfhe::fingerprintEvaluationKeys(*keys);
    }
    return config;
}

} // namespace

std::optional<std::string>
ServiceConfig::validate() const
{
    if (superbatchSize == 0)
        return "superbatchSize must be positive";
    if (maxOutstanding == 0)
        return "maxOutstanding must be positive";
    if (maxWait.count() < 0)
        return "maxWait must be non-negative (a negative flush timer "
               "would ship every batch before it can fill)";
    if (backend == exec::BackendKind::kTiming) {
        return "BackendKind::kTiming produces cycle counts, not "
               "ciphertexts; the service cannot fulfil requests with "
               "it (use kFunctional, or kCosim for a checked run)";
    }
    // numShards is rejected for every backend, not just the sharded
    // one: a config that flips backend kinds at runtime must not hide
    // a zero until the flip happens.
    if (numShards == 0) {
        return "numShards must be >= 1 (kShardedFunctional divides "
               "superbatch groups by it)";
    }
    if (batch.checkNoise && batch.minSlotSigmas <= 0) {
        return "batch.checkNoise with minSlotSigmas <= 0 can never "
               "flag a thin noise margin; use a positive threshold or "
               "disable checkNoise";
    }
    if (backend == exec::BackendKind::kRemote && remote.port == 0) {
        return "BackendKind::kRemote needs remote.port (the "
               "RemoteServer's TCP port; 0 is not a destination)";
    }
    if (backend == exec::BackendKind::kRemote &&
        remote.maxAttempts == 0) {
        return "remote.maxAttempts must be >= 1 (a request needs at "
               "least one attempt)";
    }
    return std::nullopt;
}

BootstrapService::BootstrapService(tfhe::EvaluationKeys keys,
                                   ServiceConfig config)
    : BootstrapService(std::make_shared<const tfhe::EvaluationKeys>(
                           std::move(keys)),
                       std::move(config))
{
}

BootstrapService::BootstrapService(
    std::shared_ptr<const tfhe::EvaluationKeys> keys,
    ServiceConfig config)
    : keys_(std::move(keys)), config_(normalized(config, keys_)),
      start_(ServiceClock::now()), scheduler_(requireKeys(keys_).params)
{
    // A misconfigured service is the caller's error to report, not a
    // process abort: validate() returns the diagnostic, we throw it.
    if (const auto error = config_.validate())
        throw std::invalid_argument("BootstrapService: " + *error);
    if (!config_.programCacheDir.empty()) {
        diskCache_ = std::make_unique<compiler::ProgramDiskCache>(
            config_.programCacheDir);
    }

    // Create every stat up front so snapshots can lookup() them even
    // before the first request.
    stats_.scalar("accepted", "requests admitted past backpressure");
    stats_.scalar("rejected", "trySubmit refusals (queue full)");
    stats_.scalar("completed", "promises fulfilled");
    stats_.scalar("superbatches", "batches dispatched");
    stats_.scalar("fullBatches", "batches dispatched at full size");
    stats_.scalar("timerFlushes", "partial batches shipped by timer");
    stats_.scalar("drainFlushes", "partial batches shipped by drain");
    stats_.scalar("deadlineMisses", "requests dispatched past deadline");
    stats_.scalar("circuits", "circuit submissions accepted");
    stats_.scalar("circuitsCompleted", "circuit promises fulfilled");
    stats_.scalar("circuitBootstraps", "bootstraps retired in circuits");
    stats_.histogram("occupancy", "requests per dispatched batch");
    stats_.histogram("queueLatencyUs", "submit -> batch assembly");
    stats_.histogram("batchLatencyUs", "batch assembly -> completion");
    stats_.histogram("requestLatencyUs", "submit -> completion");
    stats_.histogram("circuitLatencyUs", "submitCircuit -> completion");

    assembler_ = std::thread(&BootstrapService::assemblerMain, this);
    workers_.reserve(config_.numWorkers);
    for (unsigned w = 0; w < config_.numWorkers; ++w)
        workers_.emplace_back(&BootstrapService::workerMain, this);
}

BootstrapService::~BootstrapService()
{
    shutdown();
}

LutId
BootstrapService::registerLut(std::vector<tfhe::Torus32> lut)
{
    fatal_if(lut.empty(), "cannot register an empty LUT");
    std::lock_guard<std::mutex> lk(mu_);
    fatal_if(draining_, "registerLut on a shut-down BootstrapService");
    luts_.push_back(
        std::make_shared<const std::vector<tfhe::Torus32>>(
            std::move(lut)));
    pending_.emplace_back();
    return static_cast<LutId>(luts_.size() - 1);
}

std::future<tfhe::LweCiphertext>
BootstrapService::submit(tfhe::LweCiphertext ct, LutId lut,
                         std::optional<ServiceClock::time_point> deadline)
{
    auto future = enqueue(std::move(ct), lut, deadline, /*block=*/true);
    panic_if(!future.has_value(), "blocking submit returned no future");
    return std::move(*future);
}

std::optional<std::future<tfhe::LweCiphertext>>
BootstrapService::trySubmit(
    tfhe::LweCiphertext ct, LutId lut,
    std::optional<ServiceClock::time_point> deadline)
{
    return enqueue(std::move(ct), lut, deadline, /*block=*/false);
}

namespace {

void
checkDimension(const tfhe::LweCiphertext &ct, unsigned lwe_dimension)
{
    if (ct.dimension() != lwe_dimension)
        throw std::invalid_argument(
            "ciphertext has LWE dimension " +
            std::to_string(ct.dimension()) + ", keys expect n = " +
            std::to_string(lwe_dimension));
}

} // namespace

void
checkRequest(const tfhe::LweCiphertext &ct, LutId lut,
             unsigned lweDimension, std::size_t numLuts)
{
    checkDimension(ct, lweDimension);
    if (lut >= numLuts)
        throw std::invalid_argument("unknown LUT id " +
                                    std::to_string(lut) + " (" +
                                    std::to_string(numLuts) +
                                    " registered)");
}

void
checkCircuitInputs(const circuit::Circuit &circuit,
                   const std::vector<tfhe::LweCiphertext> &inputs,
                   unsigned lweDimension)
{
    if (inputs.size() != circuit.numInputs())
        throw std::invalid_argument(
            "circuit has " + std::to_string(circuit.numInputs()) +
            " inputs, got " + std::to_string(inputs.size()));
    for (const auto &ct : inputs)
        checkDimension(ct, lweDimension);
}

std::future<std::vector<tfhe::LweCiphertext>>
BootstrapService::submitCircuit(circuit::Circuit circuit,
                                std::vector<tfhe::LweCiphertext> inputs)
{
    MORPHLING_SPAN("service", "submit_circuit");
    // Re-check the config at the circuit entry point as well: the
    // constructor already threw on a bad config, but this keeps the
    // invariant local (and cheap) should construction paths multiply.
    if (const auto error = config_.validate())
        throw std::invalid_argument("BootstrapService: " + *error);
    checkCircuitInputs(circuit, inputs, keys_->params.lweDimension);

    CircuitJob job;
    // A circuit's admission weight is its bootstrap count, so a large
    // circuit occupies proportional superbatch capacity; linear-only
    // circuits still weigh 1 (they hold a promise slot).
    job.cost = std::max<std::uint64_t>(1, circuit.bootstrapCount());
    job.circuit = std::move(circuit);
    job.inputs = std::move(inputs);
    auto future = job.promise.get_future();
    {
        std::unique_lock<std::mutex> lk(mu_);
        fatal_if(draining_,
                 "submitCircuit on a shut-down BootstrapService");
        spaceCv_.wait(lk, [&] {
            return draining_ || outstanding_ < config_.maxOutstanding;
        });
        fatal_if(draining_,
                 "BootstrapService shut down under a blocked "
                 "submitCircuit");
        job.submitted = ServiceClock::now();
        outstanding_ += job.cost;
        ++stats_.scalar("circuits");
        MORPHLING_TELEMETRY_ONLY({
            auto &telem = ServiceTelem::get();
            telem.circuits.inc();
            telem.outstanding.set(static_cast<double>(outstanding_));
        })
        circuitReady_.push_back(std::move(job));
    }
    workCv_.notify_one();
    return future;
}

std::optional<std::future<tfhe::LweCiphertext>>
BootstrapService::enqueue(
    tfhe::LweCiphertext ct, LutId lut,
    std::optional<ServiceClock::time_point> deadline, bool block)
{
    MORPHLING_SPAN("service", "submit");
    std::future<tfhe::LweCiphertext> future;
    {
        std::unique_lock<std::mutex> lk(mu_);
        checkRequest(ct, lut, keys_->params.lweDimension, luts_.size());
        if (block) {
            fatal_if(draining_,
                     "submit on a shut-down BootstrapService");
            spaceCv_.wait(lk, [&] {
                return draining_ ||
                       outstanding_ < config_.maxOutstanding;
            });
            fatal_if(draining_,
                     "BootstrapService shut down under a blocked "
                     "submit");
        } else if (draining_ ||
                   outstanding_ >= config_.maxOutstanding) {
            ++stats_.scalar("rejected");
            MORPHLING_TELEMETRY_ONLY(ServiceTelem::get().rejected.inc();)
            return std::nullopt;
        }

        Request request;
        request.ct = std::move(ct);
        request.deadline = deadline;
        request.submitted = ServiceClock::now();
        future = request.promise.get_future();
        pending_[lut].push_back(std::move(request));
        ++pendingCount_;
        ++outstanding_;
        ++stats_.scalar("accepted");
        MORPHLING_TELEMETRY_ONLY({
            auto &telem = ServiceTelem::get();
            telem.accepted.inc();
            telem.queueDepth.set(static_cast<double>(pendingCount_));
            telem.outstanding.set(static_cast<double>(outstanding_));
        })
    }
    // Wake the assembler: the bucket may be full, or the new request's
    // timer/deadline may be earlier than its current sleep target.
    assembleCv_.notify_one();
    return future;
}

void
BootstrapService::flush()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        flushRequested_ = true;
    }
    assembleCv_.notify_one();
}

void
BootstrapService::assembleLocked(LutId lut, FlushReason reason)
{
    MORPHLING_SPAN("service", "assemble");
    auto &bucket = pending_[lut];
    const std::size_t take =
        std::min<std::size_t>(bucket.size(), config_.superbatchSize);
    panic_if(take == 0, "assembling an empty bucket");

    Superbatch batch;
    batch.lutId = lut;
    batch.lut = luts_[lut];
    batch.reason = reason;
    batch.requests.reserve(take);
    const auto now = ServiceClock::now();
    for (std::size_t i = 0; i < take; ++i) {
        Request &request = bucket.front();
        stats_.histogram("queueLatencyUs")
            .sample(toMicros(now - request.submitted));
        if (request.deadline && now > *request.deadline)
            ++stats_.scalar("deadlineMisses");
        batch.requests.push_back(std::move(request));
        bucket.pop_front();
    }
    pendingCount_ -= take;

    ++stats_.scalar("superbatches");
    stats_.histogram("occupancy").sample(static_cast<double>(take));
    switch (reason) {
      case FlushReason::kFull:
        ++stats_.scalar("fullBatches");
        break;
      case FlushReason::kTimer:
        ++stats_.scalar("timerFlushes");
        break;
      case FlushReason::kDrain:
        ++stats_.scalar("drainFlushes");
        break;
    }
    MORPHLING_TELEMETRY_ONLY({
        auto &telem = ServiceTelem::get();
        telem.batches.inc();
        telem.occupancy.observe(static_cast<double>(take));
        telem.queueDepth.set(static_cast<double>(pendingCount_));
        switch (reason) {
          case FlushReason::kFull:
            telem.flushFull.inc();
            break;
          case FlushReason::kTimer:
            telem.flushTimer.inc();
            break;
          case FlushReason::kDrain:
            telem.flushDrain.inc();
            break;
        }
    })

    ready_.push_back(std::move(batch));
}

std::optional<ServiceClock::time_point>
BootstrapService::nextDueLocked() const
{
    std::optional<ServiceClock::time_point> due;
    auto consider = [&](ServiceClock::time_point t) {
        if (!due || t < *due)
            due = t;
    };
    for (const auto &bucket : pending_) {
        if (bucket.empty())
            continue;
        consider(bucket.front().submitted + config_.maxWait);
        for (const auto &request : bucket) {
            if (request.deadline)
                consider(*request.deadline);
        }
    }
    return due;
}

void
BootstrapService::assemblerMain()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        bool assembled = false;

        // Full buckets always ship (a bucket can exceed the batch size
        // if submissions outpace this thread).
        for (LutId lut = 0; lut < pending_.size(); ++lut) {
            while (pending_[lut].size() >= config_.superbatchSize) {
                assembleLocked(lut, FlushReason::kFull);
                assembled = true;
            }
        }

        if (draining_ || flushRequested_) {
            const auto reason = draining_ ? FlushReason::kDrain
                                          : FlushReason::kTimer;
            for (LutId lut = 0; lut < pending_.size(); ++lut) {
                if (!pending_[lut].empty()) {
                    assembleLocked(lut, reason);
                    assembled = true;
                }
            }
            flushRequested_ = false;
        } else {
            // Timer / deadline flushes: ship buckets whose oldest
            // request has waited maxWait, or that contain a request
            // whose deadline has arrived.
            const auto now = ServiceClock::now();
            for (LutId lut = 0; lut < pending_.size(); ++lut) {
                const auto &bucket = pending_[lut];
                if (bucket.empty())
                    continue;
                bool is_due =
                    now >= bucket.front().submitted + config_.maxWait;
                for (const auto &request : bucket) {
                    if (is_due)
                        break;
                    is_due = request.deadline &&
                             now >= *request.deadline;
                }
                if (is_due) {
                    assembleLocked(lut, FlushReason::kTimer);
                    assembled = true;
                }
            }
        }

        if (assembled)
            workCv_.notify_all();
        if (draining_ && pendingCount_ == 0)
            break;

        if (const auto due = nextDueLocked())
            assembleCv_.wait_until(lk, *due);
        else
            assembleCv_.wait(lk);
    }
    assemblerDone_ = true;
    lk.unlock();
    workCv_.notify_all();
}

const BootstrapService::CachedBatch &
BootstrapService::batchCircuitFor(LutId lut, std::size_t count)
{
    std::lock_guard<std::mutex> lk(programMu_);
    const auto key = std::make_pair(lut, count);
    auto it = batchCircuits_.find(key);
    if (it == batchCircuits_.end()) {
        MORPHLING_SPAN("service", "compile_batch");
        // The one-level circuit: `count` word inputs, each bootstrapped
        // through the registered LUT. Its single LoweredStep's Program
        // is exactly scheduleBootstrapBatch(count), so caching by
        // (lut, count) subsumes the old per-count program cache.
        std::shared_ptr<const std::vector<tfhe::Torus32>> table;
        {
            std::lock_guard<std::mutex> service_lk(mu_);
            table = luts_[lut];
        }
        CachedBatch cached;
        cached.circuit = std::make_unique<circuit::Circuit>();
        const circuit::LutId table_id =
            cached.circuit->registerTorusLut(*table);
        for (std::size_t i = 0; i < count; ++i) {
            const circuit::Wire in = cached.circuit->wordInput(0);
            cached.circuit->markOutput(
                cached.circuit->applyLut(table_id, in));
        }
        cached.lowered = circuit::lower(*cached.circuit, scheduler_,
                                        diskCache_.get());
        it = batchCircuits_.emplace(key, std::move(cached)).first;
    }
    return it->second;
}

std::unique_ptr<exec::ExecutionBackend>
BootstrapService::makeWorkerBackend() const
{
    exec::BackendSpec spec;
    // kCosim's lockstep pair is driven inline in executeBatch; circuit
    // jobs under kCosim run on the functional half.
    spec.kind = config_.backend == exec::BackendKind::kCosim
                    ? exec::BackendKind::kFunctional
                    : config_.backend;
    spec.numShards = config_.numShards;
    spec.timing = config_.timing;
    spec.remote = config_.remote;
    return exec::makeBackend(*keys_, spec);
}

std::vector<tfhe::LweCiphertext>
BootstrapService::executeBatch(
    const Superbatch &batch,
    const std::vector<tfhe::LweCiphertext> &inputs)
{
    const CachedBatch &cached =
        batchCircuitFor(batch.lutId, inputs.size());

    if (config_.backend == exec::BackendKind::kCosim) {
        // The lockstep pair needs both backends at once, which the
        // single-backend CircuitExecutor cannot drive; a one-level
        // circuit is a single Program run, so feed it directly.
        panic_if(cached.lowered.numLevels() != 1 ||
                     cached.lowered.levels[0].size() != 1,
                 "single-LUT batch lowered to an unexpected shape");
        const compiler::Program &program =
            cached.lowered.levels[0][0].program;
        const exec::Job job =
            exec::Job::batch(inputs, *batch.lut, config_.batch);
        exec::FunctionalBackend functional(*keys_);
        exec::TimingBackend timing(config_.timing, keys_->params);
        exec::CosimOptions copts;
        copts.referenceKeys = keys_.get();
        exec::LockstepCosim cosim(functional, timing, copts);
        auto report = cosim.run(program, job);
        panic_if(!report.ok(), "service co-simulation diverged: ",
                 report.summary());
        return std::move(report.functional.outputs);
    }

    auto backend = makeWorkerBackend();
    exec::CircuitExecutor executor(keys_->params, *backend,
                                   config_.batch);
    auto result = executor.run(cached.lowered, inputs);
    panic_if(result.outputs.size() != inputs.size(),
             "batch circuit produced ", result.outputs.size(),
             " outputs for ", inputs.size(), " requests");
    return std::move(result.outputs);
}

std::vector<tfhe::LweCiphertext>
BootstrapService::executeCircuit(CircuitJob &job)
{
    MORPHLING_SPAN("service", "execute_circuit");
    // The disk cache is single-threaded by contract; circuit lowering
    // from concurrent workers serializes on programMu_ only when one
    // is attached (compilation is cheap next to execution).
    const auto lowered = [&] {
        if (diskCache_ == nullptr)
            return circuit::lower(job.circuit, scheduler_);
        std::lock_guard<std::mutex> lk(programMu_);
        return circuit::lower(job.circuit, scheduler_,
                              diskCache_.get());
    }();
    auto backend = makeWorkerBackend();
    exec::CircuitExecutor executor(keys_->params, *backend,
                                   config_.batch);
    auto result = executor.run(lowered, job.inputs);
    return std::move(result.outputs);
}

void
BootstrapService::workerMain()
{
    for (;;) {
        Superbatch batch;
        bool have_batch = false;
        CircuitJob circuit_job;
        {
            std::unique_lock<std::mutex> lk(mu_);
            workCv_.wait(lk, [&] {
                return !ready_.empty() || !circuitReady_.empty() ||
                       assemblerDone_;
            });
            if (!ready_.empty()) {
                // Superbatches first: they aggregate many small
                // requests whose latency budget is the flush timer.
                batch = std::move(ready_.front());
                ready_.pop_front();
                have_batch = true;
            } else if (!circuitReady_.empty()) {
                circuit_job = std::move(circuitReady_.front());
                circuitReady_.pop_front();
            } else {
                return; // drained and assembler retired
            }
        }

        if (!have_batch) {
            auto outputs = executeCircuit(circuit_job);
            const auto t1 = ServiceClock::now();
            const std::uint64_t bootstraps =
                circuit_job.circuit.bootstrapCount();
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++stats_.scalar("circuitsCompleted");
                stats_.scalar("circuitBootstraps") +=
                    static_cast<double>(bootstraps);
                stats_.histogram("circuitLatencyUs")
                    .sample(toMicros(t1 - circuit_job.submitted));
                outstanding_ -= circuit_job.cost;
                MORPHLING_TELEMETRY_ONLY({
                    auto &telem = ServiceTelem::get();
                    telem.circuitLatencyUs.observe(
                        toMicros(t1 - circuit_job.submitted));
                    telem.outstanding.set(
                        static_cast<double>(outstanding_));
                })
            }
            spaceCv_.notify_all();
            if (config_.onComplete) {
                CompletionInfo info;
                info.latencyUs = toMicros(t1 - circuit_job.submitted);
                info.circuit = true;
                info.bootstraps = std::max<std::uint64_t>(1, bootstraps);
                config_.onComplete(info);
            }
            circuit_job.promise.set_value(std::move(outputs));
            continue;
        }

        const std::size_t count = batch.requests.size();
        std::vector<tfhe::LweCiphertext> inputs;
        inputs.reserve(count);
        for (auto &request : batch.requests)
            inputs.push_back(std::move(request.ct));

        const auto t0 = ServiceClock::now();
        std::vector<tfhe::LweCiphertext> outputs;
        {
            MORPHLING_SPAN("service", "execute_batch");
            outputs = executeBatch(batch, inputs);
        }
        const auto t1 = ServiceClock::now();
        panic_if(outputs.size() != count, "batch size mismatch");

        // Book-keeping before fulfilling the promises, so a client
        // that sees its future ready also sees it counted.
        {
            std::lock_guard<std::mutex> lk(mu_);
            stats_.scalar("completed") += static_cast<double>(count);
            stats_.histogram("batchLatencyUs")
                .sample(toMicros(t1 - t0));
            for (const auto &request : batch.requests) {
                stats_.histogram("requestLatencyUs")
                    .sample(toMicros(t1 - request.submitted));
            }
            outstanding_ -= count;
            MORPHLING_TELEMETRY_ONLY({
                auto &telem = ServiceTelem::get();
                telem.completed.inc(count);
                telem.outstanding.set(
                    static_cast<double>(outstanding_));
                telem.batchLatencyUs.observe(toMicros(t1 - t0));
                for (const auto &request : batch.requests) {
                    telem.requestLatencyUs.observe(
                        toMicros(t1 - request.submitted));
                }
            })
        }
        spaceCv_.notify_all();

        // Per-request completion hook (tenant SLO tracking): fired
        // before the promises so a client that sees its future ready
        // also sees its latency recorded.
        if (config_.onComplete) {
            for (const auto &request : batch.requests) {
                CompletionInfo info;
                info.latencyUs = toMicros(t1 - request.submitted);
                info.deadlineMissed =
                    request.deadline && t1 > *request.deadline;
                config_.onComplete(info);
            }
        }

        MORPHLING_SPAN("service", "complete");
        for (std::size_t i = 0; i < count; ++i)
            batch.requests[i].promise.set_value(
                std::move(outputs[i]));
    }
}

void
BootstrapService::shutdown()
{
    std::lock_guard<std::mutex> shutdown_lock(shutdownMu_);
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopped_)
            return;
        draining_ = true;
    }
    assembleCv_.notify_all();
    spaceCv_.notify_all();
    if (assembler_.joinable())
        assembler_.join();
    workCv_.notify_all();
    for (auto &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    std::lock_guard<std::mutex> lk(mu_);
    stopped_ = true;
}

bool
BootstrapService::stopped() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stopped_;
}

std::size_t
BootstrapService::outstanding() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return outstanding_;
}

ServiceStats
BootstrapService::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    ServiceStats out;
    auto scalar = [&](const char *name) {
        return static_cast<std::uint64_t>(stats_.lookup(name).value());
    };
    auto histogram = [&](const char *name) {
        for (const auto *h : stats_.histograms()) {
            if (h->name() == name)
                return *h;
        }
        panic("no histogram '", name, "' in service stats");
    };
    out.accepted = scalar("accepted");
    out.rejected = scalar("rejected");
    out.completed = scalar("completed");
    out.superbatches = scalar("superbatches");
    out.fullBatches = scalar("fullBatches");
    out.timerFlushes = scalar("timerFlushes");
    out.drainFlushes = scalar("drainFlushes");
    out.deadlineMisses = scalar("deadlineMisses");
    out.circuits = scalar("circuits");
    out.circuitsCompleted = scalar("circuitsCompleted");
    out.circuitBootstraps = scalar("circuitBootstraps");
    out.pending = pendingCount_;
    out.outstanding = outstanding_;
    out.elapsedSeconds = std::chrono::duration<double>(
                             ServiceClock::now() - start_)
                             .count();
    out.occupancy = histogram("occupancy");
    out.queueLatencyUs = histogram("queueLatencyUs");
    out.batchLatencyUs = histogram("batchLatencyUs");
    out.requestLatencyUs = histogram("requestLatencyUs");
    out.circuitLatencyUs = histogram("circuitLatencyUs");
    out.raw = stats_;
    return out;
}

} // namespace morphling::service
