/**
 * @file
 * The multi-tenant front door: routes submissions by TenantId across
 * per-tenant BootstrapServices, with admission control, a bounded
 * key working set, and per-tenant SLO accounting.
 *
 * Why one service per tenant: a superbatch blind-rotates against one
 * BSK, so ciphertexts of different tenants can never share a batch —
 * the tenant is a hard batching boundary. Each tenant therefore gets
 * its own BootstrapService (lazily created on first use) over keys
 * handed out by the TenantRegistry, with `TenantQuota::weight`
 * dedicated worker threads — the per-tenant share of execution
 * capacity.
 *
 * Fairness: admission is a per-tenant token bucket denominated in
 * bootstraps (TenantQuota::ratePerSec / burst). A flooding tenant
 * drains its own bucket and blocks (submit) or bounces (trySubmit)
 * there, before ever reaching the shared machine — so a trickle
 * tenant's latency is bounded by its own service's queue, not by the
 * flood (tests/test_tenant.cc proves the p99 bound under an
 * adversarial neighbour).
 *
 * Key working set: at most maxLiveServices tenants keep a live
 * service at a time. Materializing one more tears down the
 * least-recently-used *idle* service first (a draining or mid-submit
 * tenant is skipped — shutdown must never race submitters), releases
 * its registry keys, and re-admission warms the keys back up from
 * cold storage. Registered LUTs are replayed on re-materialization,
 * so LutIds stay valid across evictions and re-admitted tenants
 * produce bit-identical ciphertexts.
 *
 * Observability: every tenant exports "tenant.<name>.*" counters and
 * a latency histogram through telemetry::MetricsRegistry
 * (Prometheus/JSON), and stats(tenant) folds them into a TenantStats
 * snapshot with p50/p99 estimates and SLO-breach counts.
 *
 * Thread safety: every public method may be called from any thread.
 */

#ifndef MORPHLING_SERVICE_MULTI_TENANT_SERVICE_H
#define MORPHLING_SERVICE_MULTI_TENANT_SERVICE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "service/bootstrap_service.h"
#include "service/tenant_registry.h"
#include "service/tenant_stats.h"

namespace morphling::service {

/** Configuration of a MultiTenantService. */
struct MultiTenantConfig
{
    /** Template of every per-tenant service; numWorkers is replaced
     *  by the tenant's quota weight and onComplete by the tenant
     *  stats hook. */
    ServiceConfig service;

    /** Key working-set bounds (LRU capacity, warm-up accounting). */
    TenantRegistryConfig registry;

    /** Tenants with a live BootstrapService at a time; 0 mirrors
     *  registry.maxResident. */
    std::size_t maxLiveServices = 0;

    /** Metrics destination (nullptr = the process registry). */
    telemetry::MetricsRegistry *metrics = nullptr;
};

class MultiTenantService
{
  public:
    /** Throws std::invalid_argument when the service template or a
     *  capacity knob is rejected (ServiceConfig::validate()). */
    explicit MultiTenantService(MultiTenantConfig config = {});

    MultiTenantService(const MultiTenantService &) = delete;
    MultiTenantService &operator=(const MultiTenantService &) = delete;

    /** Drains every tenant service (shutdown()) if still running. */
    ~MultiTenantService();

    /**
     * Enroll a tenant: keys go to the registry's cold storage (the
     * caller's copy is not retained), the quota takes effect on the
     * next admission. Re-adding an existing tenant updates quota and
     * keys; when the key fingerprint or worker weight changes while
     * the tenant's service is live, that service is drained and torn
     * down so the next submission re-materializes under the new keys
     * and weight. Throws std::invalid_argument on a degenerate quota
     * (negative rate/SLO, zero burst with a rate, zero weight).
     */
    tfhe::KeyFingerprint addTenant(const TenantId &tenant,
                                   const tfhe::EvaluationKeys &keys,
                                   TenantQuota quota = {});

    /** Register a LUT in the tenant's namespace. Ids are per tenant
     *  and survive eviction (replayed on re-materialization). */
    LutId registerLut(const TenantId &tenant,
                      std::vector<tfhe::Torus32> lut);

    /** Submit one bootstrap, blocking first on the tenant's token
     *  bucket, then on the tenant service's backpressure. A
     *  ciphertext of the wrong dimension or an unknown LUT id throws
     *  std::invalid_argument before any token is drawn. */
    std::future<tfhe::LweCiphertext>
    submit(const TenantId &tenant, tfhe::LweCiphertext ct, LutId lut,
           std::optional<ServiceClock::time_point> deadline =
               std::nullopt);

    /** Fail-fast submission: std::nullopt when the tenant's bucket is
     *  empty or its service is saturated — both counted as throttled,
     *  and only a forwarded request counts as submitted. Throws like
     *  submit() on a malformed request. */
    std::optional<std::future<tfhe::LweCiphertext>>
    trySubmit(const TenantId &tenant, tfhe::LweCiphertext ct,
              LutId lut,
              std::optional<ServiceClock::time_point> deadline =
                  std::nullopt);

    /** Submit a whole circuit; draws bootstrapCount() tokens at once,
     *  so big circuits pay proportional admission. A circuit larger
     *  than the bucket depth waits for a full bucket and leaves the
     *  balance negative (paid back at ratePerSec) rather than
     *  blocking forever on tokens the bucket can never hold. A wrong
     *  input count or input dimension throws std::invalid_argument
     *  before any token is drawn. */
    std::future<std::vector<tfhe::LweCiphertext>>
    submitCircuit(const TenantId &tenant, circuit::Circuit circuit,
                  std::vector<tfhe::LweCiphertext> inputs);

    /** Per-tenant snapshot (throws std::out_of_range when unknown). */
    TenantStats stats(const TenantId &tenant) const;

    /** The tenant's underlying ServiceStats while its service is
     *  live; nullopt after an idle eviction. */
    std::optional<ServiceStats>
    serviceStats(const TenantId &tenant) const;

    std::vector<TenantId> tenants() const;

    TenantRegistry &registry() { return registry_; }

    /** Flush every live tenant service's partial batches. */
    void flush();

    /** Stop admission and drain every tenant service. Idempotent. */
    void shutdown();

  private:
    /** The quota is split across its readers' locks: re-adding a
     *  tenant during live traffic rewrites each knob under the lock
     *  (or atomic) its hot-path reader uses, so no reader ever sees a
     *  torn or racing TenantQuota. */
    struct Tenant
    {
        TenantId name;
        tfhe::KeyFingerprint fp = 0; //!< guarded by mu_
        unsigned lweDimension = 0;   //!< of the keys; guarded by mu_

        /** Worker-thread share of the service; guarded by mu_ (read
         *  at materialization). */
        unsigned weight = 1;

        /** LUT tables in registration order, replayed on every
         *  materialization so ids stay stable across evictions. */
        std::vector<std::vector<tfhe::Torus32>> luts;

        std::unique_ptr<BootstrapService> service; //!< guarded by mu_
        std::uint64_t lastUsed = 0; //!< LRU tick, guarded by mu_
        std::atomic<std::uint32_t> inflight{0}; //!< submits in flight

        // Token bucket and its quota knobs, guarded by the owning
        // service's admitMu_.
        double ratePerSec = 0;
        double burst = 0;
        double tokens = 0;
        ServiceClock::time_point lastRefill{};
        bool primed = false; //!< bucket starts full on first admit

        /** SLO bound in microseconds, read lock-free by completion
         *  callbacks on worker threads. */
        std::atomic<double> sloLatencyUs{0};

        // Hot-path stats handles (lock-free; registry-owned).
        telemetry::Counter *submitted = nullptr;
        telemetry::Counter *throttled = nullptr;
        telemetry::Counter *completed = nullptr;
        telemetry::Counter *bootstraps = nullptr;
        telemetry::Counter *sloBreaches = nullptr;
        telemetry::Counter *deadlineMisses = nullptr;
        telemetry::Histogram *latencyUs = nullptr;

        void observe(const CompletionInfo &info);
    };

    /** Decrements Tenant::inflight when a forwarded call returns. */
    struct InflightGuard
    {
        Tenant *t;
        explicit InflightGuard(Tenant *tenant) : t(tenant) {}
        InflightGuard(const InflightGuard &) = delete;
        InflightGuard &operator=(const InflightGuard &) = delete;
        ~InflightGuard()
        {
            t->inflight.fetch_sub(1, std::memory_order_release);
        }
    };

    Tenant &find(const TenantId &tenant);
    const Tenant &find(const TenantId &tenant) const;

    /** checkRequest against the tenant's keys and LUT namespace; runs
     *  before admit() so a rejected request draws no tokens. */
    void checkTenantRequest(const Tenant &t, const tfhe::LweCiphertext &ct,
                            LutId lut) const;

    /** Token-bucket admission of `cost` bootstraps; blocks until the
     *  bucket refills when `block`, else returns false (throttled).
     *  A cost above the bucket depth is admitted once the bucket is
     *  full and drives the balance negative — refill clamps tokens to
     *  burst, so waiting for the full cost would never terminate. */
    bool admit(Tenant &t, double cost, bool block);

    /** Ensure the tenant's service is live (reclaiming the LRU idle
     *  service when at capacity), bump its recency and inflight
     *  count. Returns with mu_ released. */
    BootstrapService &materialize(Tenant &t);

    /** Tear down least-recently-used *idle* services until below
     *  maxLiveServices. Caller holds mu_. */
    void reclaimLocked();

    /** Wait for the tenant's in-flight submitters to drain (releasing
     *  `lk` while sleeping), then shut down and destroy its service
     *  and release its registry keys. Caller holds mu_ via `lk`;
     *  returns with it re-held. No-op when no service is live. */
    void drainAndTeardownLocked(std::unique_lock<std::mutex> &lk,
                                Tenant &t);

    const MultiTenantConfig config_;
    const std::size_t maxLive_;
    telemetry::MetricsRegistry &metrics_;
    TenantRegistry registry_;

    mutable std::mutex mu_; //!< tenant map, services, LRU ticks
    std::map<TenantId, std::unique_ptr<Tenant>> tenants_;
    std::uint64_t useClock_ = 0;
    /** Written under mu_, but also read by admitters holding only
     *  admitMu_ — hence atomic. */
    std::atomic<bool> stopped_{false};

    std::mutex admitMu_; //!< token buckets
    std::condition_variable admitCv_;
};

} // namespace morphling::service

#endif // MORPHLING_SERVICE_MULTI_TENANT_SERVICE_H
