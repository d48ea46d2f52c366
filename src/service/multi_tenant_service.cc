#include "multi_tenant_service.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace morphling::service {

namespace {

/** Tenant names embed into metric names; keep them to the safe
 *  alphabet (the Prometheus exporter maps '.' to '_', everything
 *  else must already be legal). */
std::string
sanitized(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        if (!ok)
            c = '_';
    }
    return out;
}

void
validateQuota(const TenantQuota &quota)
{
    if (quota.ratePerSec < 0)
        throw std::invalid_argument(
            "TenantQuota::ratePerSec must be non-negative");
    if (quota.ratePerSec > 0 && quota.burst <= 0)
        throw std::invalid_argument(
            "TenantQuota::burst must be positive when a rate is set "
            "(an empty bucket admits nothing, ever)");
    if (quota.weight == 0)
        throw std::invalid_argument(
            "TenantQuota::weight must be >= 1 (it is the tenant's "
            "worker-thread share)");
    if (quota.sloLatencyUs < 0)
        throw std::invalid_argument(
            "TenantQuota::sloLatencyUs must be non-negative");
}

} // namespace

void
MultiTenantService::Tenant::observe(const CompletionInfo &info)
{
    latencyUs->observe(info.latencyUs);
    completed->inc();
    bootstraps->inc(info.bootstraps);
    const double slo = sloLatencyUs.load(std::memory_order_relaxed);
    if (slo > 0 && info.latencyUs > slo)
        sloBreaches->inc();
    if (info.deadlineMissed)
        deadlineMisses->inc();
}

MultiTenantService::MultiTenantService(MultiTenantConfig config)
    : config_(std::move(config)),
      maxLive_(config_.maxLiveServices != 0
                   ? config_.maxLiveServices
                   : std::max<std::size_t>(1, config_.registry
                                                  .maxResident)),
      metrics_(config_.metrics != nullptr
                   ? *config_.metrics
                   : telemetry::MetricsRegistry::instance()),
      registry_(config_.registry, &metrics_)
{
    // The per-tenant services override numWorkers/onComplete, but
    // every other template knob must already be runnable — fail at
    // the front door, not on the first tenant's first submission.
    ServiceConfig probe = config_.service;
    probe.numWorkers = 1;
    probe.onComplete = nullptr;
    if (const auto error = probe.validate())
        throw std::invalid_argument("MultiTenantService: " + *error);
}

MultiTenantService::~MultiTenantService() { shutdown(); }

tfhe::KeyFingerprint
MultiTenantService::addTenant(const TenantId &tenant,
                              const tfhe::EvaluationKeys &keys,
                              TenantQuota quota)
{
    validateQuota(quota);
    const auto fp = registry_.enroll(tenant, keys);

    std::unique_lock<std::mutex> lk(mu_);
    fatal_if(stopped_, "addTenant on a shut-down MultiTenantService");
    auto [it, inserted] = tenants_.try_emplace(tenant);
    if (inserted) {
        auto t = std::make_unique<Tenant>();
        t->name = tenant;
        const std::string prefix = "tenant." + sanitized(tenant) + ".";
        t->submitted = &metrics_.counter(prefix + "submitted",
                                         "submissions forwarded");
        t->throttled = &metrics_.counter(
            prefix + "throttled", "admission-control refusals");
        t->completed = &metrics_.counter(prefix + "completed",
                                         "promises fulfilled");
        t->bootstraps = &metrics_.counter(prefix + "bootstraps",
                                          "bootstraps retired");
        t->sloBreaches = &metrics_.counter(
            prefix + "slo_breaches",
            "completions slower than the tenant SLO");
        t->deadlineMisses = &metrics_.counter(
            prefix + "deadline_misses",
            "requests dispatched past their deadline");
        t->latencyUs = &metrics_.histogram(
            prefix + "latency_us", "submit -> completion latency");
        it->second = std::move(t);
    }
    Tenant &t = *it->second;
    // A live service keeps the keys and worker count it materialized
    // with: a rotated fingerprint or changed weight must drain and
    // tear it down, or submissions would keep evaluating under the
    // rotated-out keys until an incidental LRU eviction.
    const bool refresh = t.service != nullptr &&
                         (t.fp != fp || t.weight != quota.weight);
    t.fp = fp;
    t.lweDimension = keys.params.lweDimension;
    t.weight = quota.weight;
    if (refresh)
        drainAndTeardownLocked(lk, t);
    lk.unlock();

    // Each quota knob is rewritten under the lock (or atomic) its
    // hot-path reader uses — re-adding a tenant under live traffic
    // must not race admitters or completion callbacks.
    {
        std::lock_guard<std::mutex> alk(admitMu_);
        t.ratePerSec = quota.ratePerSec;
        t.burst = quota.burst;
    }
    // Blocked admitters re-derive their wait from the new rate.
    admitCv_.notify_all();
    t.sloLatencyUs.store(quota.sloLatencyUs,
                         std::memory_order_relaxed);
    return fp;
}

MultiTenantService::Tenant &
MultiTenantService::find(const TenantId &tenant)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        throw std::out_of_range("MultiTenantService: unknown tenant \"" +
                                tenant + "\"");
    return *it->second;
}

const MultiTenantService::Tenant &
MultiTenantService::find(const TenantId &tenant) const
{
    return const_cast<MultiTenantService *>(this)->find(tenant);
}

void
MultiTenantService::checkTenantRequest(const Tenant &t,
                                       const tfhe::LweCiphertext &ct,
                                       LutId lut) const
{
    std::lock_guard<std::mutex> lk(mu_);
    checkRequest(ct, lut, t.lweDimension, t.luts.size());
}

bool
MultiTenantService::admit(Tenant &t, double cost, bool block)
{
    std::unique_lock<std::mutex> lk(admitMu_);
    const auto refill = [&t] {
        const auto now = ServiceClock::now();
        if (!t.primed) {
            t.primed = true;
            t.tokens = t.burst; // first admission: full bucket
        } else {
            const double dt =
                std::chrono::duration<double>(now - t.lastRefill)
                    .count();
            t.tokens = std::min(t.burst,
                                t.tokens + dt * t.ratePerSec);
        }
        t.lastRefill = now;
    };
    refill();
    while (true) {
        // Re-read the quota every pass: a re-enroll may rewrite it
        // (under admitMu_) while we wait, including disabling
        // throttling outright.
        if (t.ratePerSec <= 0)
            return true;
        // Refill clamps tokens to burst, so a cost above the bucket
        // depth could never be covered by waiting. Admit it once the
        // bucket is full and let the balance go negative — the
        // oversized draw is still paid back at ratePerSec.
        const double need = std::min(cost, t.burst);
        if (t.tokens >= need)
            break;
        if (!block) {
            t.throttled->inc();
            return false;
        }
        fatal_if(stopped_,
                 "submit on a shut-down MultiTenantService");
        // Tokens accrue with wall time only: sleep until the deficit
        // is covered (plus a tick), then re-check.
        const double deficit = need - t.tokens;
        const auto wait = std::chrono::microseconds(
            1 + static_cast<std::int64_t>(
                    1e6 * deficit / t.ratePerSec));
        admitCv_.wait_for(lk, wait);
        refill();
    }
    t.tokens -= cost;
    return true;
}

void
MultiTenantService::reclaimLocked()
{
    while (true) {
        std::size_t live = 0;
        Tenant *victim = nullptr;
        for (auto &[name, t] : tenants_) {
            if (t->service == nullptr)
                continue;
            ++live;
            const bool idle =
                t->inflight.load(std::memory_order_acquire) == 0 &&
                t->service->outstanding() == 0;
            if (idle && (victim == nullptr ||
                         t->lastUsed < victim->lastUsed))
                victim = t.get();
        }
        if (live < maxLive_ || victim == nullptr)
            return; // under capacity, or everyone is draining
        victim->service->shutdown();
        victim->service.reset();
        registry_.release(victim->name);
    }
}

void
MultiTenantService::drainAndTeardownLocked(
    std::unique_lock<std::mutex> &lk, Tenant &t)
{
    // A submitter past materialize() (inflight counted, mu_ released)
    // may still be calling into the service — destroying it under
    // them is a use-after-free. Wait the forwarding window out: the
    // count drops as soon as the inner submit returns, and the
    // service keeps retiring work meanwhile, so even a
    // backpressure-blocked submitter drains.
    while (t.service != nullptr &&
           t.inflight.load(std::memory_order_acquire) != 0) {
        lk.unlock();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        lk.lock();
    }
    if (t.service != nullptr) {
        t.service->shutdown();
        t.service.reset();
        registry_.release(t.name);
    }
}

BootstrapService &
MultiTenantService::materialize(Tenant &t)
{
    std::lock_guard<std::mutex> lk(mu_);
    fatal_if(stopped_, "submit on a shut-down MultiTenantService");
    t.lastUsed = ++useClock_;
    t.inflight.fetch_add(1, std::memory_order_acq_rel);
    if (t.service != nullptr)
        return *t.service;

    reclaimLocked();
    auto keys = registry_.acquire(t.name);
    ServiceConfig cfg = config_.service;
    cfg.numWorkers = std::max(1u, t.weight);
    cfg.onComplete = [tenant = &t](const CompletionInfo &info) {
        tenant->observe(info);
    };
    t.service =
        std::make_unique<BootstrapService>(std::move(keys), cfg);
    // Replay the LUT namespace: ids are assigned sequentially, so a
    // re-materialized service reproduces them exactly.
    for (std::size_t i = 0; i < t.luts.size(); ++i) {
        const auto id = t.service->registerLut(t.luts[i]);
        fatal_if(id != static_cast<LutId>(i),
                 "LUT replay produced id ", id, " for slot ", i);
    }
    return *t.service;
}

LutId
MultiTenantService::registerLut(const TenantId &tenant,
                                std::vector<tfhe::Torus32> lut)
{
    auto &t = find(tenant);
    std::lock_guard<std::mutex> lk(mu_);
    fatal_if(stopped_,
             "registerLut on a shut-down MultiTenantService");
    t.luts.push_back(std::move(lut));
    const auto id = static_cast<LutId>(t.luts.size() - 1);
    if (t.service != nullptr) {
        const auto got = t.service->registerLut(t.luts.back());
        fatal_if(got != id, "live service assigned LUT id ", got,
                 ", front door expected ", id);
    }
    return id;
}

std::future<tfhe::LweCiphertext>
MultiTenantService::submit(
    const TenantId &tenant, tfhe::LweCiphertext ct, LutId lut,
    std::optional<ServiceClock::time_point> deadline)
{
    auto &t = find(tenant);
    checkTenantRequest(t, ct, lut);
    admit(t, 1.0, /*block=*/true);
    auto &svc = materialize(t);
    InflightGuard guard(&t);
    t.submitted->inc();
    return svc.submit(std::move(ct), lut, deadline);
}

std::optional<std::future<tfhe::LweCiphertext>>
MultiTenantService::trySubmit(
    const TenantId &tenant, tfhe::LweCiphertext ct, LutId lut,
    std::optional<ServiceClock::time_point> deadline)
{
    auto &t = find(tenant);
    checkTenantRequest(t, ct, lut);
    if (!admit(t, 1.0, /*block=*/false))
        return std::nullopt;
    auto &svc = materialize(t);
    InflightGuard guard(&t);
    auto future = svc.trySubmit(std::move(ct), lut, deadline);
    // Only a forwarded request is "submitted"; a saturation bounce is
    // throttling like an empty bucket, and must not skew the
    // per-tenant accounting the SLO and fairness gates read.
    if (future.has_value())
        t.submitted->inc();
    else
        t.throttled->inc();
    return future;
}

std::future<std::vector<tfhe::LweCiphertext>>
MultiTenantService::submitCircuit(
    const TenantId &tenant, circuit::Circuit circuit,
    std::vector<tfhe::LweCiphertext> inputs)
{
    auto &t = find(tenant);
    {
        // Reject a malformed circuit before admit() draws its tokens.
        std::lock_guard<std::mutex> lk(mu_);
        checkCircuitInputs(circuit, inputs, t.lweDimension);
    }
    const auto cost = std::max<std::uint64_t>(
        1, circuit.bootstrapCount());
    admit(t, static_cast<double>(cost), /*block=*/true);
    auto &svc = materialize(t);
    InflightGuard guard(&t);
    t.submitted->inc();
    return svc.submitCircuit(std::move(circuit), std::move(inputs));
}

TenantStats
MultiTenantService::stats(const TenantId &tenant) const
{
    const auto &t = find(tenant);
    TenantStats s;
    s.tenant = t.name;
    s.submitted = t.submitted->value();
    s.throttled = t.throttled->value();
    s.completed = t.completed->value();
    s.bootstraps = t.bootstraps->value();
    s.sloBreaches = t.sloBreaches->value();
    s.deadlineMisses = t.deadlineMisses->value();
    s.meanLatencyUs = t.latencyUs->mean();
    s.p50LatencyUs = histogramQuantile(*t.latencyUs, 0.50);
    s.p99LatencyUs = histogramQuantile(*t.latencyUs, 0.99);
    {
        std::lock_guard<std::mutex> lk(mu_);
        s.resident = t.service != nullptr;
    }
    return s;
}

std::optional<ServiceStats>
MultiTenantService::serviceStats(const TenantId &tenant) const
{
    const auto &t = find(tenant);
    std::lock_guard<std::mutex> lk(mu_);
    if (t.service == nullptr)
        return std::nullopt;
    return t.service->stats();
}

std::vector<TenantId>
MultiTenantService::tenants() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<TenantId> names;
    names.reserve(tenants_.size());
    for (const auto &[name, t] : tenants_)
        names.push_back(name);
    return names;
}

void
MultiTenantService::flush()
{
    std::lock_guard<std::mutex> lk(mu_);
    for (auto &[name, t] : tenants_) {
        if (t->service != nullptr)
            t->service->flush();
    }
}

void
MultiTenantService::shutdown()
{
    std::unique_lock<std::mutex> lk(mu_);
    if (stopped_)
        return;
    stopped_ = true;
    {
        // Wake blocked admitters; they fatal() on the stopped flag,
        // matching BootstrapService's submit-after-shutdown contract.
        std::lock_guard<std::mutex> alk(admitMu_);
        admitCv_.notify_all();
    }
    // stopped_ keeps new submitters out of materialize(); draining
    // each tenant's inflight count before destroying its service
    // closes the race with one already past it (the same discipline
    // reclaimLocked applies by only ever picking idle victims).
    for (auto &[name, t] : tenants_)
        drainAndTeardownLocked(lk, *t);
}

} // namespace morphling::service
