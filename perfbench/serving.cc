/**
 * @file
 * The two serving workloads: pbs_burst (bursts of full superbatches
 * through one BootstrapService) and tenant_openloop (an
 * open-loop Poisson schedule through the MultiTenantService front
 * door). README.md explains why each exists.
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "compiler/sw_scheduler.h"
#include "service/bootstrap_service.h"
#include "service/multi_tenant_service.h"
#include "telemetry/metrics.h"
#include "tfhe/encoding.h"
#include "tfhe/serialize.h"
#include "workloads.h"

namespace perfbench {

using namespace morphling;
using service::BootstrapService;
using service::LutId;

namespace {

constexpr std::uint64_t kScheduleSalt = 0x73636864ull;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
micros(Clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

/** Handoff from a submitting thread to a collecting one, in order;
 *  pop() returns nullopt once the queue is closed and drained. */
template <class T>
class Handoff
{
  public:
    void push(T item)
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            items_.push_back(std::move(item));
        }
        cv_.notify_one();
    }

    void close()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            closed_ = true;
        }
        cv_.notify_one();
    }

    std::optional<T> pop()
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return !items_.empty() || closed_; });
        if (items_.empty())
            return std::nullopt;
        T item = std::move(items_.front());
        items_.pop_front();
        return item;
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<T> items_;
    bool closed_ = false;
};

/** Set-up repetitions per run; setup_s reports their median. */
constexpr unsigned kSetupReps = 15;

/** Evaluation keys as the client ships them: the canonical wire bytes. */
std::string
wireKeys(const tfhe::KeySet &keys)
{
    std::ostringstream os;
    tfhe::saveEvaluationKeys(os, tfhe::EvaluationKeys::fromKeySet(keys));
    return os.str();
}

/** Free the client's copies of the evaluation keys once they are on the
 *  wire; the client keeps only its secret keys. */
void
dropEvaluationKeys(tfhe::KeySet &keys)
{
    keys.bsk = {};
    keys.ksk = {};
}

/** Server-side key materialization from the wire bytes. */
std::shared_ptr<const tfhe::EvaluationKeys>
loadKeys(std::istream &is)
{
    return std::make_shared<const tfhe::EvaluationKeys>(
        tfhe::loadEvaluationKeys(is));
}

/** Latency summary shared by the serving workloads. */
void
addLatency(PassResult &r, std::vector<double> latency_ms,
           double limit_ms, std::uint64_t in_limit)
{
    const std::size_t n = latency_ms.size();
    const double p50 = quantile(latency_ms, 0.5);
    r.e2e.set("latency_p50_ms", p50, "ms");
    r.e2e.set("slo_met_frac",
              r.verdict.sent ? static_cast<double>(in_limit) /
                                   static_cast<double>(r.verdict.sent)
                             : 0.0,
              "frac");
    std::cout << "  latency: p50=" << p50 << " ms (n=" << n
              << "), limit " << limit_ms << " ms met by " << in_limit
              << "/" << r.verdict.sent << "\n";
    r.tailLine = "p90=" + std::to_string(quantile(latency_ms, 0.9)) +
                 " ms, p99=" + std::to_string(quantile(latency_ms, 0.99)) +
                 " ms (n=" + std::to_string(n) + ")";
}

/** Batch numbers from ServiceStats (single-LUT batches only). */
void
addServiceStats(Metrics &layer, const std::vector<service::ServiceStats> &all,
                unsigned superbatch)
{
    double queue_us = 0, exec_ms = 0, fill = 0;
    std::uint64_t batches = 0, timer = 0, samples = 0;
    for (const auto &s : all) {
        const auto n = s.occupancy.count();
        queue_us += s.queueLatencyUs.mean() *
                    static_cast<double>(s.queueLatencyUs.count());
        samples += s.queueLatencyUs.count();
        exec_ms += s.batchLatencyUs.mean() * static_cast<double>(n) / 1e3;
        fill += s.occupancy.mean() * static_cast<double>(n);
        batches += n;
        timer += s.timerFlushes;
    }
    if (batches == 0)
        return; // no batch ran: these stay n/a
    const double nb = static_cast<double>(batches);
    layer.set("service.queue_wait_us",
              samples ? queue_us / static_cast<double>(samples) : 0.0,
              "us");
    layer.set("service.batch_fill", fill / nb / superbatch, "frac");
    layer.set("service.timer_flush_frac",
              static_cast<double>(timer) / nb, "frac");
    layer.set("service.batch_exec_ms", exec_ms / nb, "ms");
}

void
addSubmitTimes(Metrics &layer, const std::vector<double> &submit_us)
{
    layer.set("service.submit_us_p50", quantile(submit_us, 0.5), "us");
    layer.set("service.submit_us_max", quantile(submit_us, 1.0), "us");
}

// --- pbs_burst --------------------------------------------------------

/** Completion times taken by ServiceConfig::onComplete on the worker
 *  that finishes each request, so batches that finish out of
 *  submission order are timed where they finish. */
class CompletionLog
{
  public:
    void record()
    {
        const auto now = Clock::now();
        std::lock_guard<std::mutex> lk(mu_);
        done_.push_back(now);
    }

    /** Everything recorded so far; clears the log. */
    std::vector<Clock::time_point> take()
    {
        std::lock_guard<std::mutex> lk(mu_);
        return std::exchange(done_, {});
    }

  private:
    std::mutex mu_;
    std::vector<Clock::time_point> done_;
};

/**
 * TEST params, one BootstrapService (kFunctional, one worker per core,
 * 64-LWE superbatches) fed bursts of one full superbatch per worker
 * over pre-encrypted inputs. Each burst is answered before the next
 * one starts, after an idle gap. Every batch is full, so blind rotation
 * and its kernels do nearly all the work. The gap keeps the load
 * bursty: on a shared 4-vCPU host, a closed loop holding every core
 * busy for the whole window spread up to 28% over ten seeds, about
 * three times as much as bursts (README.md, "Designs left out").
 */
class PbsBurst final : public Workload
{
  public:
    explicit PbsBurst(std::uint64_t seed)
    {
        Rng key_rng(seed ^ kKeySalt);
        keys_ = tfhe::KeySet::generate(tfhe::paramsTest(), key_rng);
        wire_ = wireKeys(keys_);
        dropEvaluationKeys(keys_);
        messages_ = pbsMessages(seed, kPool);
        Rng rng(seed ^ kEncryptSalt);
        for (const auto m : messages_) {
            pool_.push_back(
                tfhe::encryptPadded(keys_, m, kMessageSpace, rng));
        }
    }

    std::string params() const override { return "TEST"; }

    PassResult run(double secs, SpanRecorder *spans) override;

  private:
    static constexpr std::size_t kPool = 512;
    static constexpr double kLimitMs = 1000; //!< a burst takes ~150 ms
    /** Idle time between bursts. */
    static constexpr std::chrono::milliseconds kGap{300};
    /** A client preempted for 2 ms while submitting a burst would let
     *  the default flush timer ship part of a batch; here the timer is
     *  only a backstop (flush() ends each burst). tenant_openloop
     *  measures the timer at its default. */
    static constexpr std::chrono::milliseconds kMaxWait{1000};

    bool verify(const tfhe::LweCiphertext &ct, std::size_t input) const
    {
        return tfhe::decryptPadded(keys_, ct, kMessageSpace) ==
               (messages_[input] + 1) % kMessageSpace;
    }

    tfhe::KeySet keys_; //!< secret keys only, for encryption and checks
    std::string wire_;
    std::vector<std::uint32_t> messages_;
    std::vector<tfhe::LweCiphertext> pool_;
};

PassResult
PbsBurst::run(double secs, SpanRecorder *spans)
{
    PassResult r;
    const double heap_base = heapInUseMb();
    const std::size_t burst =
        std::size_t{hostThreads()} * compiler::kSuperbatchSize;

    // Cold start: key materialization, service start, LUT
    // registration and one warm-up request.
    CompletionLog log;
    std::vector<double> setup;
    std::unique_ptr<BootstrapService> svc;
    LutId lut = 0;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        svc.reset(); // one server resident at a time
        std::istringstream is(wire_);
        ScopedSpan span(spans, "setup");
        const auto t0 = Clock::now();
        service::ServiceConfig config;
        config.numWorkers = hostThreads();
        config.maxOutstanding = burst;
        config.maxWait = kMaxWait;
        config.onComplete = [&log](const service::CompletionInfo &) {
            log.record();
        };
        svc = std::make_unique<BootstrapService>(loadKeys(is), config);
        lut = svc->registerLut(pbsLut());
        auto warm = svc->submit(pool_[0], lut);
        svc->flush();
        const bool ok = verify(warm.get(), 0);
        setup.push_back(seconds(Clock::now() - t0));
        if (!ok)
            ++r.verdict.wrong;
    }
    r.e2e.set("setup_s", median(setup), "s");
    r.e2e.set("server_mem_mb", heapInUseMb() - heap_base, "MB");

    // One burst: submit `burst` requests, flush, wait for every answer
    // and verify it into `verdict`. Returns the burst's start;
    // completions are in log.
    std::size_t next_input = 0;
    std::vector<double> submit_us;
    const auto runBurst = [&](std::int64_t id, Verdict &verdict) {
        ScopedSpan b(spans, "burst", -1, id);
        std::vector<std::future<tfhe::LweCiphertext>> futs;
        std::vector<std::size_t> inputs;
        const auto start = Clock::now();
        {
            ScopedSpan s(spans, "submit", b.id(), id);
            for (std::size_t k = 0; k < burst; ++k) {
                const std::size_t input = next_input++ % pool_.size();
                const auto ts = Clock::now();
                futs.push_back(svc->submit(pool_[input], lut));
                submit_us.push_back(micros(Clock::now() - ts));
                inputs.push_back(input);
            }
            svc->flush();
        }
        ScopedSpan w(spans, "wait", b.id(), id);
        for (std::size_t k = 0; k < futs.size(); ++k) {
            ++verdict.sent;
            try {
                if (verify(futs[k].get(), inputs[k]))
                    ++verdict.succeeded;
                else
                    ++verdict.wrong;
            } catch (const std::exception &e) {
                std::cerr << "pbs_burst: request failed: " << e.what()
                          << "\n";
                ++verdict.failed;
            }
        }
        return start;
    };

    // Warm-up (caches, worker threads): verified, counted as sent, but
    // neither timed nor part of slo_met_frac.
    Verdict warm;
    runBurst(-1, warm);
    log.take();

    // Per burst: makespan (first submit to last answer, the latency of
    // the burst as one job) and each request's latency from the burst's
    // start, timed where it completed.
    std::vector<double> makespan_ms, latency_ms;
    const auto end = Clock::now() +
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(secs));
    for (std::int64_t id = 0; Clock::now() < end; ++id) {
        const auto start = runBurst(id, r.verdict);
        Clock::time_point last = start;
        for (const auto done : log.take()) {
            latency_ms.push_back(micros(done - start) / 1e3);
            last = std::max(last, done);
        }
        makespan_ms.push_back(micros(last - start) / 1e3);
        std::this_thread::sleep_for(kGap);
    }

    // latency_p50_ms is the median burst makespan, and ops_per_s the
    // bootstraps per second while the service works a burst: burst size
    // over that median (a derived copy). A burst waits for its slowest
    // worker, so the per-request median depends more on which vCPU
    // each worker ran on; it is printed, not scored.
    std::cout << "  bursts: " << makespan_ms.size() << " of " << burst
              << ", per-request p50=" << quantile(latency_ms, 0.5)
              << " ms (n=" << latency_ms.size() << ")\n";
    const double span_ms = median(makespan_ms);
    r.e2e.set("ops_per_s",
              span_ms > 0 ? static_cast<double>(burst) / span_ms * 1e3 : 0.0,
              "op/s");
    // slo_met_frac counts requests; a wrong or failed one is a miss.
    std::uint64_t in_limit = 0;
    for (const double ms : latency_ms)
        in_limit += ms <= kLimitMs;
    in_limit = std::min<std::uint64_t>(in_limit, r.verdict.succeeded);
    addLatency(r, std::move(makespan_ms), kLimitMs, in_limit);
    r.verdict.merge(warm);
    addSubmitTimes(r.layer, submit_us);
    addServiceStats(r.layer, {svc->stats()}, svc->config().superbatchSize);
    return r;
}

// --- tenant_openloop --------------------------------------------------

/**
 * TEST params, MultiTenantService with four tenants (no more than
 * registry.maxResident, so no key churn), fed an open-loop Poisson
 * schedule at a fifth of saturated capacity. Lone requests dominate:
 * admission, assembly, the flush timer and per-batch backend set-up
 * make up most of each request.
 */
class TenantOpenloop final : public Workload
{
  public:
    explicit TenantOpenloop(std::uint64_t seed) : seed_(seed)
    {
        for (unsigned t = 0; t < kTenants; ++t) {
            Rng key_rng((seed ^ kKeySalt) + t);
            keys_.push_back(
                tfhe::KeySet::generate(tfhe::paramsTest(), key_rng));
            evals_.push_back(
                tfhe::EvaluationKeys::fromKeySet(keys_.back()));
            dropEvaluationKeys(keys_.back());
            warm_.push_back(tfhe::encryptPadded(keys_.back(), 0,
                                                kMessageSpace, key_rng));
        }
    }

    std::string params() const override { return "TEST"; }

    PassResult run(double secs, SpanRecorder *spans) override;

  private:
    static constexpr unsigned kTenants = 4;
    static constexpr double kRatePerSec = 300;  //!< offered, all tenants
    static constexpr double kQuotaPerSec = 150; //!< 2x a tenant's share
    static constexpr double kLimitMs = 25;      //!< p50 is ~5.6 ms
    /** Generator lateness above this marks the run LATE. */
    static constexpr double kLateBoundMs = 5;

    struct Request
    {
        double dueS = 0; //!< offset from the schedule start
        unsigned tenant = 0;
        std::uint32_t message = 0;
        tfhe::LweCiphertext ct;
    };

    /** The Poisson schedule, drawn and encrypted before timing. */
    std::vector<Request> schedule(double secs);

    std::uint64_t seed_;
    std::uint64_t passes_ = 0;
    std::vector<tfhe::KeySet> keys_; //!< secret keys only
    std::vector<tfhe::EvaluationKeys> evals_; //!< enrolled at each set-up
    std::vector<tfhe::LweCiphertext> warm_; //!< warm-up input, message 0
};

std::vector<TenantOpenloop::Request>
TenantOpenloop::schedule(double secs)
{
    // Each pass of one run draws its own stream of the seed.
    Rng rng((seed_ ^ kScheduleSalt) + passes_++);
    std::vector<Request> reqs;
    double t = 0;
    for (;;) {
        t += -std::log(1.0 - rng.nextDouble()) / kRatePerSec;
        if (t >= secs)
            break;
        Request r;
        r.dueS = t;
        r.tenant = static_cast<unsigned>(rng.nextBelow(kTenants));
        r.message = static_cast<std::uint32_t>(rng.nextBelow(kMessageSpace));
        r.ct = tfhe::encryptPadded(keys_[r.tenant], r.message,
                                   kMessageSpace, rng);
        reqs.push_back(std::move(r));
    }
    return reqs;
}

PassResult
TenantOpenloop::run(double secs, SpanRecorder *spans)
{
    PassResult r;
    std::vector<Request> reqs = schedule(secs);
    const auto tenantName = [](unsigned t) {
        return "tenant" + std::to_string(t);
    };

    // A front door with its own metrics registry (which must outlive
    // it): enrollment, LUT registration and one warm-up request per
    // tenant, which materializes that tenant's keys and service.
    struct FrontDoor
    {
        telemetry::MetricsRegistry metrics;
        std::unique_ptr<service::MultiTenantService> front;
        std::vector<LutId> luts;
    };
    const double heap_base = heapInUseMb();
    std::vector<double> setup;
    std::unique_ptr<FrontDoor> door;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        door.reset(); // one server resident at a time
        auto next = std::make_unique<FrontDoor>();
        ScopedSpan span(spans, "setup");
        const auto t0 = Clock::now();
        service::MultiTenantConfig config;
        config.registry.maxResident = kTenants;
        config.metrics = &next->metrics;
        next->front = std::make_unique<service::MultiTenantService>(config);
        service::TenantQuota quota;
        quota.ratePerSec = kQuotaPerSec;
        quota.burst = 32;
        quota.weight = 1;
        quota.sloLatencyUs = kLimitMs * 1e3;
        std::vector<std::future<tfhe::LweCiphertext>> warm;
        for (unsigned t = 0; t < kTenants; ++t) {
            next->front->addTenant(tenantName(t), evals_[t], quota);
            next->luts.push_back(
                next->front->registerLut(tenantName(t), pbsLut()));
            warm.push_back(next->front->submit(tenantName(t), warm_[t],
                                               next->luts.back()));
        }
        next->front->flush();
        bool ok = true;
        for (unsigned t = 0; t < kTenants; ++t) {
            ok = ok && tfhe::decryptPadded(keys_[t], warm[t].get(),
                                           kMessageSpace) == 1;
        }
        setup.push_back(seconds(Clock::now() - t0));
        if (!ok)
            ++r.verdict.wrong;
        door = std::move(next);
    }
    r.e2e.set("setup_s", median(setup), "s");
    r.e2e.set("server_mem_mb", heapInUseMb() - heap_base, "MB");
    service::MultiTenantService &front = *door->front;

    struct Pending
    {
        std::future<tfhe::LweCiphertext> fut;
        Clock::time_point due;
        std::size_t index = 0;
        std::int64_t span = -1;
    };
    struct Lane
    {
        Handoff<Pending> queue;
        std::vector<double> latency;
        std::uint64_t ok = 0, wrong = 0, failed = 0, inLimit = 0;
    };
    std::vector<Lane> lanes(kTenants);
    std::vector<double> late_ms, submit_us;
    late_ms.reserve(reqs.size());
    submit_us.reserve(reqs.size());

    // One collector per tenant: each tenant's single worker completes
    // its batches in order, so waiting in order timestamps accurately.
    const auto collect = [&](Lane &lane) {
        while (std::optional<Pending> next = lane.queue.pop()) {
            Pending &p = *next;
            const std::int64_t wait_start = spans ? spans->now() : 0;
            tfhe::LweCiphertext out;
            try {
                out = p.fut.get();
            } catch (const std::exception &e) {
                std::cerr << "tenant_openloop: request failed: "
                          << e.what() << "\n";
                ++lane.failed;
                continue;
            }
            const auto t_done = Clock::now();
            const double ms = micros(t_done - p.due) / 1e3;
            if (spans) {
                const std::int64_t end_ns = spans->toNs(t_done);
                const auto req = static_cast<std::int64_t>(p.index);
                spans->add("wait", wait_start, end_ns, p.span, req);
                spans->add("request", spans->toNs(p.due), end_ns, -1, req,
                           p.span);
            }
            lane.latency.push_back(ms);
            const Request &q = reqs[p.index];
            if (tfhe::decryptPadded(keys_[q.tenant], out, kMessageSpace) !=
                (q.message + 1) % kMessageSpace) {
                ++lane.wrong;
                continue;
            }
            ++lane.ok;
            if (ms <= kLimitMs)
                ++lane.inLimit;
        }
    };
    std::vector<std::thread> collectors;
    for (auto &lane : lanes)
        collectors.emplace_back(collect, std::ref(lane));

    // The generator: sends each request at its due time, whatever the
    // state of earlier ones (open loop); latency counts from due time.
    std::uint64_t refused = 0;
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const Request &q = reqs[i];
        Pending p;
        p.index = i;
        p.due = t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(q.dueS));
        std::this_thread::sleep_until(p.due);
        const auto sent = Clock::now();
        late_ms.push_back(micros(sent - p.due) / 1e3);
        p.span = spans ? spans->newId() : -1;
        try {
            ScopedSpan s(spans, "submit", p.span,
                         static_cast<std::int64_t>(i));
            p.fut = front.submit(tenantName(q.tenant), q.ct,
                                 door->luts[q.tenant]);
        } catch (const std::exception &e) {
            std::cerr << "tenant_openloop: submit refused: " << e.what()
                      << "\n";
            ++refused;
            continue;
        }
        submit_us.push_back(micros(Clock::now() - sent));
        lanes[q.tenant].queue.push(std::move(p));
    }
    const double send_s = seconds(Clock::now() - t0);
    for (auto &lane : lanes)
        lane.queue.close();
    for (auto &c : collectors)
        c.join();

    std::vector<double> latency;
    std::uint64_t in_limit = 0;
    r.verdict.sent = reqs.size();
    r.verdict.failed = refused;
    for (auto &lane : lanes) {
        latency.insert(latency.end(), lane.latency.begin(),
                       lane.latency.end());
        r.verdict.succeeded += lane.ok;
        r.verdict.wrong += lane.wrong;
        r.verdict.failed += lane.failed;
        in_limit += lane.inLimit;
    }
    // Goodput: requests answered correctly within the limit, per second
    // of the schedule's nominal length. An open loop's throughput only
    // echoes the offered rate, so this is a derived copy of slo_met_frac
    // (offered rate x slo_met_frac), not an independent measurement.
    const double nominal_s = static_cast<double>(reqs.size()) / kRatePerSec;
    r.e2e.set("ops_per_s",
              nominal_s > 0 ? static_cast<double>(in_limit) / nominal_s : 0,
              "op/s");
    addLatency(r, std::move(latency), kLimitMs, in_limit);

    const double late_p50 = quantile(late_ms, 0.5);
    const double late_max = quantile(late_ms, 1.0);
    std::cout << "  generator: sent " << reqs.size() << " in " << send_s
              << " s (achieved " << static_cast<double>(reqs.size()) / send_s
              << " req/s, offered " << kRatePerSec
              << "), lateness p50=" << late_p50 << " ms max=" << late_max
              << " ms, bound " << kLateBoundMs << " ms: "
              << (late_max > kLateBoundMs ? "LATE" : "ok") << "\n";
    r.layer.set("gen.late_ms_p50", late_p50, "ms");
    r.layer.set("gen.late_ms_max", late_max, "ms");
    r.layer.set("gen.send_rate", static_cast<double>(reqs.size()) / send_s,
                "1/s");
    addSubmitTimes(r.layer, submit_us);

    std::vector<service::ServiceStats> stats;
    std::uint64_t throttled = 0;
    for (unsigned t = 0; t < kTenants; ++t) {
        if (const auto s = front.serviceStats(tenantName(t)))
            stats.push_back(*s);
        throttled += front.stats(tenantName(t)).throttled;
    }
    addServiceStats(r.layer, stats, compiler::kSuperbatchSize);
    const auto reg = front.registry().stats();
    r.layer.set("service.throttled", static_cast<double>(throttled), "count");
    r.layer.set("service.warmups", static_cast<double>(reg.warmUps), "count");
    r.layer.set("service.warmup_ms", reg.lastWarmUpUs / 1e3, "ms");
    return r;
}

} // namespace

std::vector<morphling::tfhe::Torus32>
pbsLut()
{
    return tfhe::makePaddedLut(kMessageSpace, [](std::uint32_t m) {
        return (m + 1) % kMessageSpace;
    });
}

std::vector<std::uint32_t>
pbsMessages(std::uint64_t seed, std::size_t count)
{
    Rng rng(seed);
    std::vector<std::uint32_t> m(count);
    for (auto &v : m)
        v = static_cast<std::uint32_t>(rng.nextBelow(kMessageSpace));
    return m;
}

std::unique_ptr<Workload>
makePbsBurst(std::uint64_t seed)
{
    return std::make_unique<PbsBurst>(seed);
}

std::unique_ptr<Workload>
makeTenantOpenloop(std::uint64_t seed)
{
    return std::make_unique<TenantOpenloop>(seed);
}

} // namespace perfbench
