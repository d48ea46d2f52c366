/**
 * @file
 * Tests of the multi-tenant front door (service/multi_tenant_service.h)
 * and the tenant key registry (service/tenant_registry.h):
 *
 *  - registry identity: enroll() agrees with the serialize-layer
 *    fingerprint, LRU eviction and warm-up counters move as specified;
 *  - eviction bit-identity: a tenant evicted from the working set and
 *    re-admitted (keys warmed up from cold storage, LUTs replayed)
 *    produces bit-identical ciphertexts for identical inputs;
 *  - fairness under adversarial load: a flooding tenant exhausts its
 *    own token bucket and cannot push a trickle tenant past its SLO;
 *  - admission control: trySubmit bounces on an empty bucket, submit
 *    blocks until refill, and a circuit costing more than the bucket
 *    depth is admitted against a full bucket (negative balance)
 *    instead of blocking forever;
 *  - malformed requests: a wrong circuit input count, a ciphertext of
 *    the wrong dimension or an unknown LUT id throws before the
 *    tenant's bucket is charged, and other tenants keep getting
 *    correct results;
 *  - key rotation: re-adding a tenant with different keys drains and
 *    tears down its live service, so the next submission evaluates
 *    under the rotated keys, not the stale ones;
 *  - per-tenant telemetry: labelled metrics land in both export
 *    formats, and the quantile estimator brackets the observations.
 *
 * All run under the `tenant` ctest label (plus tsan: the fairness
 * test is a genuine multi-threaded adversarial workload).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "circuit/circuit.h"
#include "common/rng.h"
#include "service/multi_tenant_service.h"
#include "service/tenant_registry.h"
#include "tfhe/encoding.h"

namespace morphling::service {
namespace {

using namespace std::chrono_literals;
using tfhe::KeySet;
using tfhe::LweCiphertext;

constexpr std::uint32_t kSpace = 4;

class TenantFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Rng rngA(0xA11CE);
        keysA_ = new KeySet(KeySet::generate(tfhe::paramsTest(), rngA));
        evalA_ = new tfhe::EvaluationKeys(
            tfhe::EvaluationKeys::fromKeySet(*keysA_));
        Rng rngB(0xB0B);
        keysB_ = new KeySet(KeySet::generate(tfhe::paramsTest(), rngB));
        evalB_ = new tfhe::EvaluationKeys(
            tfhe::EvaluationKeys::fromKeySet(*keysB_));
    }
    static void
    TearDownTestSuite()
    {
        delete evalB_;
        delete keysB_;
        delete evalA_;
        delete keysA_;
        keysA_ = keysB_ = nullptr;
        evalA_ = evalB_ = nullptr;
    }

    const KeySet &keysA() { return *keysA_; }
    const KeySet &keysB() { return *keysB_; }
    const tfhe::EvaluationKeys &evalA() { return *evalA_; }
    const tfhe::EvaluationKeys &evalB() { return *evalB_; }

    Rng rng{0x7E7A};

    LweCiphertext
    encryptA(std::uint32_t m)
    {
        return tfhe::encryptPadded(keysA(), m, kSpace, rng);
    }

    LweCiphertext
    encryptB(std::uint32_t m)
    {
        return tfhe::encryptPadded(keysB(), m, kSpace, rng);
    }

    static std::vector<tfhe::Torus32>
    plusOneLut()
    {
        return tfhe::makePaddedLut(kSpace, [](std::uint32_t m) {
            return (m + 1) % kSpace;
        });
    }

    /** A service template tuned for tiny test batches. */
    static ServiceConfig
    smallService()
    {
        ServiceConfig config;
        config.superbatchSize = 4;
        config.maxWait = 2ms;
        config.maxOutstanding = 32;
        return config;
    }

    static KeySet *keysA_, *keysB_;
    static tfhe::EvaluationKeys *evalA_, *evalB_;
};

KeySet *TenantFixture::keysA_ = nullptr;
KeySet *TenantFixture::keysB_ = nullptr;
tfhe::EvaluationKeys *TenantFixture::evalA_ = nullptr;
tfhe::EvaluationKeys *TenantFixture::evalB_ = nullptr;

TEST_F(TenantFixture, RegistryFingerprintMatchesSerializeLayer)
{
    telemetry::MetricsRegistry metrics;
    TenantRegistry registry({/*maxResident=*/2}, &metrics);
    const auto fp = registry.enroll("alice", evalA());
    EXPECT_EQ(fp, tfhe::fingerprintEvaluationKeys(evalA()));
    EXPECT_EQ(registry.fingerprint("alice"), fp);
    EXPECT_NE(fp, tfhe::fingerprintEvaluationKeys(evalB()));

    // Byte-identical re-enrollment is a no-op.
    EXPECT_EQ(registry.enroll("alice", evalA()), fp);
    EXPECT_EQ(registry.stats().enrolled, 1u);
}

TEST_F(TenantFixture, RegistryLruEvictsAndWarmsUp)
{
    telemetry::MetricsRegistry metrics;
    TenantRegistry registry({/*maxResident=*/2}, &metrics);
    registry.enroll("a", evalA());
    registry.enroll("b", evalB());
    registry.enroll("c", evalA());
    EXPECT_EQ(registry.stats().resident, 0u); // enrollment is cold

    auto a = registry.acquire("a"); // warm-up 1
    auto b = registry.acquire("b"); // warm-up 2
    EXPECT_TRUE(registry.resident("a"));
    EXPECT_TRUE(registry.resident("b"));

    auto c = registry.acquire("c"); // warm-up 3, evicts LRU = "a"
    EXPECT_FALSE(registry.resident("a"));
    EXPECT_TRUE(registry.resident("b"));
    EXPECT_TRUE(registry.resident("c"));

    // The handed-out shared_ptr outlives the eviction: "a" is still
    // usable by whoever held it.
    EXPECT_EQ(tfhe::fingerprintEvaluationKeys(*a),
              tfhe::fingerprintEvaluationKeys(evalA()));

    // Re-acquiring "a" warms up again and evicts "b" (LRU after the
    // "c" touch).
    auto a2 = registry.acquire("a");
    EXPECT_FALSE(registry.resident("b"));

    const auto stats = registry.stats();
    EXPECT_EQ(stats.warmUps, 4u);
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.resident, 2u);
    EXPECT_GT(stats.residentBytes, 0u);
    EXPECT_GT(stats.lastWarmUpUs, 0.0);

    // A hit refreshes recency without a warm-up.
    auto c2 = registry.acquire("c");
    EXPECT_EQ(registry.stats().hits, 1u);

    EXPECT_THROW((void)registry.acquire("nobody"), std::out_of_range);
}

TEST_F(TenantFixture, EvictionAndWarmUpYieldBitIdenticalOutputs)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.registry.maxResident = 1;
    config.maxLiveServices = 1;
    config.metrics = &metrics;
    MultiTenantService front(config);

    front.addTenant("alice", evalA());
    front.addTenant("bob", evalB());
    const LutId lutA = front.registerLut("alice", plusOneLut());
    const LutId lutB = front.registerLut("bob", plusOneLut());

    const LweCiphertext input = encryptA(2);

    auto f1 = front.submit("alice", input, lutA);
    ASSERT_EQ(f1.wait_for(60s), std::future_status::ready);
    const LweCiphertext out1 = f1.get();
    EXPECT_EQ(tfhe::decryptPadded(keysA(), out1, kSpace), 3u);
    EXPECT_TRUE(front.stats("alice").resident);

    // Bob's first submission forces alice's idle service out of the
    // working set (maxLiveServices = 1) and her keys out of the
    // registry's LRU.
    auto fB = front.submit("bob", encryptB(1), lutB);
    ASSERT_EQ(fB.wait_for(60s), std::future_status::ready);
    EXPECT_EQ(tfhe::decryptPadded(keysB(), fB.get(), kSpace), 2u);
    EXPECT_FALSE(front.stats("alice").resident);
    EXPECT_FALSE(front.registry().resident("alice"));

    // Re-admission: keys warm up from cold storage, the LUT namespace
    // replays, and the identical input produces the bit-identical
    // ciphertext — blind rotation is deterministic in the keys.
    auto f2 = front.submit("alice", input, lutA);
    ASSERT_EQ(f2.wait_for(60s), std::future_status::ready);
    const LweCiphertext out2 = f2.get();
    EXPECT_EQ(out1.raw(), out2.raw());

    const auto reg = front.registry().stats();
    EXPECT_GE(reg.warmUps, 3u);   // alice, bob, alice again
    EXPECT_GE(reg.evictions, 2u); // alice out, bob out
    EXPECT_EQ(front.stats("alice").completed, 2u);
    EXPECT_EQ(front.stats("bob").completed, 1u);
}

TEST_F(TenantFixture, FloodingTenantCannotStarveTrickleTenant)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.registry.maxResident = 2;
    config.metrics = &metrics;
    MultiTenantService front(config);

    // The flood is rate-limited to its quota; the trickle tenant is
    // unthrottled with a generous latency SLO the flood must not be
    // able to break.
    TenantQuota floodQuota;
    floodQuota.ratePerSec = 400;
    floodQuota.burst = 8;
    TenantQuota trickleQuota;
    trickleQuota.sloLatencyUs = 2e6; // 2 s: orders above normal
    front.addTenant("flood", evalA(), floodQuota);
    front.addTenant("trickle", evalB(), trickleQuota);
    const LutId floodLut = front.registerLut("flood", plusOneLut());
    const LutId trickleLut =
        front.registerLut("trickle", plusOneLut());

    std::atomic<bool> stop{false};
    std::thread flooder([&] {
        Rng floodRng(0xF100D);
        std::vector<std::future<LweCiphertext>> futures;
        while (!stop.load()) {
            auto ct =
                tfhe::encryptPadded(keysA(), 1, kSpace, floodRng);
            if (auto f =
                    front.trySubmit("flood", std::move(ct), floodLut))
                futures.push_back(std::move(*f));
        }
        for (auto &f : futures)
            f.wait();
    });

    // The trickle tenant submits sequentially under the flood.
    for (unsigned i = 0; i < 12; ++i) {
        auto f = front.submit("trickle", encryptB(i % kSpace),
                              trickleLut);
        ASSERT_EQ(f.wait_for(60s), std::future_status::ready);
        EXPECT_EQ(tfhe::decryptPadded(keysB(), f.get(), kSpace),
                  (i + 1) % kSpace);
        std::this_thread::sleep_for(2ms);
    }
    stop = true;
    flooder.join();

    const auto trickle = front.stats("trickle");
    const auto flood = front.stats("flood");
    EXPECT_EQ(trickle.completed, 12u);
    EXPECT_EQ(trickle.sloBreaches, 0u)
        << "flood pushed the trickle tenant past its SLO (p99 = "
        << trickle.p99LatencyUs << " us)";
    EXPECT_LE(trickle.p99LatencyUs, trickleQuota.sloLatencyUs);
    EXPECT_GT(flood.throttled, 0u)
        << "the flood was never throttled - the token bucket is not "
           "limiting admission";
    EXPECT_EQ(trickle.throttled, 0u);
}

TEST_F(TenantFixture, AdmissionBucketBouncesAndRefills)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    // Warm-up pass with no quota: materializing the service (key
    // deserialization, worker spin-up) must not eat into the bucket
    // timing measured below.
    front.addTenant("capped", evalA());
    const LutId lut = front.registerLut("capped", plusOneLut());
    auto warm = front.submit("capped", encryptA(0), lut);
    ASSERT_EQ(warm.wait_for(60s), std::future_status::ready);
    warm.get();

    // Re-adding the tenant updates the quota in place: one token per
    // 200 ms, so the fail-fast sequence below cannot refill under it.
    TenantQuota quota;
    quota.ratePerSec = 5;
    quota.burst = 2;
    front.addTenant("capped", evalA(), quota);

    // The bucket starts full: exactly `burst` fail-fast admissions.
    auto f1 = front.trySubmit("capped", encryptA(0), lut);
    auto f2 = front.trySubmit("capped", encryptA(1), lut);
    ASSERT_TRUE(f1.has_value());
    ASSERT_TRUE(f2.has_value());
    auto f3 = front.trySubmit("capped", encryptA(2), lut);
    EXPECT_FALSE(f3.has_value());
    EXPECT_EQ(front.stats("capped").throttled, 1u);

    // A blocking submit waits out the refill instead of bouncing.
    auto f4 = front.submit("capped", encryptA(3), lut);
    ASSERT_EQ(f1->wait_for(60s), std::future_status::ready);
    ASSERT_EQ(f2->wait_for(60s), std::future_status::ready);
    ASSERT_EQ(f4.wait_for(60s), std::future_status::ready);
    EXPECT_EQ(tfhe::decryptPadded(keysA(), f4.get(), kSpace), 0u);
    EXPECT_EQ(front.stats("capped").completed, 4u);
}

TEST_F(TenantFixture, OversizedCircuitAdmitsAgainstSmallBucket)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    // Refill clamps tokens to burst, so a draw above the bucket depth
    // could never be covered by waiting: the blocking submitCircuit
    // must admit it against a full bucket (driving the balance
    // negative) rather than sleeping forever.
    TenantQuota quota;
    quota.ratePerSec = 1000;
    quota.burst = 2;
    front.addTenant("alice", evalA(), quota);

    circuit::Circuit c;
    std::vector<circuit::Wire> a, b, sum;
    for (unsigned i = 0; i < 4; ++i)
        a.push_back(c.bitInput());
    for (unsigned i = 0; i < 4; ++i)
        b.push_back(c.bitInput());
    const auto carry = circuit::buildRippleAdder(c, a, b, sum);
    for (auto w : sum)
        c.markOutput(w);
    c.markOutput(carry);
    ASSERT_GT(static_cast<double>(c.bootstrapCount()), quota.burst);

    const unsigned x = 5, y = 9;
    std::vector<LweCiphertext> inputs;
    for (unsigned i = 0; i < 4; ++i)
        inputs.push_back(
            tfhe::encryptBit(keysA(), ((x >> i) & 1) != 0, rng));
    for (unsigned i = 0; i < 4; ++i)
        inputs.push_back(
            tfhe::encryptBit(keysA(), ((y >> i) & 1) != 0, rng));

    auto f = front.submitCircuit("alice", c, std::move(inputs));
    ASSERT_EQ(f.wait_for(60s), std::future_status::ready);
    const auto outputs = f.get();
    unsigned v = 0;
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        v |= static_cast<unsigned>(
                 tfhe::decryptBit(keysA(), outputs[i]))
             << i;
    }
    EXPECT_EQ(v, x + y);
}

TEST_F(TenantFixture, WrongArityCircuitThrowsWithoutChargingBucket)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    // Two tokens and a refill too slow to matter within the test: a
    // charged bucket would bounce the fail-fast submission below.
    TenantQuota quota;
    quota.ratePerSec = 0.01;
    quota.burst = 2;
    front.addTenant("mallory", evalA(), quota);
    front.addTenant("bob", evalB());
    const LutId lut = front.registerLut("mallory", plusOneLut());

    // Two inputs, two bootstraps: it would drain mallory's bucket.
    circuit::Circuit c;
    const auto x = c.bitInput();
    const auto y = c.bitInput();
    const auto z = c.gate(tfhe::BoolGate::And, x, y);
    c.markOutput(c.gate(tfhe::BoolGate::Xor, z, x));
    ASSERT_EQ(c.bootstrapCount(), 2u);

    std::vector<LweCiphertext> one_input{
        tfhe::encryptBit(keysA(), true, rng)};
    EXPECT_THROW((void)front.submitCircuit("mallory", c, one_input),
                 std::invalid_argument);
    EXPECT_EQ(front.stats("mallory").submitted, 0u);
    auto f = front.trySubmit("mallory", encryptA(1), lut);
    ASSERT_TRUE(f.has_value()) << "the rejected circuit drew tokens";
    EXPECT_EQ(front.stats("mallory").throttled, 0u);

    // Another tenant's circuit still evaluates correctly.
    for (const bool bx : {false, true}) {
        for (const bool by : {false, true}) {
            auto g = front.submitCircuit(
                "bob", c,
                {tfhe::encryptBit(keysB(), bx, rng),
                 tfhe::encryptBit(keysB(), by, rng)});
            ASSERT_EQ(g.wait_for(60s), std::future_status::ready);
            const auto out = g.get();
            ASSERT_EQ(out.size(), 1u);
            EXPECT_EQ(tfhe::decryptBit(keysB(), out[0]), (bx && by) != bx)
                << bx << by;
        }
    }
    ASSERT_EQ(f->wait_for(60s), std::future_status::ready);
    EXPECT_EQ(tfhe::decryptPadded(keysA(), f->get(), kSpace), 2u);
}

TEST_F(TenantFixture, MalformedRequestThrowsWithoutChargingBucket)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    // One token and a refill too slow to matter within the test: any
    // charged rejection would bounce the fail-fast submission below.
    TenantQuota quota;
    quota.ratePerSec = 0.01;
    quota.burst = 1;
    front.addTenant("mallory", evalA(), quota);
    const LutId lut = front.registerLut("mallory", plusOneLut());

    const LweCiphertext wrong_dim(tfhe::paramsTest().lweDimension + 1);
    EXPECT_THROW((void)front.submit("mallory", wrong_dim, lut),
                 std::invalid_argument);
    EXPECT_THROW((void)front.trySubmit("mallory", wrong_dim, lut),
                 std::invalid_argument);
    EXPECT_THROW((void)front.submit("mallory", encryptA(1), lut + 1),
                 std::invalid_argument);
    EXPECT_THROW((void)front.trySubmit("mallory", encryptA(1), lut + 1),
                 std::invalid_argument);

    circuit::Circuit c;
    const auto x = c.bitInput();
    const auto y = c.bitInput();
    c.markOutput(c.gate(tfhe::BoolGate::And, x, y));
    EXPECT_THROW(
        (void)front.submitCircuit(
            "mallory", c, {tfhe::encryptBit(keysA(), true, rng), wrong_dim}),
        std::invalid_argument);

    EXPECT_EQ(front.stats("mallory").submitted, 0u);
    auto f = front.trySubmit("mallory", encryptA(1), lut);
    ASSERT_TRUE(f.has_value()) << "a rejected request drew tokens";
    EXPECT_EQ(front.stats("mallory").throttled, 0u);
    ASSERT_EQ(f->wait_for(60s), std::future_status::ready);
    EXPECT_EQ(tfhe::decryptPadded(keysA(), f->get(), kSpace), 2u);
}

TEST_F(TenantFixture, KeyRotationRefreshesLiveService)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    front.addTenant("alice", evalA());
    const LutId lut = front.registerLut("alice", plusOneLut());
    auto f1 = front.submit("alice", encryptA(1), lut);
    ASSERT_EQ(f1.wait_for(60s), std::future_status::ready);
    EXPECT_EQ(tfhe::decryptPadded(keysA(), f1.get(), kSpace), 2u);
    EXPECT_TRUE(front.stats("alice").resident);

    // Rotate to key set B while the service is live: the stale
    // service must be drained and torn down, so the next submission
    // re-materializes (replaying the LUT namespace) under the new
    // keys instead of silently evaluating under the rotated-out ones.
    const auto fp = front.addTenant("alice", evalB());
    EXPECT_EQ(fp, tfhe::fingerprintEvaluationKeys(evalB()));
    EXPECT_FALSE(front.stats("alice").resident);

    auto f2 = front.submit("alice", encryptB(2), lut);
    ASSERT_EQ(f2.wait_for(60s), std::future_status::ready);
    EXPECT_EQ(tfhe::decryptPadded(keysB(), f2.get(), kSpace), 3u);
}

TEST_F(TenantFixture, RejectsDegenerateQuotasAndUnknownTenants)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    MultiTenantService front(config);

    TenantQuota negative_rate;
    negative_rate.ratePerSec = -1;
    EXPECT_THROW(front.addTenant("x", evalA(), negative_rate),
                 std::invalid_argument);

    TenantQuota empty_bucket;
    empty_bucket.ratePerSec = 10;
    empty_bucket.burst = 0;
    EXPECT_THROW(front.addTenant("x", evalA(), empty_bucket),
                 std::invalid_argument);

    TenantQuota zero_weight;
    zero_weight.weight = 0;
    EXPECT_THROW(front.addTenant("x", evalA(), zero_weight),
                 std::invalid_argument);

    TenantQuota negative_slo;
    negative_slo.sloLatencyUs = -5;
    EXPECT_THROW(front.addTenant("x", evalA(), negative_slo),
                 std::invalid_argument);

    EXPECT_THROW((void)front.submit("ghost", encryptA(0), 0),
                 std::out_of_range);
    EXPECT_THROW((void)front.stats("ghost"), std::out_of_range);

    // The front door validates its service template up front.
    MultiTenantConfig bad;
    bad.service.backend = exec::BackendKind::kTiming;
    bad.metrics = &metrics;
    EXPECT_THROW(MultiTenantService rejected(bad),
                 std::invalid_argument);
}

TEST_F(TenantFixture, PerTenantMetricsReachBothExportFormats)
{
    telemetry::MetricsRegistry metrics;
    MultiTenantConfig config;
    config.service = smallService();
    config.metrics = &metrics;
    {
        MultiTenantService front(config);
        front.addTenant("alice", evalA());
        const LutId lut = front.registerLut("alice", plusOneLut());
        auto f = front.submit("alice", encryptA(1), lut);
        ASSERT_EQ(f.wait_for(60s), std::future_status::ready);
        f.get();
    }

    std::ostringstream json;
    metrics.writeJson(json);
    EXPECT_NE(json.str().find("tenant.alice.latency_us"),
              std::string::npos);
    EXPECT_NE(json.str().find("tenant.alice.completed"),
              std::string::npos);
    EXPECT_NE(json.str().find("tenant.registry.warmups"),
              std::string::npos);

    std::ostringstream prom;
    metrics.writePrometheus(prom);
    EXPECT_NE(prom.str().find("morphling_tenant_alice_latency_us"),
              std::string::npos);
    EXPECT_NE(prom.str().find("morphling_tenant_registry_warmups"),
              std::string::npos);
}

TEST(TenantQuantile, BracketsObservationsWithinOneLogBucket)
{
    telemetry::Histogram h("t", "");
    EXPECT_EQ(histogramQuantile(h, 0.5), 0.0); // empty

    for (int i = 0; i < 99; ++i)
        h.observe(100.0);
    h.observe(100000.0);

    const double p50 = histogramQuantile(h, 0.50);
    const double p99 = histogramQuantile(h, 0.99);
    const double p100 = histogramQuantile(h, 1.0);
    EXPECT_GE(p50, 100.0);
    EXPECT_LE(p50, 256.0); // within one power-of-two bucket
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, p100);
    EXPECT_LE(p100, h.max()); // clamped to the observed maximum
}

} // namespace
} // namespace morphling::service
