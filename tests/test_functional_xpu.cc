/**
 * @file
 * Tests of the functional XPU datapath: the merge-split FFT against
 * the schoolbook negacyclic product, the VPE accumulation registers,
 * and full blind rotations that must decrypt identically to the
 * reference library path. Also cross-checks the datapath counters
 * against the closed-form resource arithmetic the cycle model uses.
 */

#include <gtest/gtest.h>

#include "arch/functional/functional_xpu.h"
#include "common/rng.h"
#include "tfhe/bootstrap.h"
#include "tfhe/encoding.h"

namespace morphling::arch::functional {
namespace {

using namespace morphling::tfhe;

TorusPolynomial
randomTorusPoly(unsigned n, Rng &rng)
{
    TorusPolynomial p(n);
    for (unsigned i = 0; i < n; ++i)
        p[i] = rng.nextU32();
    return p;
}

IntPolynomial
randomDigits(unsigned n, std::int32_t half_range, Rng &rng)
{
    IntPolynomial p(n);
    for (unsigned i = 0; i < n; ++i)
        p[i] = static_cast<std::int32_t>(rng.nextBelow(
                   2 * static_cast<std::uint64_t>(half_range))) -
               half_range;
    return p;
}

double
maxTorusError(const TorusPolynomial &a, const TorusPolynomial &b)
{
    double max_err = 0;
    for (unsigned i = 0; i < a.degree(); ++i)
        max_err = std::max(max_err, torusDistance(a[i], b[i]));
    return max_err;
}

TEST(MergeSplitFft, PairProductMatchesSchoolbook)
{
    // Two independent products computed through ONE forward pass each
    // side and ONE inverse pass: the core merge-split claim.
    const unsigned n = 256;
    Rng rng(42);
    MergeSplitFft ms(n);

    const auto a1 = randomDigits(n, 128, rng);
    const auto a2 = randomDigits(n, 128, rng);
    const auto b1 = randomTorusPoly(n, rng);
    const auto b2 = randomTorusPoly(n, rng);

    FourierPolynomial fa1(n), fa2(n), fb1(n), fb2(n);
    ms.forwardPair(a1, a2, fa1, fa2);
    ms.forwardPair(b1, b2, fb1, fb2);

    FourierPolynomial acc1(n), acc2(n);
    acc1.mulAddAssign(fa1, fb1);
    acc2.mulAddAssign(fa2, fb2);

    TorusPolynomial c1(n), c2(n);
    ms.inversePair(acc1, acc2, c1, c2);

    TorusPolynomial ref1(n), ref2(n);
    negacyclicMulAddSchoolbook(ref1, a1, b1);
    negacyclicMulAddSchoolbook(ref2, a2, b2);

    EXPECT_LT(maxTorusError(c1, ref1), 1.0 / (1 << 24));
    EXPECT_LT(maxTorusError(c2, ref2), 1.0 / (1 << 24));
    EXPECT_EQ(ms.passes(), 3u); // 2 forward + 1 inverse
}

TEST(MergeSplitFft, SmallValuesAreExact)
{
    const unsigned n = 128;
    Rng rng(43);
    MergeSplitFft ms(n);
    const auto a1 = randomDigits(n, 4, rng);
    const auto a2 = randomDigits(n, 4, rng);
    const auto b1 = randomTorusPoly(n, rng);
    const auto b2 = randomTorusPoly(n, rng);

    FourierPolynomial fa1(n), fa2(n), fb1(n), fb2(n);
    ms.forwardPair(a1, a2, fa1, fa2);
    ms.forwardPair(b1, b2, fb1, fb2);
    FourierPolynomial acc1(n), acc2(n);
    acc1.mulAddAssign(fa1, fb1);
    acc2.mulAddAssign(fa2, fb2);
    TorusPolynomial c1(n), c2(n);
    ms.inversePair(acc1, acc2, c1, c2);

    TorusPolynomial ref1(n), ref2(n);
    negacyclicMulAddSchoolbook(ref1, a1, b1);
    negacyclicMulAddSchoolbook(ref2, a2, b2);
    EXPECT_EQ(c1, ref1);
    EXPECT_EQ(c2, ref2);
}

TEST(MergeSplitFft, SplitSeparatesIndependentSignals)
{
    // The split must not leak one polynomial into the other: transform
    // (a, 0) and (0, a) and compare spectra.
    const unsigned n = 64;
    Rng rng(44);
    const auto a = randomDigits(n, 100, rng);
    IntPolynomial zero(n);
    MergeSplitFft ms(n);

    FourierPolynomial a_first(n), z_first(n), a_second(n), z_second(n);
    ms.forwardPair(a, zero, a_first, z_first);
    ms.forwardPair(zero, a, z_second, a_second);

    for (unsigned k = 0; k < n / 2; ++k) {
        EXPECT_NEAR(a_first.re(k), a_second.re(k), 1e-6);
        EXPECT_NEAR(a_first.im(k), a_second.im(k), 1e-6);
        EXPECT_NEAR(z_first.re(k), 0.0, 1e-6);
        EXPECT_NEAR(z_second.im(k), 0.0, 1e-6);
    }
}

TEST(Vpe, AccumulatesAndRetires)
{
    const unsigned n = 64;
    Vpe vpe(n);
    Rng rng(45);
    MergeSplitFft ms(n);

    const auto a = randomDigits(n, 16, rng);
    const auto b = randomTorusPoly(n, rng);
    IntPolynomial zero_i(n);
    TorusPolynomial zero_t(n);
    FourierPolynomial fa(n), fb(n), sink(n);
    ms.forwardPair(a, zero_i, fa, sink);
    ms.forwardPair(b, zero_t, fb, sink);

    vpe.clearAccumulator();
    vpe.multiplyAccumulate(fa, fb);
    vpe.multiplyAccumulate(fa, fb); // accumulate twice
    EXPECT_EQ(vpe.macOps(), 2u * (n / 2));

    const auto &retired = vpe.retireForIfft();
    TorusPolynomial out(n), sink_t(n);
    FourierPolynomial zero_f(n);
    ms.inversePair(retired, zero_f, out, sink_t);

    TorusPolynomial ref(n);
    negacyclicMulAddSchoolbook(ref, a, b);
    negacyclicMulAddSchoolbook(ref, a, b);
    EXPECT_EQ(out, ref);

    // After retiring, the active register is clean.
    for (unsigned i = 0; i < vpe.accumulator().size(); ++i) {
        EXPECT_EQ(vpe.accumulator().re(i), 0.0);
        EXPECT_EQ(vpe.accumulator().im(i), 0.0);
    }
}

class FunctionalXpuFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Rng rng(0xF00D);
        keys_ = new KeySet(KeySet::generate(paramsTest(), rng));
        Rng bsk_rng(0xF00D + 1);
        raw_bsk_ = new std::vector<GgswCiphertext>(generateRawBsk(
            keys_->lweKey, keys_->glweKey, bsk_rng));
    }
    static void
    TearDownTestSuite()
    {
        delete keys_;
        delete raw_bsk_;
        keys_ = nullptr;
        raw_bsk_ = nullptr;
    }

    const KeySet &keys() { return *keys_; }
    Rng rng{0xFEED};

    static KeySet *keys_;
    static std::vector<GgswCiphertext> *raw_bsk_;
};

KeySet *FunctionalXpuFixture::keys_ = nullptr;
std::vector<GgswCiphertext> *FunctionalXpuFixture::raw_bsk_ = nullptr;

TEST_F(FunctionalXpuFixture, BlindRotationDecryptsCorrectly)
{
    FunctionalXpu xpu(keys().params);
    xpu.loadBootstrapKey(*raw_bsk_);

    const std::uint32_t space = 4;
    const auto lut = makePaddedLut(space, [](std::uint32_t m) {
        return (m + 1) % 4;
    });
    TorusPolynomial tp;
    buildTestPolynomialInto(keys().params.polyDegree, lut, tp);

    for (std::uint32_t m = 0; m < space; ++m) {
        const auto ct = encryptPadded(keys(), m, space, rng);
        std::vector<std::uint32_t> switched;
        modSwitchInto(ct, keys().params.polyDegree, switched);
        const auto acc = xpu.runBlindRotate(tp, switched);
        LweCiphertext extracted, out;
        acc.sampleExtractAtInto(0, extracted);
        keys().ksk.applyInto(extracted, out);
        EXPECT_EQ(decryptPadded(keys(), out, space), (m + 1) % 4)
            << "m=" << m;
    }
}

TEST_F(FunctionalXpuFixture, MatchesLibraryBlindRotation)
{
    // The XPU datapath and the library path use different FFT
    // conventions, so results differ only by sub-noise rounding.
    FunctionalXpu xpu(keys().params);
    xpu.loadBootstrapKey(*raw_bsk_);

    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    TorusPolynomial tp;
    buildTestPolynomialInto(keys().params.polyDegree, lut, tp);
    const auto ct = encryptPadded(keys(), 2, 4, rng);
    std::vector<std::uint32_t> switched;
    modSwitchInto(ct, keys().params.polyDegree, switched);

    // The reference library path needs the Fourier-domain BSK derived
    // from the SAME raw GGSWs, so run the blind rotation by hand.
    GlweCiphertext ref = GlweCiphertext::trivial(
        keys().params.glweDimension, tp);
    const unsigned two_n = 2 * keys().params.polyDegree;
    const unsigned n = keys().params.lweDimension;
    ref = ref.mulByXPower((two_n - switched[n] % two_n) % two_n);
    BootstrapWorkspace ws;
    for (unsigned i = 0; i < n; ++i) {
        const unsigned a_tilde = switched[i] % two_n;
        if (a_tilde == 0)
            continue;
        cmuxRotateInPlace(FourierGgsw::fromGgsw((*raw_bsk_)[i]), ref,
                          a_tilde, ws);
    }

    const auto got = xpu.runBlindRotate(tp, switched);
    for (unsigned c = 0; c <= keys().params.glweDimension; ++c) {
        for (unsigned j = 0; j < keys().params.polyDegree; ++j) {
            EXPECT_LT(torusDistance(got.component(c)[j],
                                    ref.component(c)[j]),
                      1.0 / (1 << 20))
                << "c=" << c << " j=" << j;
        }
    }
}

TEST_F(FunctionalXpuFixture, BatchSharesBskAcrossRows)
{
    FunctionalXpu xpu(keys().params, /*rows=*/4);
    xpu.loadBootstrapKey(*raw_bsk_);

    const std::uint32_t space = 4;
    const auto lut = makePaddedLut(space, [](std::uint32_t m) {
        return m;
    });
    TorusPolynomial tp;
    buildTestPolynomialInto(keys().params.polyDegree, lut, tp);

    std::vector<std::uint32_t> messages = {0, 1, 2, 3};
    std::vector<std::vector<std::uint32_t>> batch(messages.size());
    for (std::size_t i = 0; i < messages.size(); ++i)
        modSwitchInto(encryptPadded(keys(), messages[i], space, rng),
                      keys().params.polyDegree, batch[i]);

    const auto accs = xpu.runBlindRotateBatch(tp, batch);
    ASSERT_EQ(accs.size(), 4u);
    for (std::size_t i = 0; i < accs.size(); ++i) {
        LweCiphertext extracted, out;
        accs[i].sampleExtractAtInto(0, extracted);
        keys().ksk.applyInto(extracted, out);
        EXPECT_EQ(decryptPadded(keys(), out, space), messages[i]);
    }
}

TEST_F(FunctionalXpuFixture, DatapathCountersMatchClosedForm)
{
    FunctionalXpu xpu(keys().params);
    xpu.loadBootstrapKey(*raw_bsk_);
    const auto before = xpu.stats();

    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    TorusPolynomial tp;
    buildTestPolynomialInto(keys().params.polyDegree, lut, tp);
    const auto ct = encryptPadded(keys(), 1, 4, rng);
    std::vector<std::uint32_t> switched;
    modSwitchInto(ct, keys().params.polyDegree, switched);
    xpu.runBlindRotate(tp, switched);

    const auto after = xpu.stats();
    const auto iters = after.iterations - before.iterations;
    EXPECT_GT(iters, 0u);

    // Per iteration: (k+1) l_b digits through merge-split forward
    // passes, (k+1) outputs through inverse passes, (k+1)^2 l_b * N/2
    // MACs.
    const std::uint64_t kp1 = keys().params.glweDimension + 1;
    const std::uint64_t lb = keys().params.bskLevels;
    const std::uint64_t half = keys().params.polyDegree / 2;
    EXPECT_EQ(after.fftPasses - before.fftPasses,
              iters * ((kp1 * lb + 1) / 2));
    EXPECT_EQ(after.ifftPasses - before.ifftPasses,
              iters * ((kp1 + 1) / 2));
    EXPECT_EQ(after.vpeMacOps - before.vpeMacOps,
              iters * kp1 * kp1 * lb * half);
}

} // namespace
} // namespace morphling::arch::functional
