/**
 * @file
 * Unit tests for gadget decomposition, GGSW encryption, and the
 * external product (schoolbook vs Fourier), plus the CMux selector
 * identity that blind rotation is built on.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tfhe/ggsw.h"
#include "tfhe/params.h"
#include "tfhe/workspace.h"

namespace morphling::tfhe {
namespace {

TEST(GadgetDecompose, ReconstructionErrorBounded)
{
    Rng rng(1);
    for (unsigned base_bits : {2u, 6u, 8u, 10u, 23u}) {
        for (unsigned levels = 1; levels * base_bits <= 32 && levels <= 4;
             ++levels) {
            const double bound =
                0x1.0p-1 / std::pow(2.0, base_bits * levels) + 1e-12;
            for (int rep = 0; rep < 200; ++rep) {
                const Torus32 v = rng.nextU32();
                std::vector<std::int32_t> digits(levels);
                gadgetDecomposeScalar(v, base_bits, levels,
                                      digits.data());
                Torus32 recon = 0;
                for (unsigned j = 0; j < levels; ++j) {
                    recon += static_cast<Torus32>(
                        static_cast<std::int64_t>(digits[j])
                        << (32 - (j + 1) * base_bits));
                }
                EXPECT_LE(torusDistance(recon, v), bound)
                    << "base=2^" << base_bits << " l=" << levels;
            }
        }
    }
}

TEST(GadgetDecompose, DigitsAreCentered)
{
    Rng rng(2);
    const unsigned base_bits = 7, levels = 3;
    const std::int32_t half = 1 << (base_bits - 1);
    for (int rep = 0; rep < 500; ++rep) {
        const Torus32 v = rng.nextU32();
        std::int32_t digits[3];
        gadgetDecomposeScalar(v, base_bits, levels, digits);
        for (auto d : digits) {
            EXPECT_GE(d, -half);
            EXPECT_LT(d, half);
        }
    }
}

TEST(GadgetDecompose, ZeroDecomposesToZero)
{
    std::int32_t digits[4] = {9, 9, 9, 9};
    gadgetDecomposeScalar(0, 8, 4, digits);
    for (auto d : digits)
        EXPECT_EQ(d, 0);
}

TEST(GadgetDecompose, PolynomialMatchesScalar)
{
    Rng rng(3);
    const unsigned n = 64, base_bits = 6, levels = 3;
    TorusPolynomial poly(n);
    for (unsigned i = 0; i < n; ++i)
        poly[i] = rng.nextU32();
    std::vector<IntPolynomial> out(levels, IntPolynomial(n));
    gadgetDecomposePlannedInto(poly, makeGadgetPlan(base_bits, levels),
                               out.data());
    std::int32_t digits[3];
    for (unsigned i = 0; i < n; ++i) {
        gadgetDecomposeScalar(poly[i], base_bits, levels, digits);
        for (unsigned j = 0; j < levels; ++j)
            EXPECT_EQ(out[j][i], digits[j]);
    }
}

class GgswFixture : public ::testing::Test
{
  protected:
    const TfheParams &params = paramsTest();
    Rng rng{424242};
    GlweKey key = GlweKey::generate(params, rng);

    GlweCiphertext
    encryptRandom(std::uint32_t space, TorusPolynomial *message_out)
    {
        TorusPolynomial m(params.polyDegree);
        for (unsigned i = 0; i < m.degree(); ++i)
            m[i] = encodeMessage(
                static_cast<std::uint32_t>(rng.nextBelow(space)), space);
        if (message_out)
            *message_out = m;
        return GlweCiphertext::encrypt(key, m, params.glweNoiseStd, rng);
    }
};

TEST_F(GgswFixture, GgswShape)
{
    const auto ggsw =
        GgswCiphertext::encrypt(key, 1, params.glweNoiseStd, rng);
    EXPECT_EQ(ggsw.numRows(),
              (params.glweDimension + 1) * params.bskLevels);
    EXPECT_EQ(ggsw.levels(), params.bskLevels);
    EXPECT_EQ(ggsw.baseBits(), params.bskBaseBits);
}

TEST_F(GgswFixture, ExternalProductByZeroGivesZero)
{
    const auto ggsw =
        GgswCiphertext::encrypt(key, 0, params.glweNoiseStd, rng);
    TorusPolynomial message;
    const auto ct = encryptRandom(4, &message);
    const auto result = externalProductSchoolbook(ggsw, ct);
    const auto phase = result.phase(key);
    // GGSW(0) [.] C decrypts to (approximately) the zero polynomial.
    for (unsigned i = 0; i < phase.degree(); ++i)
        EXPECT_LT(torusDistance(phase[i], 0), 1e-3);
}

TEST_F(GgswFixture, ExternalProductByOneIsIdentity)
{
    const auto ggsw =
        GgswCiphertext::encrypt(key, 1, params.glweNoiseStd, rng);
    TorusPolynomial message;
    const auto ct = encryptRandom(4, &message);
    const auto result = externalProductSchoolbook(ggsw, ct);
    const auto phase = result.phase(key);
    for (unsigned i = 0; i < phase.degree(); ++i)
        EXPECT_EQ(decodeMessage(phase[i], 4),
                  decodeMessage(message[i], 4));
}

TEST_F(GgswFixture, FourierMatchesSchoolbook)
{
    const auto ggsw =
        GgswCiphertext::encrypt(key, 1, params.glweNoiseStd, rng);
    const auto fourier = FourierGgsw::fromGgsw(ggsw);
    const auto ct = encryptRandom(4, nullptr);

    const auto ref = externalProductSchoolbook(ggsw, ct);
    BootstrapWorkspace ws;
    GlweCiphertext got;
    externalProductFourier(fourier, ct, got, ws);
    for (unsigned c = 0; c <= params.glweDimension; ++c) {
        for (unsigned i = 0; i < params.polyDegree; ++i) {
            EXPECT_LT(torusDistance(got.component(c)[i],
                                    ref.component(c)[i]),
                      1.0 / (1 << 24))
                << "c=" << c << " i=" << i;
        }
    }
}

TEST_F(GgswFixture, CmuxSelectsBetweenRotatedAndOriginal)
{
    TorusPolynomial message;
    const auto ct = encryptRandom(4, &message);
    const unsigned power = 2 * params.polyDegree - 5;

    // Selector 0: output == input.
    const auto sel0 = FourierGgsw::fromGgsw(
        GgswCiphertext::encrypt(key, 0, params.glweNoiseStd, rng));
    BootstrapWorkspace ws;
    GlweCiphertext keep = ct;
    cmuxRotateInPlace(sel0, keep, power, ws);
    const auto keep_phase = keep.phase(key);
    for (unsigned i = 0; i < message.degree(); ++i)
        EXPECT_EQ(decodeMessage(keep_phase[i], 4),
                  decodeMessage(message[i], 4));

    // Selector 1: output == X^power * input.
    const auto sel1 = FourierGgsw::fromGgsw(
        GgswCiphertext::encrypt(key, 1, params.glweNoiseStd, rng));
    GlweCiphertext rot = ct;
    cmuxRotateInPlace(sel1, rot, power, ws);
    const auto rot_phase = rot.phase(key);
    const auto expected = message.mulByXPower(power);
    for (unsigned i = 0; i < message.degree(); ++i)
        EXPECT_EQ(decodeMessage(rot_phase[i], 4),
                  decodeMessage(expected[i], 4));
}

TEST_F(GgswFixture, ChainedCmuxAccumulatesRotations)
{
    // A miniature blind rotation: the accumulated rotation is the sum
    // of the selected powers.
    TorusPolynomial message;
    auto acc = encryptRandom(4, &message);
    const unsigned n_poly = params.polyDegree;
    unsigned total = 0;
    BootstrapWorkspace ws;
    const unsigned powers[] = {3, 0, 11, 7};
    const int bits[] = {1, 1, 0, 1};
    for (int step = 0; step < 4; ++step) {
        const auto sel = FourierGgsw::fromGgsw(GgswCiphertext::encrypt(
            key, bits[step], params.glweNoiseStd, rng));
        cmuxRotateInPlace(sel, acc, powers[step], ws);
        if (bits[step])
            total += powers[step];
    }
    const auto phase = acc.phase(key);
    const auto expected = message.mulByXPower(total % (2 * n_poly));
    for (unsigned i = 0; i < message.degree(); ++i)
        EXPECT_EQ(decodeMessage(phase[i], 4),
                  decodeMessage(expected[i], 4));
}

} // namespace
} // namespace morphling::tfhe
