/**
 * @file
 * Tests of multi-LUT bootstrapping and coefficient-indexed sample
 * extraction: several functions from one blind rotation, consistency
 * with the single-LUT path, and the packing-limit checks.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tfhe/bootstrap.h"
#include "tfhe/encoding.h"

namespace morphling::tfhe {
namespace {

class MultiLutFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Rng rng(0x171);
        keys_ = new KeySet(KeySet::generate(paramsTest(), rng));
    }
    static void
    TearDownTestSuite()
    {
        delete keys_;
        keys_ = nullptr;
    }

    const KeySet &keys() { return *keys_; }
    Rng rng{0x9999};

    static KeySet *keys_;
};

KeySet *MultiLutFixture::keys_ = nullptr;

TEST_F(MultiLutFixture, SampleExtractAtRecoversEveryCoefficient)
{
    const auto &params = keys().params;
    Rng local(55);
    TorusPolynomial message(params.polyDegree);
    for (unsigned i = 0; i < params.polyDegree; ++i)
        message[i] = encodeMessage(
            static_cast<std::uint32_t>(local.nextBelow(8)), 8);
    const auto ct = GlweCiphertext::encrypt(
        keys().glweKey, message, params.glweNoiseStd, local);
    const auto extracted_key = keys().glweKey.extractLweKey();

    for (unsigned index : {0u, 1u, 17u, params.polyDegree - 1}) {
        LweCiphertext lwe;
        ct.sampleExtractAtInto(index, lwe);
        EXPECT_EQ(lweDecrypt(extracted_key, lwe, 8),
                  decodeMessage(message[index], 8))
            << "index " << index;
    }
}

TEST_F(MultiLutFixture, MultiTestPolynomialLayout)
{
    // N = 64, p = 4, nu = 2: slot 16, spacing 8.
    const std::vector<std::vector<Torus32>> luts = {
        {10, 20, 30, 40}, {50, 60, 70, 80}};
    const auto tp = buildMultiTestPolynomial(64, luts);
    // Slot centers: f0 copies at m*16, f1 copies at m*16 + 8.
    EXPECT_EQ(tp[0], 10u);
    EXPECT_EQ(tp[8], 50u);
    EXPECT_EQ(tp[16], 20u);
    EXPECT_EQ(tp[24], 60u);
    EXPECT_EQ(tp[48], 40u);
    EXPECT_EQ(tp[56], 80u);
    // Top wrap region: -f(0) of the function whose copy lands there.
    EXPECT_EQ(tp[63], static_cast<Torus32>(-10));
}

TEST_F(MultiLutFixture, TwoFunctionsOneBlindRotation)
{
    const std::uint32_t space = 4;
    const std::vector<std::vector<Torus32>> luts = {
        makePaddedLut(space, [](std::uint32_t m) { return (m + 1) % 4; }),
        makePaddedLut(space, [](std::uint32_t m) { return (3 * m) % 4; }),
    };
    for (std::uint32_t m = 0; m < space; ++m) {
        const auto ct = encryptPadded(keys(), m, space, rng);
        const auto out = multiLutBootstrap(keys(), ct, luts);
        ASSERT_EQ(out.size(), 2u);
        EXPECT_EQ(decryptPadded(keys(), out[0], space), (m + 1) % 4)
            << "m=" << m;
        EXPECT_EQ(decryptPadded(keys(), out[1], space), (3 * m) % 4)
            << "m=" << m;
    }
}

TEST_F(MultiLutFixture, FourFunctionsStillWithinMargin)
{
    const std::uint32_t space = 4;
    std::vector<std::vector<Torus32>> luts;
    for (std::uint32_t k = 0; k < 4; ++k) {
        luts.push_back(makePaddedLut(space, [k](std::uint32_t m) {
            return (m + k) % 4;
        }));
    }
    for (std::uint32_t m = 0; m < space; ++m) {
        const auto ct = encryptPadded(keys(), m, space, rng);
        const auto out = multiLutBootstrap(keys(), ct, luts);
        for (std::uint32_t k = 0; k < 4; ++k) {
            EXPECT_EQ(decryptPadded(keys(), out[k], space),
                      (m + k) % 4)
                << "m=" << m << " k=" << k;
        }
    }
}

TEST_F(MultiLutFixture, SingleLutMatchesClassicPath)
{
    const std::uint32_t space = 4;
    const auto lut = makePaddedLut(space, [](std::uint32_t m) {
        return (m * m) % 4;
    });
    const auto ct = encryptPadded(keys(), 3, space, rng);
    const auto classic = programmableBootstrap(keys(), ct, lut);
    const auto multi = multiLutBootstrap(keys(), ct, {lut});
    ASSERT_EQ(multi.size(), 1u);
    // Identical deterministic pipeline: bit-identical results.
    EXPECT_EQ(multi[0].raw(), classic.raw());
}

TEST_F(MultiLutFixture, OverPackingDies)
{
    // N = 512, p = 128, nu = 4 -> spacing 1 < 2: must be rejected.
    std::vector<std::vector<Torus32>> luts(
        4, std::vector<Torus32>(128, 0));
    EXPECT_EXIT(
        buildMultiTestPolynomial(keys().params.polyDegree, luts),
        ::testing::ExitedWithCode(1), "cannot pack");
}

} // namespace
} // namespace morphling::tfhe
