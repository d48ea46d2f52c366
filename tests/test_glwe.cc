/**
 * @file
 * Unit tests for GLWE ciphertexts: encryption round-trips, homomorphic
 * rotation, sample extraction and the extracted-key correspondence.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tfhe/glwe.h"
#include "tfhe/params.h"

namespace morphling::tfhe {
namespace {

class GlweFixture : public ::testing::Test
{
  protected:
    const TfheParams &params = paramsTest();
    Rng rng{54321};
    GlweKey key = GlweKey::generate(params, rng);

    TorusPolynomial
    randomMessage(std::uint32_t space)
    {
        TorusPolynomial m(params.polyDegree);
        for (unsigned i = 0; i < m.degree(); ++i)
            m[i] = encodeMessage(
                static_cast<std::uint32_t>(rng.nextBelow(space)), space);
        return m;
    }
};

TEST_F(GlweFixture, KeyShape)
{
    EXPECT_EQ(key.dimension(), params.glweDimension);
    for (unsigned i = 0; i < key.dimension(); ++i) {
        EXPECT_EQ(key.poly(i).degree(), params.polyDegree);
        for (unsigned j = 0; j < params.polyDegree; ++j) {
            const auto bit = key.poly(i)[j];
            EXPECT_TRUE(bit == 0 || bit == 1);
        }
    }
}

TEST_F(GlweFixture, EncryptDecryptRoundTrip)
{
    const std::uint32_t space = 8;
    const auto message = randomMessage(space);
    const auto ct =
        GlweCiphertext::encrypt(key, message, params.glweNoiseStd, rng);
    const auto phase = ct.phase(key);
    for (unsigned i = 0; i < message.degree(); ++i)
        EXPECT_EQ(decodeMessage(phase[i], space),
                  decodeMessage(message[i], space));
}

TEST_F(GlweFixture, PhaseNoiseIsSmall)
{
    const auto message = randomMessage(4);
    const auto ct =
        GlweCiphertext::encrypt(key, message, params.glweNoiseStd, rng);
    const auto phase = ct.phase(key);
    for (unsigned i = 0; i < message.degree(); ++i)
        EXPECT_LT(torusDistance(phase[i], message[i]),
                  20 * params.glweNoiseStd + 1e-6);
}

TEST_F(GlweFixture, TrivialEncryptionHasExactPhase)
{
    const auto message = randomMessage(16);
    const auto ct =
        GlweCiphertext::trivial(params.glweDimension, message);
    EXPECT_EQ(ct.phase(key), message);
}

TEST_F(GlweFixture, HomomorphicAddition)
{
    const auto m1 = randomMessage(4);
    const auto m2 = randomMessage(4);
    auto c1 =
        GlweCiphertext::encrypt(key, m1, params.glweNoiseStd, rng);
    const auto c2 =
        GlweCiphertext::encrypt(key, m2, params.glweNoiseStd, rng);
    c1.addAssign(c2);
    const auto phase = c1.phase(key);
    for (unsigned i = 0; i < m1.degree(); ++i) {
        const Torus32 expected = m1[i] + m2[i];
        EXPECT_EQ(decodeMessage(phase[i], 4), decodeMessage(expected, 4));
    }
}

TEST_F(GlweFixture, RotationCommutesWithDecryption)
{
    // phase(X^a * C) == X^a * phase(C): rotating every component
    // rotates the plaintext.
    const auto message = randomMessage(4);
    const auto ct =
        GlweCiphertext::encrypt(key, message, params.glweNoiseStd, rng);
    for (unsigned power : {1u, 77u, params.polyDegree,
                           2 * params.polyDegree - 1}) {
        const auto rotated = ct.mulByXPower(power);
        const auto phase = rotated.phase(key);
        const auto expected = message.mulByXPower(power);
        for (unsigned i = 0; i < message.degree(); ++i)
            EXPECT_EQ(decodeMessage(phase[i], 4),
                      decodeMessage(expected[i], 4))
                << "power=" << power << " i=" << i;
    }
}

TEST_F(GlweFixture, SampleExtractRecoversConstantCoefficient)
{
    const auto extracted_key = key.extractLweKey();
    EXPECT_EQ(extracted_key.dimension(),
              params.glweDimension * params.polyDegree);

    for (int rep = 0; rep < 5; ++rep) {
        const auto message = randomMessage(8);
        const auto ct = GlweCiphertext::encrypt(
            key, message, params.glweNoiseStd, rng);
        LweCiphertext lwe;
        ct.sampleExtractAtInto(0, lwe);
        EXPECT_EQ(lwe.dimension(), extracted_key.dimension());
        EXPECT_EQ(lweDecrypt(extracted_key, lwe, 8),
                  decodeMessage(message[0], 8));
    }
}

TEST_F(GlweFixture, SampleExtractOfRotatedCiphertext)
{
    // Rotating by X^{2N-j} brings coefficient j to position 0; the
    // composition with sample extraction is how bootstrapping reads the
    // test polynomial.
    const auto extracted_key = key.extractLweKey();
    const auto message = randomMessage(8);
    const auto ct =
        GlweCiphertext::encrypt(key, message, params.glweNoiseStd, rng);
    const unsigned j = 13;
    const auto rotated =
        ct.mulByXPower(2 * params.polyDegree - j);
    LweCiphertext lwe;
    rotated.sampleExtractAtInto(0, lwe);
    EXPECT_EQ(lweDecrypt(extracted_key, lwe, 8),
              decodeMessage(message[j], 8));
}

} // namespace
} // namespace morphling::tfhe
