/**
 * @file
 * Cross-parameter-set property tests: algebraic identities that must
 * hold on every Table III set, not just the small test set — LWE/GLWE
 * homomorphism, extract/key-switch composition, gadget-reconstruction
 * bounds, and blind-rotation phase arithmetic. These run on fresh keys
 * per set (LWE-only where possible to keep them fast).
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tfhe/bootstrap.h"
#include "tfhe/encoding.h"
#include "tfhe/ggsw.h"

namespace morphling::tfhe {
namespace {

class ParamSweep : public ::testing::TestWithParam<const char *>
{
  protected:
    const TfheParams &
    params() const
    {
        return paramsByName(GetParam());
    }
};

TEST_P(ParamSweep, LweLinearHomomorphism)
{
    Rng rng(100 + params().polyDegree);
    const LweKey key = LweKey::generate(params(), rng);
    const std::uint32_t space = 16;

    for (int rep = 0; rep < 5; ++rep) {
        const auto m1 =
            static_cast<std::uint32_t>(rng.nextBelow(space));
        const auto m2 =
            static_cast<std::uint32_t>(rng.nextBelow(space));
        const auto s =
            static_cast<std::int32_t>(rng.nextBelow(5)) + 1;

        auto c1 = LweCiphertext::encrypt(
            key, encodeMessage(m1, space), params().lweNoiseStd, rng);
        const auto c2 = LweCiphertext::encrypt(
            key, encodeMessage(m2, space), params().lweNoiseStd, rng);

        c1.scaleAssign(s);
        c1.addAssign(c2);
        EXPECT_EQ(lweDecrypt(key, c1, space),
                  (static_cast<std::uint32_t>(s) * m1 + m2) % space)
            << params().name;
    }
}

TEST_P(ParamSweep, ExtractThenSwitchPreservesMessage)
{
    Rng rng(200 + params().polyDegree);
    const GlweKey glwe_key = GlweKey::generate(params(), rng);
    const LweKey lwe_key = LweKey::generate(params(), rng);
    const LweKey extracted = glwe_key.extractLweKey();
    const auto ksk = KeySwitchKey::generate(extracted, lwe_key, rng);

    const std::uint32_t space = 8;
    TorusPolynomial message(params().polyDegree);
    const auto m0 = static_cast<std::uint32_t>(rng.nextBelow(space));
    message[0] = encodeMessage(m0, space);

    const auto glwe_ct = GlweCiphertext::encrypt(
        glwe_key, message, params().glweNoiseStd, rng);
    LweCiphertext lwe_under_extracted;
    glwe_ct.sampleExtractAtInto(0, lwe_under_extracted);
    EXPECT_EQ(lweDecrypt(extracted, lwe_under_extracted, space), m0)
        << params().name;

    LweCiphertext switched;
    ksk.applyInto(lwe_under_extracted, switched);
    EXPECT_EQ(switched.dimension(), params().lweDimension);
    EXPECT_EQ(lweDecrypt(lwe_key, switched, space), m0)
        << params().name;
}

TEST_P(ParamSweep, GadgetReconstructionBound)
{
    Rng rng(300 + params().polyDegree);
    const unsigned bg = params().bskBaseBits;
    const unsigned lb = params().bskLevels;
    const double bound = 0x1.0p-1 / std::pow(2.0, bg * lb) + 1e-12;
    std::vector<std::int32_t> digits(lb);
    for (int rep = 0; rep < 500; ++rep) {
        const Torus32 v = rng.nextU32();
        gadgetDecomposeScalar(v, bg, lb, digits.data());
        Torus32 recon = 0;
        for (unsigned j = 0; j < lb; ++j) {
            recon += static_cast<Torus32>(
                static_cast<std::int64_t>(digits[j])
                << (32 - (j + 1) * bg));
        }
        EXPECT_LE(torusDistance(recon, v), bound) << params().name;
    }
}

TEST_P(ParamSweep, ModSwitchPhaseConsistency)
{
    // The switched ciphertext's phase in the 2N domain must match the
    // original torus phase to within the rounding bound — the
    // precondition for blind rotation landing in the right slot.
    Rng rng(400 + params().polyDegree);
    const LweKey key = LweKey::generate(params(), rng);
    const unsigned two_n = 2 * params().polyDegree;

    for (int rep = 0; rep < 10; ++rep) {
        const Torus32 mu = rng.nextU32();
        const auto ct = LweCiphertext::encrypt(
            key, mu, params().lweNoiseStd, rng);
        std::vector<std::uint32_t> switched;
        modSwitchInto(ct, params().polyDegree, switched);

        std::uint64_t acc = switched[params().lweDimension];
        for (unsigned i = 0; i < params().lweDimension; ++i) {
            if (key.bits()[i])
                acc += two_n - switched[i];
        }
        const double phase_2n =
            static_cast<double>(acc % two_n) / two_n;
        // Bound: per-element rounding 1/(4N) accumulated over ~n/2 key
        // hits behaves like a random walk; 8 sigma covers it.
        const double sigma =
            std::sqrt((params().lweDimension / 2.0 + 1.0) / 12.0) /
            two_n;
        EXPECT_LT(torusDistance(doubleToTorus32(phase_2n), mu),
                  8 * sigma + 16.0 * params().lweNoiseStd + 1.0 / two_n)
            << params().name;
    }
}

INSTANTIATE_TEST_SUITE_P(AllSets, ParamSweep,
                         ::testing::Values("I", "II", "III", "IV", "A",
                                           "B", "C"),
                         [](const auto &info) {
                             return std::string("Set") + info.param;
                         });

} // namespace
} // namespace morphling::tfhe
