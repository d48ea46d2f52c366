/**
 * @file
 * Tests for the negacyclic FFT engine: agreement with the schoolbook
 * negacyclic product across ring degrees and magnitudes, linearity of
 * the transform domain, and round-off bounds for the large single-level
 * gadgets (set IV / A style digits).
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.h"
#include "tfhe/fft.h"
#include "tfhe/polynomial.h"

namespace morphling::tfhe {
namespace {

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
        p[i] = static_cast<std::int32_t>(
                   rng.nextBelow(2 * static_cast<std::uint64_t>(
                                         half_range))) -
               half_range;
    return p;
}

/** Count-1 forward transform of a digit polynomial. */
FourierPolynomial
forwardOf(const IntPolynomial &a)
{
    FourierPolynomial out(a.degree());
    const IntPolynomial *in = &a;
    FourierPolynomial *outp = &out;
    BatchFft::forDegree(a.degree()).forward(&in, &outp, 1);
    return out;
}

/** Count-1 forward transform of a torus polynomial (coefficients read
 *  as signed 32-bit integers). */
FourierPolynomial
forwardOf(const TorusPolynomial &b)
{
    FourierPolynomial out(b.degree());
    const auto *in = reinterpret_cast<const std::int32_t *>(b.data());
    FourierPolynomial *outp = &out;
    BatchFft::forDegree(b.degree()).forward(&in, &outp, 1);
    return out;
}

/** Count-1 inverse transform back onto the torus. */
TorusPolynomial
inverseOf(const FourierPolynomial &f)
{
    TorusPolynomial out(f.ringDegree());
    const FourierPolynomial *in = &f;
    TorusPolynomial *outp = &out;
    BatchFft::forDegree(f.ringDegree()).inverseInPlace(&in, &outp, 1);
    return out;
}

TorusPolynomial
fourierProduct(const IntPolynomial &a, const TorusPolynomial &b)
{
    FourierPolynomial fc(a.degree());
    fc.mulAddAssign(forwardOf(a), forwardOf(b));
    return inverseOf(fc);
}

double
maxTorusError(const TorusPolynomial &a, const TorusPolynomial &b)
{
    double max_err = 0;
    for (unsigned i = 0; i < a.degree(); ++i)
        max_err = std::max(max_err, torusDistance(a[i], b[i]));
    return max_err;
}

class FftDegrees : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FftDegrees, SmallDigitProductIsExact)
{
    // With small digits the products stay far inside the 53-bit
    // mantissa and the rounded result is bit-exact.
    const unsigned n = GetParam();
    Rng rng(1000 + n);
    for (int rep = 0; rep < 3; ++rep) {
        const auto a = randomDigits(n, 8, rng);
        const auto b = randomTorusPoly(n, rng);
        TorusPolynomial expected(n);
        negacyclicMulAddSchoolbook(expected, a, b);
        EXPECT_EQ(fourierProduct(a, b), expected) << "N=" << n;
    }
}

TEST_P(FftDegrees, GadgetDigitProductWithinNoiseBudget)
{
    // Digits as a (base 2^10) gadget produces: |a| <= 2^9. FFT
    // round-off must stay orders of magnitude below the decryption
    // margin (the tightest margin across parameter sets is 2^-6).
    const unsigned n = GetParam();
    Rng rng(2000 + n);
    for (int rep = 0; rep < 3; ++rep) {
        const auto a = randomDigits(n, 512, rng);
        const auto b = randomTorusPoly(n, rng);
        TorusPolynomial expected(n);
        negacyclicMulAddSchoolbook(expected, a, b);
        EXPECT_LT(maxTorusError(fourierProduct(a, b), expected),
                  1.0 / (1 << 24))
            << "N=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(AllRingDegrees, FftDegrees,
                         ::testing::Values(16u, 64u, 256u, 512u, 1024u,
                                           2048u));

TEST(Fft, MonomialProductIsRotation)
{
    const unsigned n = 256;
    Rng rng(17);
    const auto b = randomTorusPoly(n, rng);
    for (unsigned power : {0u, 1u, 100u, 255u}) {
        IntPolynomial mono(n);
        mono[power] = 1;
        EXPECT_EQ(fourierProduct(mono, b), b.mulByXPower(power))
            << "power=" << power;
    }
}

TEST(Fft, ForwardIsLinear)
{
    const unsigned n = 128;
    Rng rng(23);
    const auto a = randomDigits(n, 100, rng);
    const auto b = randomDigits(n, 100, rng);
    IntPolynomial sum(n);
    for (unsigned i = 0; i < n; ++i)
        sum[i] = a[i] + b[i];

    const FourierPolynomial fa = forwardOf(a), fb = forwardOf(b),
                            fsum = forwardOf(sum);
    for (unsigned i = 0; i < fa.size(); ++i) {
        EXPECT_NEAR(fsum.re(i), fa.re(i) + fb.re(i),
                    1e-6 * (1.0 + std::abs(fsum.re(i))));
        EXPECT_NEAR(fsum.im(i), fa.im(i) + fb.im(i),
                    1e-6 * (1.0 + std::abs(fsum.im(i))));
    }
}

TEST(Fft, AccumulationInTransformDomainMatchesCoefficientDomain)
{
    // The core of output transform-domain reuse: IFFT(sum of products)
    // equals sum of IFFT(products).
    const unsigned n = 256;
    Rng rng(29);

    const int terms = 6;
    FourierPolynomial acc(n);
    TorusPolynomial expected(n);
    for (int t = 0; t < terms; ++t) {
        const auto a = randomDigits(n, 128, rng);
        const auto b = randomTorusPoly(n, rng);
        acc.mulAddAssign(forwardOf(a), forwardOf(b));
        negacyclicMulAddSchoolbook(expected, a, b);
    }
    EXPECT_LT(maxTorusError(inverseOf(acc), expected), 1.0 / (1 << 24));
}

TEST(Fft, LargeSingleLevelDigitsStayWithinNoiseBudget)
{
    // Set IV-style gadget: l_b = 1, base 2^23 -> digit magnitudes up to
    // 2^22. Products overflow exact double range, so the result is only
    // required to be correct to well below the bootstrap margin
    // (2^-6 of the torus), with several bits to spare.
    const unsigned n = 2048;
    Rng rng(31);
    const auto a = randomDigits(n, 1 << 22, rng);
    const auto b = randomTorusPoly(n, rng);

    TorusPolynomial expected(n);
    negacyclicMulAddSchoolbook(expected, a, b);
    const auto got = fourierProduct(a, b);

    double max_err = 0;
    for (unsigned i = 0; i < n; ++i)
        max_err = std::max(max_err, torusDistance(got[i], expected[i]));
    EXPECT_LT(max_err, 1.0 / (1 << 14));
}

TEST(Fft, InverseOfZeroIsZero)
{
    const unsigned n = 64;
    const TorusPolynomial out = inverseOf(FourierPolynomial(n));
    for (unsigned i = 0; i < n; ++i)
        EXPECT_EQ(out[i], 0u);
}

TEST(Fft, EngineCacheReturnsSameInstancePerThread)
{
    const auto &a = BatchFft::forDegree(512);
    const auto &b = BatchFft::forDegree(512);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.ringDegree(), 512u);
}

} // namespace
} // namespace morphling::tfhe
