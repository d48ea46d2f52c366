/**
 * @file
 * Tests for the zero-allocation bootstrap hot path: workspace vs.
 * workspace-free entry-point equivalence (exact integer equality), the
 * negacyclic FFT engine on every dispatch tier against the radix-2
 * reference and the forced scalar tier, the planned gadget
 * decomposition and in-place rotations against their scalar originals,
 * the BSK-stationary group blind rotation against a per-ciphertext
 * reference, and an operator-new hook asserting that a warmed-up
 * bootstrap, group rotation and superbatch rotation through the
 * workspace perform zero heap allocations.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "compiler/sw_scheduler.h"
#include "exec/functional_backend.h"
#include "tfhe/bootstrap.h"
#include "tfhe/encoding.h"
#include "tfhe/fft.h"
#include "tfhe/fft_dispatch.h"
#include "tfhe/ggsw.h"
#include "tfhe/workspace.h"

// ---------------------------------------------------------------------
// Allocation-count hook: every path through global operator new bumps
// the counter while tracking is enabled. Deletes are left uncounted (a
// zero-allocation region is trivially a zero-deallocation region for
// warm buffers, and freeing is harmless anyway). The aligned overloads
// must honor the requested alignment: the SIMD buffers (AlignedVector)
// allocate through them and assert 64-byte alignment below.
// ---------------------------------------------------------------------

namespace {
std::atomic<bool> g_track{false};
std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t size)
{
    if (g_track.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size ? size : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    if (g_track.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    std::size_t a = static_cast<std::size_t>(align);
    if (a < sizeof(void *))
        a = sizeof(void *);
    void *p = nullptr;
    if (posix_memalign(&p, a, size ? size : a) != 0)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

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

/** Force a tier for one scope, then drop back to the env/auto choice. */
struct DispatchGuard
{
    explicit DispatchGuard(FftDispatchTier t) { forceFftDispatchTier(t); }
    ~DispatchGuard() { resetFftDispatchTier(); }
};

IntPolynomial
randomIntPoly(unsigned n, Rng &rng)
{
    IntPolynomial p(n);
    for (unsigned i = 0; i < n; ++i)
        p[i] = static_cast<std::int32_t>(rng.nextU32());
    return p;
}

std::vector<IntPolynomial>
randomIntPolys(unsigned count, unsigned n, Rng &rng)
{
    std::vector<IntPolynomial> polys;
    for (unsigned i = 0; i < count; ++i)
        polys.push_back(randomIntPoly(n, rng));
    return polys;
}

/** One batched forward call over all of `polys` (the dispatch ladder
 *  picks the rungs). */
std::vector<FourierPolynomial>
forwardAll(const BatchFft &bfft, const std::vector<IntPolynomial> &polys)
{
    std::vector<FourierPolynomial> out(polys.size(),
                                       FourierPolynomial(bfft.ringDegree()));
    std::vector<const IntPolynomial *> in;
    std::vector<FourierPolynomial *> outP;
    for (std::size_t i = 0; i < polys.size(); ++i) {
        in.push_back(&polys[i]);
        outP.push_back(&out[i]);
    }
    bfft.forward(in.data(), outP.data(), static_cast<unsigned>(in.size()));
    return out;
}

/** One batched inverse call over all of `spectra`. */
std::vector<TorusPolynomial>
inverseAll(const BatchFft &bfft, const std::vector<FourierPolynomial> &spectra)
{
    std::vector<TorusPolynomial> out(spectra.size(),
                                     TorusPolynomial(bfft.ringDegree()));
    std::vector<const FourierPolynomial *> in;
    std::vector<TorusPolynomial *> outP;
    for (std::size_t i = 0; i < spectra.size(); ++i) {
        in.push_back(&spectra[i]);
        outP.push_back(&out[i]);
    }
    bfft.inverseInPlace(in.data(), outP.data(),
                        static_cast<unsigned>(in.size()));
    return out;
}

// ---------------------------------------------------------------------
// The negacyclic engine vs. the radix-2 reference, on every tier.
//
// The engine emits its spectrum in digit-reversed order. binPosition()
// computes that permutation from the algorithm, independently of the
// engine: the reference spectrum is the fold + twist done by hand,
// followed by ComplexFft in natural order.
// ---------------------------------------------------------------------

/** Where the forward of an m-point transform stores bin k. A radix-4
 *  DIF stage sends bin k to quarter k mod 4 and recurses on bin k / 4
 *  inside that quarter (base-4 digit reversal); the twiddle-free
 *  radix-2 tail, left when log2(m) is odd, keeps its two bins in
 *  order. */
unsigned
binPosition(unsigned k, unsigned m)
{
    if (m <= 2)
        return k;
    return (k % 4) * (m / 4) + binPosition(k / 4, m / 4);
}

/** The negacyclic spectrum of `poly` in natural bin order: x_j =
 *  (a_j + i a_{j+N/2}) e^{i pi j/N}, then the radix-2 reference. */
void
referenceSpectrum(const IntPolynomial &poly, std::vector<double> &re,
                  std::vector<double> &im)
{
    const unsigned n = poly.degree(), half = n / 2;
    re.assign(half, 0.0);
    im.assign(half, 0.0);
    for (unsigned j = 0; j < half; ++j) {
        const double angle =
            M_PI * static_cast<double>(j) / static_cast<double>(n);
        const double lo = poly[j], hi = poly[j + half];
        re[j] = lo * std::cos(angle) - hi * std::sin(angle);
        im[j] = lo * std::sin(angle) + hi * std::cos(angle);
    }
    ComplexFft(half).forward(re.data(), im.data());
}

/** `spectrum` equals the reference spectrum of `poly` up to the
 *  engine permutation, within a tolerance scaled to the largest bin
 *  (a wrong permutation is off by the size of a bin). */
::testing::AssertionResult
matchesReference(const IntPolynomial &poly,
                 const FourierPolynomial &spectrum)
{
    std::vector<double> re, im;
    referenceSpectrum(poly, re, im);
    const unsigned m = static_cast<unsigned>(re.size());
    double peak = 1.0;
    for (unsigned k = 0; k < m; ++k)
        peak = std::max({peak, std::abs(re[k]), std::abs(im[k])});
    const double tol = 1e-13 * m * peak;
    for (unsigned k = 0; k < m; ++k) {
        const unsigned at = binPosition(k, m);
        if (std::abs(spectrum.re(at) - re[k]) > tol ||
            std::abs(spectrum.im(at) - im[k]) > tol)
            return ::testing::AssertionFailure()
                   << "bin " << k << " (stored at " << at << "): got ("
                   << spectrum.re(at) << ", " << spectrum.im(at)
                   << "), want (" << re[k] << ", " << im[k] << ")";
    }
    return ::testing::AssertionSuccess();
}

/** Parameter: the folded transform size m = N/2. */
class Radix4Sizes : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(Radix4Sizes, ForwardMatchesRadix2UpToPermutation)
{
    const unsigned m = GetParam();
    const BatchFft bfft(2 * m);
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(100 + m);
        for (const unsigned count : {1u, 9u}) {
            const auto polys = randomIntPolys(count, 2 * m, rng);
            const auto spectra = forwardAll(bfft, polys);
            for (unsigned i = 0; i < count; ++i)
                EXPECT_TRUE(matchesReference(polys[i], spectra[i]))
                    << fftDispatchTierName(tier) << " count " << count
                    << " poly " << i;
        }
    }
}

TEST_P(Radix4Sizes, InverseMatchesRadix2UpToPermutation)
{
    // Reference spectra placed in engine order must invert back to
    // their polynomials (the rounding absorbs the last-ulp differences
    // between the two FFTs).
    const unsigned m = GetParam();
    const BatchFft bfft(2 * m);
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(200 + m);
        for (const unsigned count : {1u, 9u}) {
            const auto polys = randomIntPolys(count, 2 * m, rng);
            std::vector<FourierPolynomial> spectra(
                count, FourierPolynomial(2 * m));
            std::vector<double> re, im;
            for (unsigned i = 0; i < count; ++i) {
                referenceSpectrum(polys[i], re, im);
                for (unsigned k = 0; k < m; ++k) {
                    spectra[i].re(binPosition(k, m)) = re[k];
                    spectra[i].im(binPosition(k, m)) = im[k];
                }
            }
            const auto back = inverseAll(bfft, spectra);
            for (unsigned i = 0; i < count; ++i)
                for (unsigned j = 0; j < 2 * m; ++j)
                    ASSERT_EQ(back[i][j], static_cast<Torus32>(polys[i][j]))
                        << fftDispatchTierName(tier) << " count " << count
                        << " poly " << i << " coeff " << j;
        }
    }
}

TEST_P(Radix4Sizes, RoundtripIsScaledIdentity)
{
    // The inverse carries the 1/m scale of the unscaled core, so a
    // forward + inverse round trip gives back the polynomial exactly.
    const unsigned m = GetParam();
    const BatchFft bfft(2 * m);
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(300 + m);
        for (const unsigned count : {1u, 9u}) {
            const auto polys = randomIntPolys(count, 2 * m, rng);
            const auto back = inverseAll(bfft, forwardAll(bfft, polys));
            for (unsigned i = 0; i < count; ++i)
                for (unsigned j = 0; j < 2 * m; ++j)
                    ASSERT_EQ(back[i][j], static_cast<Torus32>(polys[i][j]))
                        << fftDispatchTierName(tier) << " count " << count
                        << " poly " << i << " coeff " << j;
        }
    }
}

TEST_P(Radix4Sizes, ImpulseTransformsToFlatSpectrum)
{
    const unsigned m = GetParam();
    const BatchFft bfft(2 * m);
    IntPolynomial impulse(2 * m);
    impulse[0] = 1;
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        for (const unsigned count : {1u, 9u}) {
            const auto spectra = forwardAll(
                bfft, std::vector<IntPolynomial>(count, impulse));
            for (unsigned i = 0; i < count; ++i) {
                for (unsigned t = 0; t < m; ++t) {
                    ASSERT_EQ(spectra[i].re(t), 1.0)
                        << fftDispatchTierName(tier) << " bin " << t;
                    ASSERT_EQ(spectra[i].im(t), 0.0)
                        << fftDispatchTierName(tier) << " bin " << t;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, Radix4Sizes,
                         ::testing::Values(8u, 16u, 64u, 128u, 256u));

TEST(Radix4, SchoolbookVsFourierExternalProduct)
{
    // End-to-end cross-check through the negacyclic engine: the
    // Fourier external product (radix-4 underneath) against the exact
    // O(N^2) schoolbook product.
    const auto &params = paramsTest();
    Rng rng(0xAB12);
    const auto key = GlweKey::generate(params, rng);
    const auto ggsw =
        GgswCiphertext::encrypt(key, 1, params.glweNoiseStd, rng);
    const auto fggsw = FourierGgsw::fromGgsw(ggsw);

    GlweCiphertext input(params.glweDimension, params.polyDegree);
    for (unsigned c = 0; c <= params.glweDimension; ++c)
        input.component(c) = randomTorusPoly(params.polyDegree, rng);

    const auto exact = externalProductSchoolbook(ggsw, input);
    BootstrapWorkspace ws;
    GlweCiphertext viaFft;
    externalProductFourier(fggsw, input, viaFft, ws);
    for (unsigned c = 0; c <= params.glweDimension; ++c) {
        for (unsigned i = 0; i < params.polyDegree; ++i) {
            EXPECT_LT(torusDistance(viaFft.component(c)[i],
                                    exact.component(c)[i]),
                      1.0 / (1 << 20))
                << "component " << c << " coeff " << i;
        }
    }
}

// ---------------------------------------------------------------------
// Workspace stages vs. their references (exact integer equality).
// ---------------------------------------------------------------------

TEST(Workspace, PlannedDecompositionMatchesScalar)
{
    Rng rng(0xD1517);
    for (const unsigned base_bits : {2u, 7u, 10u, 16u}) {
        const unsigned levels = 32 / base_bits >= 3 ? 3 : 1;
        const auto plan = makeGadgetPlan(base_bits, levels);
        const auto poly = randomTorusPoly(256, rng);

        std::vector<IntPolynomial> planned(levels, IntPolynomial(256));
        gadgetDecomposePlannedInto(poly, plan, planned.data());

        std::vector<std::int32_t> digits(levels);
        for (unsigned c = 0; c < poly.degree(); ++c) {
            gadgetDecomposeScalar(poly[c], base_bits, levels,
                                  digits.data());
            for (unsigned j = 0; j < levels; ++j)
                EXPECT_EQ(planned[j][c], digits[j])
                    << "base 2^" << base_bits << " level " << j
                    << " coeff " << c;
        }
    }
}

TEST(Workspace, InPlaceRotationsMatchAllocatingOnes)
{
    Rng rng(0xB0B);
    const unsigned n = 128;
    const auto poly = randomTorusPoly(n, rng);
    TorusPolynomial out(n), scratch(n);
    for (unsigned power : {0u, 1u, 127u, 128u, 129u, 255u}) {
        poly.mulByXPowerInto(power, out);
        EXPECT_EQ(out, poly.mulByXPower(power)) << "power " << power;

        TorusPolynomial in_place = poly;
        in_place.mulByXPowerInPlace(power, scratch);
        EXPECT_EQ(in_place, out) << "power " << power;

        poly.rotateDiffInto(power, out);
        EXPECT_EQ(out, poly.rotateDiff(power)) << "power " << power;
    }
}

TEST(Workspace, CmuxMatchesExternalProductOfRotateDiff)
{
    // acc += ggsw [.] (X^a * acc - acc), spelled out through the
    // workspace external product, must equal the in-place CMux.
    const auto &params = paramsTest();
    Rng rng(0xE4E4);
    const auto key = GlweKey::generate(params, rng);
    const auto fggsw = FourierGgsw::fromGgsw(
        GgswCiphertext::encrypt(key, 1, params.glweNoiseStd, rng));

    GlweCiphertext input(params.glweDimension, params.polyDegree);
    for (unsigned c = 0; c <= params.glweDimension; ++c)
        input.component(c) = randomTorusPoly(params.polyDegree, rng);

    BootstrapWorkspace ws;
    GlweCiphertext diff(params.glweDimension, params.polyDegree), prod;
    for (unsigned c = 0; c <= params.glweDimension; ++c)
        input.component(c).rotateDiffInto(37, diff.component(c));
    externalProductFourier(fggsw, diff, prod, ws);
    GlweCiphertext want = input;
    want.addAssign(prod);

    GlweCiphertext acc = input;
    cmuxRotateInPlace(fggsw, acc, 37, ws);
    for (unsigned c = 0; c <= params.glweDimension; ++c)
        EXPECT_EQ(acc.component(c), want.component(c));
}

TEST(Workspace, BootstrapMatchesLegacyAcrossParameterSets)
{
    // One shared workspace reshaped across three geometries (k=1 N=512,
    // k=3 N=512, k=2 N=1024): every explicit-workspace bootstrap must
    // equal the workspace-free entry point bit for bit.
    BootstrapWorkspace ws;
    for (const char *name : {"TEST", "C", "B"}) {
        const auto &params = paramsByName(name);
        Rng rng(0x5EED);
        const auto keys = KeySet::generate(params, rng);
        const auto lut = makePaddedLut(4, [](std::uint32_t m) {
            return 3 - m;
        });

        for (std::uint32_t msg = 0; msg < 4; ++msg) {
            const auto ct = encryptPadded(keys, msg, 4, rng);
            const auto legacy = programmableBootstrap(keys, ct, lut);

            TorusPolynomial tp;
            buildTestPolynomialInto(params.polyDegree, lut, tp);
            LweCiphertext out;
            bootstrapInto(keys.bsk, keys.ksk, tp, ct, out, ws);

            EXPECT_EQ(out.raw(), legacy.raw())
                << "set " << name << " message " << msg;
            EXPECT_EQ(decryptPadded(keys, out, 4), 3 - msg)
                << "set " << name << " message " << msg;
        }
    }
}

// ---------------------------------------------------------------------
// The tentpole guarantee: a warmed-up bootstrap allocates nothing.
// ---------------------------------------------------------------------

TEST(AllocationGuard, WarmedUpBootstrapPerformsZeroAllocations)
{
    const auto &params = paramsTest();
    Rng rng(0xA110C);
    const auto keys = KeySet::generate(params, rng);
    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    TorusPolynomial tp;
    buildTestPolynomialInto(params.polyDegree, lut, tp);
    const auto ct = encryptPadded(keys, 2, 4, rng);

    BootstrapWorkspace ws;
    LweCiphertext out;
    // Two warm-up rounds: the first shapes the workspace and `out`, the
    // second confirms steady state before counting.
    bootstrapInto(keys.bsk, keys.ksk, tp, ct, out, ws);
    bootstrapInto(keys.bsk, keys.ksk, tp, ct, out, ws);

    g_allocs.store(0);
    g_track.store(true);
    bootstrapInto(keys.bsk, keys.ksk, tp, ct, out, ws);
    g_track.store(false);

    EXPECT_EQ(g_allocs.load(), 0u)
        << "warmed-up workspace bootstrap must not touch the heap";
    EXPECT_EQ(decryptPadded(keys, out, 4), 2u);
}

TEST(AllocationGuard, HookCountsAllocations)
{
    // Sanity-check the hook itself so a broken counter cannot silently
    // pass the zero-allocation test.
    g_allocs.store(0);
    g_track.store(true);
    auto *v = new std::vector<double>(1024);
    g_track.store(false);
    EXPECT_GE(g_allocs.load(), 1u);
    delete v;
}

// ---------------------------------------------------------------------
// SIMD buffer alignment: every structure-of-arrays buffer the batched
// kernels stream must be 64-byte aligned (common/aligned.h contract).
// ---------------------------------------------------------------------

static_assert(kSimdAlignment == 64, "SIMD buffers are cache-line sized");
static_assert((kSimdAlignment & (kSimdAlignment - 1)) == 0,
              "SIMD alignment must be a power of two");
static_assert(kSimdAlignment >= tfhe::detail::kMaxFftLanes * sizeof(double),
              "widest kernel tier must fit one aligned line");

TEST(Alignment, AlignedVectorDataIsAligned)
{
    // Odd sizes included: alignment must hold regardless of length.
    for (const std::size_t size : {1u, 7u, 64u, 513u, 4096u}) {
        AlignedVector<double> v(size);
        EXPECT_TRUE(isSimdAligned(v.data())) << "size " << size;
    }
}

TEST(Alignment, FourierPolynomialStorageIsAligned)
{
    for (const unsigned n : {8u, 64u, 1024u, 4096u}) {
        FourierPolynomial fp(n);
        EXPECT_TRUE(isSimdAligned(fp.reData())) << "N " << n;
        EXPECT_TRUE(isSimdAligned(fp.imData())) << "N " << n;
    }
}

TEST(Alignment, WorkspaceScratchBuffersAreAligned)
{
    BootstrapWorkspace ws;
    ws.ensure(/*glwe_dim=*/2, /*poly_degree=*/512, /*levels=*/3,
              /*base_bits=*/6);
    for (const auto &fp : ws.digitsF) {
        EXPECT_TRUE(isSimdAligned(fp.reData()));
        EXPECT_TRUE(isSimdAligned(fp.imData()));
    }
    for (const auto &fp : ws.accF) {
        EXPECT_TRUE(isSimdAligned(fp.reData()));
        EXPECT_TRUE(isSimdAligned(fp.imData()));
    }
}

// ---------------------------------------------------------------------
// Runtime dispatch: tier names, the supported set and the force hook.
// ---------------------------------------------------------------------

TEST(FftDispatch, TierNames)
{
    EXPECT_STREQ(fftDispatchTierName(FftDispatchTier::kScalar), "scalar");
    EXPECT_STREQ(fftDispatchTierName(FftDispatchTier::kAvx2), "avx2");
    EXPECT_STREQ(fftDispatchTierName(FftDispatchTier::kAvx512), "avx512");
    EXPECT_STREQ(fftDispatchTierName(FftDispatchTier::kNeon), "neon");
}

TEST(FftDispatch, ScalarAlwaysSupportedAndListedFirst)
{
    EXPECT_TRUE(fftDispatchTierSupported(FftDispatchTier::kScalar));
    const auto tiers = supportedFftDispatchTiers();
    ASSERT_FALSE(tiers.empty());
    EXPECT_EQ(tiers.front(), FftDispatchTier::kScalar);
    for (const auto t : tiers)
        EXPECT_TRUE(fftDispatchTierSupported(t));
}

TEST(FftDispatch, ForceSelectsEachSupportedTier)
{
    for (const auto t : supportedFftDispatchTiers()) {
        DispatchGuard guard(t);
        EXPECT_EQ(activeFftDispatchTier(), t)
            << fftDispatchTierName(t);
    }
}

// ---------------------------------------------------------------------
// The batched FFT engine: for every supported tier, batched transforms
// must be bit-identical to the forced scalar tier (W = 1 everywhere),
// preserve the inverse's input spectra, round-trip, and agree with the
// schoolbook negacyclic product. N = 4 is the radix-2 tail alone.
// ---------------------------------------------------------------------

TEST(BatchFftTiers, ForwardBitIdenticalToScalarTier)
{
    // Ring degrees with and without the radix-2 tail, and small enough
    // to force the W = 1 rung under wide tiers; batch counts around the
    // lane-width boundaries.
    Rng rng(0xF0F0);
    for (const unsigned n : {4u, 8u, 16u, 32u, 128u, 512u, 1024u, 2048u}) {
        const BatchFft bfft(n);
        for (const unsigned count : {1u, 2u, 5u, 8u, 9u, 17u}) {
            const auto polys = randomIntPolys(count, n, rng);
            std::vector<FourierPolynomial> want;
            {
                DispatchGuard guard(FftDispatchTier::kScalar);
                want = forwardAll(bfft, polys);
            }
            for (const auto tier : supportedFftDispatchTiers()) {
                DispatchGuard guard(tier);
                const auto got = forwardAll(bfft, polys);
                for (unsigned i = 0; i < count; ++i) {
                    for (unsigned j = 0; j < n / 2; ++j) {
                        ASSERT_EQ(got[i].re(j), want[i].re(j))
                            << fftDispatchTierName(tier) << " N " << n
                            << " count " << count << " poly " << i
                            << " bin " << j;
                        ASSERT_EQ(got[i].im(j), want[i].im(j))
                            << fftDispatchTierName(tier) << " N " << n
                            << " count " << count << " poly " << i
                            << " bin " << j;
                    }
                }
            }
        }
    }
}

/** Realistic inverse inputs: forward transforms of random torus
 *  polynomials, as an accumulated dot product would hold. */
std::vector<FourierPolynomial>
randomSpectra(unsigned count, unsigned n, Rng &rng)
{
    DispatchGuard guard(FftDispatchTier::kScalar);
    return forwardAll(BatchFft(n), randomIntPolys(count, n, rng));
}

TEST(BatchFftTiers, InverseBitIdenticalToScalarTier)
{
    Rng rng(0x1D1D);
    for (const unsigned n : {4u, 8u, 32u, 256u, 1024u}) {
        const BatchFft bfft(n);
        for (const unsigned count : {1u, 4u, 8u, 11u}) {
            const auto spectra = randomSpectra(count, n, rng);
            std::vector<TorusPolynomial> want;
            {
                DispatchGuard guard(FftDispatchTier::kScalar);
                want = inverseAll(bfft, spectra);
            }
            for (const auto tier : supportedFftDispatchTiers()) {
                DispatchGuard guard(tier);
                const auto got = inverseAll(bfft, spectra);
                for (unsigned i = 0; i < count; ++i)
                    EXPECT_EQ(got[i], want[i])
                        << fftDispatchTierName(tier) << " N " << n
                        << " count " << count << " poly " << i;
            }
        }
    }
}

TEST(BatchFftTiers, InversePreservesSpectra)
{
    // The inverse contract on every tier and rung, W = 1 included: the
    // input spectra come back bit for bit unchanged, padded short
    // groups too.
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(0x5EC7 + static_cast<unsigned>(tier));
        for (const unsigned n : {4u, 16u, 512u, 1024u}) {
            const BatchFft bfft(n);
            for (const unsigned count : {1u, 2u, 3u, 8u, 11u}) {
                std::vector<FourierPolynomial> spectra;
                {
                    DispatchGuard scalar(FftDispatchTier::kScalar);
                    spectra = randomSpectra(count, n, rng);
                }
                const auto before = spectra;
                (void)inverseAll(bfft, spectra);
                for (unsigned i = 0; i < count; ++i) {
                    for (unsigned j = 0; j < n / 2; ++j) {
                        ASSERT_EQ(spectra[i].re(j), before[i].re(j))
                            << fftDispatchTierName(tier) << " N " << n
                            << " count " << count << " poly " << i;
                        ASSERT_EQ(spectra[i].im(j), before[i].im(j))
                            << fftDispatchTierName(tier) << " N " << n
                            << " count " << count << " poly " << i;
                    }
                }
            }
        }
    }
}

TEST(BatchFftTiers, RoundtripRecoversTorusPolynomials)
{
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(0x707 + static_cast<unsigned>(tier));
        for (const unsigned n : {4u, 16u, 128u, 1024u}) {
            const BatchFft bfft(n);
            for (const unsigned count : {1u, 9u}) {
                const auto polys = randomIntPolys(count, n, rng);
                const auto back = inverseAll(bfft, forwardAll(bfft, polys));
                // The FFT roundtrip error is orders of magnitude below
                // the rounding step, so recovery is exact.
                for (unsigned i = 0; i < count; ++i)
                    for (unsigned j = 0; j < n; ++j)
                        ASSERT_EQ(back[i][j], static_cast<Torus32>(polys[i][j]))
                            << fftDispatchTierName(tier) << " N " << n
                            << " count " << count << " poly " << i;
            }
        }
    }
}

TEST(BatchFftTiers, ProductMatchesSchoolbookNegacyclic)
{
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(0x5B5B + static_cast<unsigned>(tier));
        const unsigned n = 512;
        const BatchFft bfft(n);

        // Small multiplier digits (the gadget decomposition range) keep
        // the schoolbook accumulation exactly representable.
        IntPolynomial a(n);
        for (unsigned i = 0; i < n; ++i)
            a[i] = static_cast<std::int32_t>(rng.nextU32() & 0xFF) - 128;
        const auto b = randomTorusPoly(n, rng);

        // Two lone (count = 1) transforms: the W = 1 rung on every tier.
        FourierPolynomial fa(n), fb(n), acc(n);
        const std::int32_t *ap = a.data();
        const auto *bp = reinterpret_cast<const std::int32_t *>(b.data());
        FourierPolynomial *fap = &fa, *fbp = &fb;
        bfft.forward(&ap, &fap, 1);
        bfft.forward(&bp, &fbp, 1);
        acc.mulAddAssign(fa, fb);

        TorusPolynomial viaFft(n);
        const FourierPolynomial *accp = &acc;
        TorusPolynomial *outp = &viaFft;
        bfft.inverseInPlace(&accp, &outp, 1);

        TorusPolynomial exact(n);
        negacyclicMulAddSchoolbook(exact, a, b);
        for (unsigned i = 0; i < n; ++i)
            EXPECT_LT(torusDistance(viaFft[i], exact[i]), 1.0 / (1 << 20))
                << fftDispatchTierName(tier) << " coeff " << i;
    }
}

TEST(BatchFftTiers, ForwardMatchesComplexFftUpToPermutation)
{
    // The degrees the Radix4Sizes suite leaves out: the radix-2 tail
    // alone (N = 4), one radix-4 stage (N = 8) and the largest ring.
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        Rng rng(0xC0C0 + static_cast<unsigned>(tier));
        for (const unsigned n : {4u, 8u, 2048u}) {
            const BatchFft bfft(n);
            for (const unsigned count : {1u, 3u}) {
                const auto polys = randomIntPolys(count, n, rng);
                const auto spectra = forwardAll(bfft, polys);
                for (unsigned i = 0; i < count; ++i)
                    EXPECT_TRUE(matchesReference(polys[i], spectra[i]))
                        << fftDispatchTierName(tier) << " N " << n
                        << " count " << count << " poly " << i;
            }
        }
    }
}

TEST(BatchFftTiers, ExternalProductBitIdenticalAcrossTiers)
{
    // The full workspace external product must give byte-identical
    // ciphertexts whichever tier computed it: run once per tier and
    // compare against the scalar tier's output.
    const auto &params = paramsTest();
    Rng rng(0xACE5);
    const auto key = GlweKey::generate(params, rng);
    const auto fggsw = FourierGgsw::fromGgsw(
        GgswCiphertext::encrypt(key, 1, params.glweNoiseStd, rng));
    GlweCiphertext input(params.glweDimension, params.polyDegree);
    for (unsigned c = 0; c <= params.glweDimension; ++c)
        input.component(c) = randomTorusPoly(params.polyDegree, rng);

    GlweCiphertext scalarResult;
    {
        DispatchGuard guard(FftDispatchTier::kScalar);
        BootstrapWorkspace ws;
        externalProductFourier(fggsw, input, scalarResult, ws);
    }
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        BootstrapWorkspace ws;
        GlweCiphertext result;
        externalProductFourier(fggsw, input, result, ws);
        for (unsigned c = 0; c <= params.glweDimension; ++c)
            EXPECT_EQ(result.component(c), scalarResult.component(c))
                << fftDispatchTierName(tier) << " component " << c;
    }
}

// ---------------------------------------------------------------------
// BSK-stationary blind rotation: blindRotateBatch over a group must
// equal, bit for bit, a per-ciphertext rotation built on the workspace
// external product, for every group size, every mix of skipped (X^0)
// iterations and every dispatch tier.
// ---------------------------------------------------------------------

/** The blind-rotation keys for the group tests (generated once). */
const KeySet &
groupKeys()
{
    static const KeySet keys = [] {
        Rng rng(0x6B0B);
        return KeySet::generate(paramsTest(), rng);
    }();
    return keys;
}

/**
 * Per-ciphertext reference rotation: ACC_0 = X^(-b~) * (0,..,0,TP),
 * then ACC += BSK_i [.] (X^(a~_i) * ACC - ACC) for every a~_i != 0,
 * one external product at a time.
 */
GlweCiphertext
referenceBlindRotate(const BootstrapKey &bsk, const TorusPolynomial &tp,
                     const std::vector<std::uint32_t> &switched,
                     BootstrapWorkspace &ws)
{
    const unsigned n = bsk.size();
    const unsigned big_n = tp.degree();
    const unsigned two_n = 2 * big_n;
    const unsigned k = bsk.entry(0).numCols() - 1;
    GlweCiphertext acc(k, big_n);
    tp.mulByXPowerInto((two_n - switched[n] % two_n) % two_n, acc.body());
    GlweCiphertext diff(k, big_n), prod;
    for (unsigned i = 0; i < n; ++i) {
        const unsigned a = switched[i] % two_n;
        if (a == 0)
            continue;
        for (unsigned c = 0; c <= k; ++c)
            acc.component(c).rotateDiffInto(a, diff.component(c));
        externalProductFourier(bsk.entry(i), diff, prod, ws);
        for (unsigned c = 0; c <= k; ++c)
            acc.component(c).addAssign(prod.component(c));
    }
    return acc;
}

/**
 * Hand-built switched vectors: member g skips (a~_i = 0, or 2N, which
 * folds to 0) on a pattern of its own, so at most iterations some
 * members rotate while others do not; iteration 0 is skipped by all and
 * iteration 1 rotated by member 0 alone.
 */
std::vector<std::vector<std::uint32_t>>
handBuiltSwitched(unsigned count, unsigned n, unsigned two_n, Rng &rng)
{
    std::vector<std::vector<std::uint32_t>> out(
        count, std::vector<std::uint32_t>(n + 1));
    for (unsigned g = 0; g < count; ++g) {
        for (unsigned i = 0; i <= n; ++i) {
            const bool skip = i == 0 || (i == 1 && g != 0) ||
                              (i + g) % (g % 4 + 2) == 0;
            std::uint32_t v = 1 + rng.nextU32() % (two_n - 1);
            if (skip)
                v = (i + g) % 2 ? two_n : 0;
            out[g][i] = v;
        }
    }
    return out;
}

TEST(BlindRotateBatch, BitIdenticalToPerCiphertextLoopOnEveryTier)
{
    const auto &keys = groupKeys();
    const unsigned big_n = keys.params.polyDegree;
    const unsigned n = keys.params.lweDimension;
    std::vector<TorusPolynomial> test_polys(2);
    buildTestPolynomialInto(big_n, makePaddedLut(4, [](std::uint32_t m) {
                                return (3 * m + 1) % 4;
                            }),
                            test_polys[0]);
    test_polys[1] = constantTestPolynomial(big_n, doubleToTorus32(0.125));
    for (const auto tier : supportedFftDispatchTiers()) {
        DispatchGuard guard(tier);
        // One workspace across all group sizes: it grows, is reused at
        // smaller sizes, and must not leak state between groups.
        BootstrapWorkspace ws, ref_ws;
        for (const unsigned count : {1u, 2u, 3u, 7u, 16u, 17u}) {
            Rng rng(0x5117 + count);
            const auto switched = handBuiltSwitched(count, n, 2 * big_n, rng);
            for (std::size_t t = 0; t < test_polys.size(); ++t) {
                std::vector<GlweCiphertext> accs(count);
                blindRotateBatch(keys.bsk, test_polys[t], switched, accs,
                                 ws);
                for (unsigned g = 0; g < count; ++g) {
                    const auto want = referenceBlindRotate(
                        keys.bsk, test_polys[t], switched[g], ref_ws);
                    for (unsigned c = 0; c <= keys.params.glweDimension;
                         ++c) {
                        ASSERT_EQ(accs[g].component(c), want.component(c))
                            << fftDispatchTierName(tier) << " G=" << count
                            << " test poly " << t << " member " << g
                            << " component " << c;
                    }
                }
            }
        }
        EXPECT_EQ(ws.groupCapacity(), 17u) << fftDispatchTierName(tier);
    }
}

TEST(Workspace, GroupScratchGrowsOnlyToTheLargestGroupRun)
{
    const auto &keys = groupKeys();
    const auto &p = keys.params;
    const std::size_t rows = std::size_t{p.glweDimension + 1} * p.bskLevels;
    const auto tp = constantTestPolynomial(p.polyDegree, 1u << 29);
    Rng rng(0x6A0);

    BootstrapWorkspace ws;
    LweCiphertext out;
    bootstrapInto(keys.bsk, keys.ksk, tp, encryptBit(keys, true, rng), out,
                  ws);
    EXPECT_EQ(ws.groupCapacity(), 1u) << "single bootstraps hold one slot";
    EXPECT_EQ(ws.digits.size(), rows);

    for (const unsigned count : {3u, 7u, 2u}) {
        const auto switched =
            handBuiltSwitched(count, p.lweDimension, 2 * p.polyDegree, rng);
        std::vector<GlweCiphertext> accs(count);
        blindRotateBatch(keys.bsk, tp, switched, accs, ws);
    }
    bootstrapInto(keys.bsk, keys.ksk, tp, encryptBit(keys, false, rng), out,
                  ws);
    EXPECT_EQ(ws.groupCapacity(), 7u)
        << "the scratch grows to the largest group run and stays there";
    EXPECT_EQ(ws.digits.size(), 7 * rows);
    EXPECT_EQ(ws.digitsF.size(), 7 * rows);
    EXPECT_EQ(ws.accF.size(), 7u * (p.glweDimension + 1));
    EXPECT_EQ(ws.prods.size(), 7u * (p.glweDimension + 1));
}

TEST(AllocationGuard, WarmedGroupBlindRotationPerformsZeroAllocations)
{
    const auto &keys = groupKeys();
    const auto &p = keys.params;
    Rng rng(0xA11C);
    std::vector<std::vector<std::uint32_t>> switched(16);
    for (unsigned g = 0; g < 16; ++g)
        modSwitchInto(encryptBit(keys, g % 3 == 0, rng), p.polyDegree,
                      switched[g]);
    const auto tp = constantTestPolynomial(p.polyDegree, 1u << 29);
    std::vector<GlweCiphertext> accs(16);
    BootstrapWorkspace ws;
    blindRotateBatch(keys.bsk, tp, switched, accs, ws);
    blindRotateBatch(keys.bsk, tp, switched, accs, ws);

    g_allocs.store(0);
    g_track.store(true);
    blindRotateBatch(keys.bsk, tp, switched, accs, ws);
    g_track.store(false);

    EXPECT_EQ(g_allocs.load(), 0u)
        << "a warmed 16-ciphertext group rotation must not touch the heap";
    EXPECT_EQ(ws.groupCapacity(), 16u);
}

TEST(AllocationGuard, WarmedSuperbatchBlindRotationPerformsZeroAllocations)
{
    // A 64-LWE superbatch through the FunctionalBackend, single-stepped
    // so the count covers exactly the XPU.BR instructions (each runs
    // one Program chunk as a blindRotateBatch group).
    const auto &keys = groupKeys();
    const auto eval = EvaluationKeys::fromKeySet(keys);
    Rng rng(0x5B64);
    std::vector<LweCiphertext> inputs;
    for (unsigned i = 0; i < compiler::kSuperbatchSize; ++i)
        inputs.push_back(encryptPadded(keys, i % 4, 4, rng));
    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return 3 - m;
    });
    const auto program = compiler::SwScheduler(keys.params)
                             .scheduleBootstrapBatch(inputs.size());
    exec::Job job;
    job.inputs = &inputs;
    job.lut = &lut;
    exec::FunctionalBackend backend(eval);
    (void)backend.run(program, job); // warms this thread's workspace

    backend.load(program, job);
    unsigned rotations = 0;
    std::uint64_t rotation_allocs = 0;
    for (;;) {
        g_allocs.store(0);
        g_track.store(true);
        const auto retired = backend.step();
        g_track.store(false);
        if (!retired)
            break;
        if (retired->inst.op == compiler::Opcode::XpuBlindRotate) {
            ++rotations;
            rotation_allocs += g_allocs.load();
        }
    }
    const auto result = backend.finish();
    EXPECT_EQ(rotations, compiler::kNumGroups);
    EXPECT_EQ(rotation_allocs, 0u)
        << "warmed XPU.BR chunks must not touch the heap";
    EXPECT_EQ(BootstrapWorkspace::forThisThread().groupCapacity(),
              compiler::kGroupSize);
    for (std::size_t i = 0; i < inputs.size(); ++i)
        EXPECT_EQ(decryptPadded(keys, result.outputs[i], 4), 3 - i % 4);
}

} // namespace
} // namespace morphling::tfhe
