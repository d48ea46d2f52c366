/**
 * @file
 * Negacyclic FFT for T_q[X]/(X^N + 1).
 *
 * A polynomial product mod X^N + 1 equals pointwise multiplication of
 * the polynomials' evaluations at the odd powers of the primitive 2N-th
 * root of unity. For real coefficient sequences those 2N evaluations
 * have conjugate symmetry, so only N/2 of them are independent: the
 * whole transform folds into one complex FFT of size N/2 applied to the
 * "twisted" sequence
 *
 *     x_j = (a_j + i * a_{j + N/2}) * e^{i*pi*j/N},   j = 0..N/2-1.
 *
 * This is the folding the paper attributes to [39] (Klemsa) in Section
 * V-A3: an N-point negacyclic transform computed with a single
 * N/2-point FFT unit. The merge-split (two-polynomials-per-pass) trick
 * is a hardware throughput optimization and is modelled in src/arch; it
 * does not change the math here.
 *
 * One negacyclic engine lives here: BatchFft. It owns the twist and
 * per-stage twiddle tables and runs every transform through the
 * traits-templated kernels of fft_kernels_impl.h, W polynomials per
 * call with their coefficients interleaved across vector lanes (W = 1
 * for lone polynomials and the scalar tier, see fft_dispatch.h). The
 * core is iterative radix-4 with one trailing radix-2 stage when
 * log2(N/2) is odd. Forward is decimation-in-frequency and inverse
 * decimation-in-time, so no bit-reversal pass is ever executed: the
 * spectrum lives in the engine's base-4 digit-reversed order. That
 * order is an internal convention of the transform domain: every
 * FourierPolynomial is produced and consumed with the same
 * permutation, and pointwise multiply/accumulate commutes with any
 * fixed permutation, so nothing outside the engine ever needs to undo
 * it. All kernel tiers are bit-identical.
 *
 * ComplexFft, a plain strided radix-2 engine with natural ordering,
 * is the independent reference the tests check the engine against and
 * the core of the merge-split hardware model (src/arch/functional/
 * ms_fft).
 *
 * Precision: coefficients are carried as doubles. For every parameter
 * set in params.h the accumulated products stay within (or their
 * round-off stays far below) the 53-bit mantissa, so the FFT path is
 * bit-compatible with the schoolbook path up to noise that is orders of
 * magnitude below the decryption margin (tested in tests/test_fft.cc
 * and tests/test_workspace.cc).
 */

#ifndef MORPHLING_TFHE_FFT_H
#define MORPHLING_TFHE_FFT_H

#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "tfhe/fft_kernels.h"
#include "tfhe/polynomial.h"

namespace morphling::tfhe {

namespace detail {
struct KernelLadder;
}

/**
 * A plain iterative radix-2 complex FFT of a fixed power-of-two size,
 * on split real/imaginary arrays, with natural input/output ordering.
 *
 * Used by the merge-split hardware model (size N, two real polynomials
 * per pass) and as the ground-truth reference for BatchFft. The
 * inverse is unscaled; callers divide by size().
 */
class ComplexFft
{
  public:
    explicit ComplexFft(unsigned size);

    unsigned size() const { return size_; }

    /** In-place forward transform (kernel e^{-2*pi*i*jm/size}). */
    void forward(double *re, double *im) const;

    /** In-place inverse transform, unscaled (kernel
     *  e^{+2*pi*i*jm/size}). */
    void inverse(double *re, double *im) const;

  private:
    void run(double *re, double *im, int sign) const;

    unsigned size_;
    std::vector<double> twiddleRe_, twiddleIm_;
    std::vector<unsigned> bitrev_;
};

/**
 * A polynomial in the transform domain: N/2 complex evaluations, in the
 * digit-reversed order of the BatchFft engine for ring degree N.
 *
 * Stored as separate real/imaginary arrays (structure-of-arrays), which
 * mirrors the hardware's packed 64-bit complex datapath and vectorizes
 * well. Both arrays are 64-byte aligned (kSimdAlignment) so the SIMD
 * kernel tiers can stream them with full-width vector accesses that
 * never straddle a cache line.
 */
class FourierPolynomial
{
  public:
    FourierPolynomial() = default;

    /** Zero transform-domain polynomial for ring degree N. */
    explicit FourierPolynomial(unsigned ring_degree);

    unsigned ringDegree() const { return ringDegree_; }
    unsigned size() const { return static_cast<unsigned>(re_.size()); }

    double &re(unsigned i) { return re_[i]; }
    double &im(unsigned i) { return im_[i]; }
    double re(unsigned i) const { return re_[i]; }
    double im(unsigned i) const { return im_[i]; }

    double *reData() { return re_.data(); }
    double *imData() { return im_.data(); }
    const double *reData() const { return re_.data(); }
    const double *imData() const { return im_.data(); }

    /** Reset to the zero transform. */
    void clear();

    /** this += a (element-wise complex addition). Routed through the
     *  dispatched SIMD kernel tier. */
    void addAssign(const FourierPolynomial &a);

    /** this += a * b (element-wise complex multiply-accumulate).
     *
     * This is the VPE inner loop: one call corresponds to one
     * polynomial multiplication accumulated into POLY-ACC-REG entirely
     * in the transform domain. Routed through the dispatched SIMD
     * kernel tier.
     */
    void mulAddAssign(const FourierPolynomial &a,
                      const FourierPolynomial &b);

  private:
    unsigned ringDegree_ = 0;
    AlignedVector<double> re_, im_;
};

/**
 * The negacyclic transform engine for one ring degree N: transforms up
 * to detail::kMaxFftLanes polynomials per kernel call by interleaving
 * their coefficients across vector lanes (see fft_kernels.h).
 *
 * The kernel tier (scalar / AVX2 / AVX-512 / NEON) is resolved by
 * fft_dispatch.h at first use and acts as a width *ceiling*: whole
 * groups of W = tier lane width go through the widest kernel, and a
 * short group descends the dispatch ladder to the widest narrower
 * kernel it can still fill (e.g. 4 transforms on an AVX-512 host use
 * the AVX2 kernel). A trailing group of >= 2 polynomials too small for
 * even the narrowest vector kernel runs through it anyway with idle
 * lanes re-transforming the first polynomial into a shared throwaway
 * buffer, which is cheaper than one call per polynomial. Lone
 * polynomials, the scalar tier, and transforms too small to interleave
 * (N/2 % W != 0) take the W = 1 rung. All rungs are bit-identical, so
 * batching and ladder descent never change results.
 *
 * Allocation-free after construction: the interleaved lane scratch is
 * preallocated at the widest tier. Instances carry mutable scratch and
 * are single-thread-only; forDegree() returns a per-thread cached
 * instance so callers never pay table setup twice on the same thread.
 */
class BatchFft
{
  public:
    explicit BatchFft(unsigned ring_degree);

    BatchFft(const BatchFft &) = delete;
    BatchFft &operator=(const BatchFft &) = delete;

    unsigned ringDegree() const { return view_.n; }

    /** Batched forward transform of `count` coefficient arrays (read as
     *  signed 32-bit integers, the standard TFHE convention for torus
     *  coefficients) into `count` spectra. */
    void forward(const std::int32_t *const *in,
                 FourierPolynomial *const *out, unsigned count) const;

    /** Batched forward transform of `count` integer polynomials. */
    void forward(const IntPolynomial *const *in,
                 FourierPolynomial *const *out, unsigned count) const;

    /** Batched inverse + round of `count` spectra into `count` torus
     *  polynomials (reduction mod 2^32). The spectra are preserved on
     *  every tier: each kernel stages its inputs in the lane scratch
     *  before it writes anything. */
    void inverseInPlace(const FourierPolynomial *const *in,
                        TorusPolynomial *const *out, unsigned count) const;

    /** Per-thread cached engine for ring degree N. */
    static const BatchFft &forDegree(unsigned ring_degree);

  private:
    /** Widest ladder rung usable for a group of `remaining`
     *  transforms; the ladder's W = 1 rung when nothing wider fits. */
    const detail::BatchKernels &
    pickKernel(const detail::KernelLadder &ladder,
               unsigned remaining) const;

    std::vector<unsigned> stageLen_;      //!< radix-4 spans, descending
    std::vector<double> twiddles_;        //!< every stage's 6-block table
    std::vector<const double *> stageTw_; //!< per-stage views into it
    AlignedVector<double> twistRe_, twistIm_; //!< e^{i*pi*j/N}
    detail::NegacyclicView view_;         //!< borrowed view for kernels

    // Interleaved lane scratch, sized for the widest tier; mutable
    // because transforms are logically const.
    mutable AlignedVector<double> laneRe_, laneIm_;
    // Shared throwaway outputs for idle padded lanes of a short group.
    mutable AlignedVector<double> padRe_, padIm_;
    mutable AlignedVector<Torus32> padTorus_;
};

} // namespace morphling::tfhe

#endif // MORPHLING_TFHE_FFT_H
