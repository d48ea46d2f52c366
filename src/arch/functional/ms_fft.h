/**
 * @file
 * Functional model of the Merge-Split fully-pipelined FFT
 * (Section V-A3).
 *
 * The hardware trick: polynomial coefficients are real, so two
 * polynomials can share one complex FFT — merge them as real and
 * imaginary parts, transform once, and split the spectrum using the
 * conjugate symmetry of real-input transforms (the Coef buffer holds
 * the half-spectrum needed by the split adders/shifters). One FFT unit
 * therefore transforms two polynomials per pass, doubling throughput
 * "with only minimal hardware overhead".
 *
 * Math: with zeta = e^{i*pi/N}, the negacyclic spectrum of a real
 * polynomial a is a^_k = sum_j a_j zeta^{(2k+1)j}; only k = 0..N/2-1
 * are independent (a^_{N-1-k} = conj(a^_k)). Merging two polynomials
 * as z_j = (a_j + i*b_j) * zeta^j and taking C = FFT_N(z) gives
 *
 *   a^_k = (C[(N-k) mod N] + conj(C[(k+1) mod N])) / 2
 *   b^_k = (C[(N-k) mod N] - conj(C[(k+1) mod N])) / (2i)
 *
 * and the inverse pass reassembles C from two accumulated spectra and
 * untwists. This model is bit-faithful (verified against the
 * schoolbook negacyclic product) and counts its passes so the timing
 * model's merge-split factor of two is grounded in a working datapath.
 *
 * Note: this unit's spectrum ordering (odd evaluations k = 0..N/2-1)
 * differs from tfhe::BatchFft's folded ordering; spectra from the
 * two engines must not be mixed point-wise. The functional XPU uses
 * this engine exclusively, including for its BSK precomputation.
 */

#ifndef MORPHLING_ARCH_FUNCTIONAL_MS_FFT_H
#define MORPHLING_ARCH_FUNCTIONAL_MS_FFT_H

#include <cstdint>
#include <vector>

#include "tfhe/fft.h"
#include "tfhe/polynomial.h"

namespace morphling::arch::functional {

/** The merge-split FFT unit. */
class MergeSplitFft
{
  public:
    explicit MergeSplitFft(unsigned ring_degree);

    unsigned ringDegree() const { return n_; }

    /** Transform two integer polynomials in ONE forward pass. */
    void forwardPair(const tfhe::IntPolynomial &a,
                     const tfhe::IntPolynomial &b,
                     tfhe::FourierPolynomial &a_out,
                     tfhe::FourierPolynomial &b_out) const;

    /** Transform two torus polynomials (BSK precompute path). */
    void forwardPair(const tfhe::TorusPolynomial &a,
                     const tfhe::TorusPolynomial &b,
                     tfhe::FourierPolynomial &a_out,
                     tfhe::FourierPolynomial &b_out) const;

    /** Inverse-transform two accumulated spectra in ONE pass, rounding
     *  onto the discretized torus. */
    void inversePair(const tfhe::FourierPolynomial &a_in,
                     const tfhe::FourierPolynomial &b_in,
                     tfhe::TorusPolynomial &a_out,
                     tfhe::TorusPolynomial &b_out) const;

    /** FFT-unit passes performed so far (each pass carried two
     *  polynomials). */
    std::uint64_t passes() const { return passes_; }

  private:
    void forwardReals(const double *a, const double *b,
                      tfhe::FourierPolynomial &a_out,
                      tfhe::FourierPolynomial &b_out) const;

    unsigned n_;
    tfhe::ComplexFft fft_; //!< full N-point complex core
    std::vector<double> twistRe_, twistIm_; //!< zeta^j, j = 0..N-1
    mutable std::vector<double> scratchRe_, scratchIm_;
    mutable std::uint64_t passes_ = 0;
};

} // namespace morphling::arch::functional

#endif // MORPHLING_ARCH_FUNCTIONAL_MS_FFT_H
