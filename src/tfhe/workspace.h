/**
 * @file
 * Per-thread scratch memory for the bootstrap hot path.
 *
 * A programmable bootstrap executes n CMux gates, each performing one
 * gadget decomposition, (k+1)*l_b forward FFTs, (k+1)*l_b pointwise
 * multiply-accumulates and (k+1) inverse FFTs. Allocating the digit
 * polynomials, Fourier accumulators and diff ciphertexts fresh in every
 * iteration dominates the runtime of the CPU substrate; the hardware
 * analogue is the paper's fixed on-chip buffer set (Private-A1/A2,
 * POLY-ACC-REG) that every blind-rotation iteration reuses.
 *
 * BootstrapWorkspace owns every intermediate buffer of the pipeline.
 * ensure() (re)shapes them for one parameter geometry and is a no-op
 * when the shapes already match, so a warmed-up bootstrap through the
 * workspace entry points performs zero heap allocations (asserted by
 * tests/test_workspace.cc). A workspace is single-thread-only;
 * forThisThread() hands out one instance per thread, which the
 * workspace-free entry points (programmableBootstrap, signBootstrap,
 * multiLutBootstrap) use transparently.
 *
 * The external-product scratch is group-shaped. A BSK-stationary
 * blind rotation (blindRotateBatch) runs one CMux step for a whole
 * group of G accumulators against the same BSK_i, so the digit,
 * transform, accumulator and inverse-output buffers hold G slots, one
 * per group member, laid out slot-major: slot s owns digits
 * [s*(k+1)*l_b, (s+1)*(k+1)*l_b) and accF/prods [s*(k+1), (s+1)*(k+1)).
 * The group capacity grows lazily to the largest group actually run
 * and never shrinks while the geometry stays the same; a workspace
 * that only ever ran single bootstraps holds one slot.
 */

#ifndef MORPHLING_TFHE_WORKSPACE_H
#define MORPHLING_TFHE_WORKSPACE_H

#include <cstdint>
#include <vector>

#include "tfhe/ggsw.h"
#include "tfhe/glwe.h"
#include "tfhe/lwe.h"

namespace morphling::tfhe {

/**
 * Scratch buffers threaded through externalProductFourier /
 * cmuxRotateGroupInPlace / blindRotateBatch / bootstrapInto.
 *
 * Members are public by design: the workspace is a bag of buffers owned
 * by the pipeline stages, not an abstraction boundary. Their contents
 * between calls are unspecified.
 */
class BootstrapWorkspace
{
  public:
    BootstrapWorkspace() = default;

    BootstrapWorkspace(const BootstrapWorkspace &) = delete;
    BootstrapWorkspace &operator=(const BootstrapWorkspace &) = delete;

    /**
     * (Re)shape the external-product scratch for GLWE dimension k, ring
     * degree N and the given gadget, with room for at least `group`
     * slots (see the file comment). A geometry change drops back to
     * `group` slots; otherwise the capacity only grows. No-op (and
     * allocation-free) when the shapes already fit.
     */
    void ensure(unsigned glwe_dim, unsigned poly_degree, unsigned levels,
                unsigned base_bits, unsigned group = 1);

    /** Group slots the scratch is currently shaped for. */
    unsigned groupCapacity() const { return group_; }

    /** The calling thread's workspace. Entry points that take no
     *  explicit workspace route through this instance. */
    static BootstrapWorkspace &forThisThread();

    // --- external product / CMux scratch (group-shaped) --------------
    GadgetPlan plan;                   //!< hoisted decomposition consts
    std::vector<IntPolynomial> digits; //!< G*(k+1)*l_b digit polynomials
    std::vector<FourierPolynomial> digitsF; //!< G*(k+1)*l_b transforms
    std::vector<FourierPolynomial> accF; //!< G*(k+1) transform accumulators
    GlweCiphertext diff;               //!< X^a * ACC - ACC (one slot)
    std::vector<TorusPolynomial> prods; //!< G*(k+1) inverse-FFT outputs

    // Stable pointer views over the buffers above, preshaped by
    // ensure() so the batched FFT entry points (BatchFft) can be fed
    // without per-call allocation. batchTorus is filled per call (its
    // targets may live in the caller's ciphertext); the rest point at
    // the workspace's own buffers.
    std::vector<const IntPolynomial *> batchDigits;  //!< -> digits
    std::vector<FourierPolynomial *> batchDigitsF;   //!< -> digitsF
    std::vector<FourierPolynomial *> batchAccF;      //!< -> accF
    std::vector<TorusPolynomial *> batchTorus;       //!< G*(k+1) slots

    // The group members taking part in one CMux step (those whose
    // rotation is not X^0), filled per BSK index by blindRotateBatch.
    std::vector<GlweCiphertext *> groupAcc; //!< G accumulator slots
    std::vector<unsigned> groupPower;       //!< G rotation powers

    // --- bootstrap pipeline scratch ----------------------------------
    GlweCiphertext acc;                 //!< blind-rotation accumulator
    TorusPolynomial testPoly;           //!< built LUT test polynomial
    std::vector<std::uint32_t> switched; //!< mod-switched ciphertext
    LweCiphertext extracted;            //!< sample-extraction output

  private:
    unsigned glweDim_ = 0;
    unsigned polyDegree_ = 0;
    unsigned levels_ = 0;
    unsigned group_ = 0;
};

} // namespace morphling::tfhe

#endif // MORPHLING_TFHE_WORKSPACE_H
