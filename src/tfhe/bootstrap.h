/**
 * @file
 * Programmable bootstrapping (Algorithm 1):
 * mod-switch -> blind rotation (n external products) -> sample
 * extraction -> key switching.
 *
 * Besides the end-to-end entry points this header exposes each stage
 * individually; the accelerator model, the op-count study (Figure 1)
 * and the tests all reuse the same stage functions.
 */

#ifndef MORPHLING_TFHE_BOOTSTRAP_H
#define MORPHLING_TFHE_BOOTSTRAP_H

#include <cstdint>
#include <span>
#include <vector>

#include "tfhe/keyset.h"
#include "tfhe/workspace.h"

namespace morphling::tfhe {

/**
 * Modulus-switch every element of an LWE ciphertext from q = 2^32 to
 * 2N (Algorithm 1, line 1) into `out`. Element i of the result is
 * round(c_i * 2N / q) in [0, 2N); the body comes last. Allocation-free
 * when `out` is warm.
 */
void modSwitchInto(const LweCiphertext &ct, unsigned poly_degree,
                   std::vector<std::uint32_t> &out);

/**
 * Build the test polynomial for a LUT over a p-value message space with
 * one bit of padding (messages encoded at m / (2p), phases in
 * [0, 1/2)) into `out` (allocation-free when already at the right
 * degree).
 *
 * Coefficient j holds lut[round(j*p/N)]; the top half-slot holds
 * -lut[0] so that a message 0 with slightly negative noise — whose
 * switched phase wraps to just below 2N — still resolves to lut[0]
 * after the negacyclic wrap.
 */
void buildTestPolynomialInto(unsigned poly_degree,
                             const std::vector<Torus32> &lut,
                             TorusPolynomial &out);

/** Constant test polynomial (every coefficient mu): the sign-extractor
 *  used by gate bootstrapping. */
TorusPolynomial constantTestPolynomial(unsigned poly_degree, Torus32 mu);

/**
 * Blind rotation (Algorithm 1, lines 2-4): starting from the trivial
 * accumulator X^(2N - b~) * (0,..,0,TP), fold in one CMux per LWE mask.
 * The accumulator is (re)built inside `acc` (rotate-on-construct: the
 * test polynomial is rotated directly into the accumulator body, no
 * trivial-then-rotate copy) and every CMux runs in place through `ws`.
 * Allocation-free when warm.
 *
 * @param switched mod-switched ciphertext (masks then body), values in
 *                 [0, 2N)
 */
void blindRotate(const BootstrapKey &bsk,
                 const TorusPolynomial &test_poly,
                 const std::vector<std::uint32_t> &switched,
                 GlweCiphertext &acc, BootstrapWorkspace &ws);

/**
 * BSK-stationary blind rotation of a group of G = accs.size()
 * ciphertexts (the paper's group of LWEs sharing one BSK stream):
 * BSK_i is the outer loop, and each BSK_i serves every group member
 * whose rotation X^(a~_i) is not X^0 through one group CMux
 * (cmuxRotateGroupInPlace), so the G*(k+1)*l_b forward and G*(k+1)
 * inverse FFTs of a step fill the SIMD lanes across ciphertexts.
 *
 * accs[g] receives the rotation of switched[g], bit-identical to the
 * single-ciphertext blindRotate above, which is this call with G = 1.
 * `ws` grows to G slots on first use; allocation-free once warm.
 */
void blindRotateBatch(const BootstrapKey &bsk,
                      const TorusPolynomial &test_poly,
                      std::span<const std::vector<std::uint32_t>> switched,
                      std::span<GlweCiphertext> accs,
                      BootstrapWorkspace &ws);

/**
 * Bootstrap a group of ciphertexts against one test polynomial: the
 * one place Algorithm 1's stage sequence runs. Each inputs[g] is
 * mod-switched into switched[g], the whole group is blind-rotated
 * BSK-stationary into accs[g] (blindRotateBatch), and each rotation
 * is sample-extracted through ws.extracted and key-switched into
 * out[g]. `switched` and `accs` are caller-owned staging with at
 * least inputs.size() entries, reused across groups; out must be as
 * long as inputs. Allocation-free when warm.
 */
void bootstrapGroup(const BootstrapKey &bsk, const KeySwitchKey &ksk,
                    const TorusPolynomial &test_poly,
                    std::span<const LweCiphertext> inputs,
                    std::span<LweCiphertext> out,
                    std::span<std::vector<std::uint32_t>> switched,
                    std::span<GlweCiphertext> accs,
                    BootstrapWorkspace &ws);

/**
 * Full workspace bootstrap of one ciphertext: bootstrapGroup over a
 * group of one, staged in ws.switched and ws.acc. This is the
 * zero-allocation hot path of the single-ciphertext entry points;
 * `out` gets the key-switched result.
 */
void bootstrapInto(const BootstrapKey &bsk, const KeySwitchKey &ksk,
                   const TorusPolynomial &test_poly,
                   const LweCiphertext &ct, LweCiphertext &out,
                   BootstrapWorkspace &ws);

/**
 * Full programmable bootstrapping of a padded p-value message: returns
 * LWE_s(lut[m]) for input LWE_s(m / (2p)). lut values are raw torus
 * elements, so any output encoding (including a different p) works.
 */
LweCiphertext programmableBootstrap(const EvaluationKeys &keys,
                                    const LweCiphertext &ct,
                                    const std::vector<Torus32> &lut);

/**
 * Sign bootstrap: returns LWE_s(+mu) when the phase of ct lies in
 * (0, 1/2) and LWE_s(-mu) when it lies in (-1/2, 0). The primitive
 * behind all two-input boolean gates.
 */
LweCiphertext signBootstrap(const EvaluationKeys &keys,
                            const LweCiphertext &ct, Torus32 mu);

/**
 * Multi-LUT test polynomial: packs nu look-up tables (all over the
 * same p-value padded space) into one test polynomial by spacing the
 * functions N/(p*nu) coefficients apart inside each message slot.
 * Extraction offset i*N/(p*nu) then reads f_i — several functions from
 * ONE blind rotation, at the price of a nu-times smaller noise margin.
 * (The transform-domain-reuse idea applied at the algorithm level: the
 * expensive rotation is shared, only the cheap extractions multiply.)
 */
TorusPolynomial
buildMultiTestPolynomial(unsigned poly_degree,
                         const std::vector<std::vector<Torus32>> &luts);

/**
 * Evaluate several LUTs with a single blind rotation: returns one
 * ciphertext per LUT, output i = luts[i][m]. All LUTs share the
 * message space; p * nu must divide N with spacing >= 2.
 */
std::vector<LweCiphertext>
multiLutBootstrap(const EvaluationKeys &keys, const LweCiphertext &ct,
                  const std::vector<std::vector<Torus32>> &luts);

} // namespace morphling::tfhe

#endif // MORPHLING_TFHE_BOOTSTRAP_H
