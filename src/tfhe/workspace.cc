#include "workspace.h"

#include <algorithm>

namespace morphling::tfhe {

namespace {

/** Resize `v` to `count` polynomials of degree n, reshaping only the
 *  entries that do not already have it. */
template <typename Poly>
void
shapePolys(std::vector<Poly> &v, std::size_t count, unsigned n)
{
    v.resize(count);
    for (auto &p : v) {
        if (p.degree() != n)
            p = Poly(n);
    }
}

/** shapePolys for transform-domain polynomials of ring degree n. */
void
shapeSpectra(std::vector<FourierPolynomial> &v, std::size_t count,
             unsigned n)
{
    v.resize(count);
    for (auto &fp : v) {
        if (fp.ringDegree() != n)
            fp = FourierPolynomial(n);
    }
}

} // namespace

void
BootstrapWorkspace::ensure(unsigned glwe_dim, unsigned poly_degree,
                           unsigned levels, unsigned base_bits,
                           unsigned group)
{
    if (plan.baseBits != base_bits || plan.levels != levels)
        plan = makeGadgetPlan(base_bits, levels);

    const bool same_ring =
        glweDim_ == glwe_dim && polyDegree_ == poly_degree;
    if (same_ring && levels_ == levels && group <= group_)
        return;
    // A new geometry starts over at the requested group; the same one
    // only ever grows (lazily, to the largest group run).
    const unsigned slots =
        same_ring && levels_ == levels ? std::max(group, group_) : group;

    // One digit polynomial and one transform per GGSW row per slot, so
    // the whole group's (k+1)*l_b forward FFTs run as one batched call.
    const std::size_t rows =
        static_cast<std::size_t>(glwe_dim + 1) * levels * slots;
    shapePolys(digits, rows, poly_degree);
    shapeSpectra(digitsF, rows, poly_degree);

    // One accumulator and one inverse output per GLWE component per
    // slot, so the group's inverse FFTs batch the same way.
    const std::size_t comps =
        static_cast<std::size_t>(glwe_dim + 1) * slots;
    shapeSpectra(accF, comps, poly_degree);
    if (diff.dimension() != glwe_dim || !same_ring)
        diff = GlweCiphertext(glwe_dim, poly_degree);
    shapePolys(prods, comps, poly_degree);

    // Pointer views for the batched FFT calls: targets are stable until
    // the next reshaping ensure().
    batchDigits.resize(rows);
    batchDigitsF.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        batchDigits[r] = &digits[r];
        batchDigitsF[r] = &digitsF[r];
    }
    batchAccF.resize(comps);
    for (std::size_t c = 0; c < comps; ++c)
        batchAccF[c] = &accF[c];
    batchTorus.resize(comps);
    groupAcc.resize(slots);
    groupPower.resize(slots);

    glweDim_ = glwe_dim;
    polyDegree_ = poly_degree;
    levels_ = levels;
    group_ = slots;
}

BootstrapWorkspace &
BootstrapWorkspace::forThisThread()
{
    thread_local BootstrapWorkspace ws;
    return ws;
}

} // namespace morphling::tfhe
