#include "ggsw.h"

#include "common/logging.h"
#include "tfhe/workspace.h"

namespace morphling::tfhe {

GadgetPlan
makeGadgetPlan(unsigned base_bits, unsigned levels)
{
    panic_if(base_bits == 0 || levels == 0 || base_bits * levels > 32,
             "bad gadget (base 2^", base_bits, ", ", levels, " levels)");
    GadgetPlan plan;
    plan.baseBits = base_bits;
    plan.levels = levels;
    plan.mask = (base_bits == 32) ? ~0u : ((1u << base_bits) - 1);
    plan.half = std::int32_t{1} << (base_bits - 1);

    // Centering offset: adding beta/2 at every level lets us subtract
    // beta/2 from each extracted digit, mapping digits from [0, beta)
    // to [-beta/2, beta/2). Rounding offset: half an ulp of the last
    // level converts the truncation of the undecomposed tail into
    // round-to-nearest.
    plan.offset = 0;
    for (unsigned j = 1; j <= levels; ++j)
        plan.offset += std::uint32_t{1} << (31 - (j - 1) * base_bits);
    if (levels * base_bits < 32)
        plan.offset += std::uint32_t{1} << (32 - levels * base_bits - 1);
    return plan;
}

void
gadgetDecomposeScalar(Torus32 value, unsigned base_bits, unsigned levels,
                      std::int32_t *digits)
{
    const GadgetPlan plan = makeGadgetPlan(base_bits, levels);
    const std::uint32_t shifted = value + plan.offset;
    for (unsigned j = 1; j <= levels; ++j) {
        const unsigned shift = 32 - j * base_bits;
        const std::uint32_t digit = (shifted >> shift) & plan.mask;
        digits[j - 1] = static_cast<std::int32_t>(digit) - plan.half;
    }
}

void
gadgetDecomposePlannedInto(const TorusPolynomial &poly,
                           const GadgetPlan &plan, IntPolynomial *out)
{
    const unsigned n = poly.degree();
    const Torus32 *__restrict src = poly.data();
    const std::uint32_t offset = plan.offset;
    const std::uint32_t mask = plan.mask;
    const std::int32_t half = plan.half;
    // Level-outer: each pass is a straight shift/mask/subtract over the
    // polynomial, which vectorizes; the offset addition is redone per
    // level to keep the inner loop free of cross-level state.
    for (unsigned j = 0; j < plan.levels; ++j) {
        const unsigned shift = 32 - (j + 1) * plan.baseBits;
        panic_if(out[j].degree() != n, "digit polynomial degree mismatch");
        std::int32_t *__restrict dst = out[j].data();
        for (unsigned c = 0; c < n; ++c) {
            const std::uint32_t shifted = src[c] + offset;
            dst[c] = static_cast<std::int32_t>((shifted >> shift) & mask) -
                     half;
        }
    }
}

GgswCiphertext
GgswCiphertext::encrypt(const GlweKey &key, std::int32_t message,
                        double stddev, Rng &rng)
{
    const auto &params = key.params();
    const unsigned k = key.dimension();
    const unsigned levels = params.bskLevels;
    const unsigned base_bits = params.bskBaseBits;

    GgswCiphertext out;
    out.baseBits_ = base_bits;
    out.levels_ = levels;
    out.rows_.reserve(static_cast<std::size_t>(k + 1) * levels);

    TorusPolynomial zero(params.polyDegree);
    for (unsigned u = 0; u <= k; ++u) {
        for (unsigned j = 0; j < levels; ++j) {
            GlweCiphertext row =
                GlweCiphertext::encrypt(key, zero, stddev, rng);
            // Add m * q / beta^(j+1) to the constant coefficient of
            // component u.
            const Torus32 gadget = static_cast<Torus32>(
                static_cast<std::int64_t>(message)
                << (32 - (j + 1) * base_bits));
            row.component(u)[0] += gadget;
            out.rows_.push_back(std::move(row));
        }
    }
    return out;
}

FourierGgsw
FourierGgsw::fromGgsw(const GgswCiphertext &ggsw)
{
    FourierGgsw out;
    out.baseBits_ = ggsw.baseBits();
    out.levels_ = ggsw.levels();
    out.rows_.resize(ggsw.numRows());

    panic_if(ggsw.numRows() == 0, "empty GGSW");
    const unsigned n = ggsw.row(0).polyDegree();

    // All (k+1)*l_b*(k+1) transforms of the key material go through one
    // batched forward call (torus coefficients read as signed 32-bit
    // integers).
    std::vector<const std::int32_t *> in;
    std::vector<FourierPolynomial *> spectra;
    for (unsigned r = 0; r < ggsw.numRows(); ++r) {
        const auto &row = ggsw.row(r);
        auto &dst = out.rows_[r];
        dst.resize(row.dimension() + 1);
        for (unsigned c = 0; c <= row.dimension(); ++c) {
            dst[c] = FourierPolynomial(n);
            in.push_back(reinterpret_cast<const std::int32_t *>(
                row.component(c).data()));
            spectra.push_back(&dst[c]);
        }
    }
    BatchFft::forDegree(n).forward(in.data(), spectra.data(),
                                   static_cast<unsigned>(in.size()));
    return out;
}

FourierGgsw
FourierGgsw::fromRows(unsigned base_bits, unsigned levels,
                      std::vector<std::vector<FourierPolynomial>> rows)
{
    FourierGgsw out;
    out.baseBits_ = base_bits;
    out.levels_ = levels;
    out.rows_ = std::move(rows);
    panic_if(out.rows_.empty(), "empty GGSW rows");
    return out;
}

GlweCiphertext
externalProductSchoolbook(const GgswCiphertext &ggsw,
                          const GlweCiphertext &input)
{
    const unsigned k = input.dimension();
    const unsigned n = input.polyDegree();
    const unsigned levels = ggsw.levels();
    panic_if(ggsw.numRows() != (k + 1) * levels,
             "GGSW/GLWE shape mismatch");

    GlweCiphertext result(k, n);
    const GadgetPlan plan = makeGadgetPlan(ggsw.baseBits(), levels);
    std::vector<IntPolynomial> digits(levels, IntPolynomial(n));
    for (unsigned u = 0; u <= k; ++u) {
        gadgetDecomposePlannedInto(input.component(u), plan, digits.data());
        for (unsigned j = 0; j < levels; ++j) {
            const auto &row = ggsw.row(u * levels + j);
            for (unsigned c = 0; c <= k; ++c) {
                negacyclicMulAddSchoolbook(result.component(c), digits[j],
                                           row.component(c));
            }
        }
    }
    return result;
}

namespace {

void
checkGgswShape(const FourierGgsw &ggsw, unsigned k)
{
    panic_if(ggsw.numRows() != (k + 1) * ggsw.levels(),
             "GGSW/GLWE shape mismatch");
    panic_if(ggsw.numCols() != k + 1, "GGSW column count mismatch");
}

/**
 * Stage (1a) of the Fourier external product: decompose all k+1
 * components of `input` into the digit polynomials of group slot
 * `slot`. The (k+1)*l_b forward transforms of every slot then go
 * through BatchFft as one batched call (the ones the hardware shares
 * across a VPE row: input transform-domain reuse), so the SIMD tiers
 * transform several digit polynomials per pass.
 */
void
decomposeIntoSlot(const GlweCiphertext &input, unsigned slot,
                  BootstrapWorkspace &ws)
{
    const unsigned k = input.dimension();
    const unsigned levels = ws.plan.levels;
    IntPolynomial *dst =
        ws.digits.data() + static_cast<std::size_t>(slot) * (k + 1) * levels;
    for (unsigned u = 0; u <= k; ++u)
        gadgetDecomposePlannedInto(input.component(u), ws.plan,
                                   dst + u * levels);
}

/** Stage (2): the (k+1) transform-domain dot products of equation (2)
 *  for group slot `slot`, one per output component, accumulated into
 *  that slot's ws.accF entries. */
void
accumulateColumns(const FourierGgsw &ggsw, unsigned slot, unsigned k,
                  BootstrapWorkspace &ws)
{
    const unsigned rows = ggsw.numRows();
    const FourierPolynomial *digits =
        ws.digitsF.data() + static_cast<std::size_t>(slot) * rows;
    FourierPolynomial *acc =
        ws.accF.data() + static_cast<std::size_t>(slot) * (k + 1);
    for (unsigned c = 0; c <= k; ++c) {
        acc[c].clear();
        for (unsigned r = 0; r < rows; ++r)
            acc[c].mulAddAssign(digits[r], ggsw.at(r, c));
    }
}

} // namespace

void
externalProductFourier(const FourierGgsw &ggsw, const GlweCiphertext &input,
                       GlweCiphertext &result, BootstrapWorkspace &ws)
{
    const unsigned k = input.dimension();
    const unsigned n = input.polyDegree();
    checkGgswShape(ggsw, k);
    ws.ensure(k, n, ggsw.levels(), ggsw.baseBits());
    const BatchFft &fft = BatchFft::forDegree(n);
    decomposeIntoSlot(input, 0, ws);
    fft.forward(ws.batchDigits.data(), ws.batchDigitsF.data(),
                ggsw.numRows());
    if (result.dimension() != k || result.polyDegree() != n)
        result = GlweCiphertext(k, n);

    // (2): one dot product per output component, accumulated entirely
    // in the transform domain (output transform-domain reuse: a single
    // inverse FFT per component, not per product). The k+1 inverse
    // transforms run as one batched call straight into `result`.
    accumulateColumns(ggsw, 0, k, ws);
    for (unsigned c = 0; c <= k; ++c)
        ws.batchTorus[c] = &result.component(c);
    fft.inverseInPlace(ws.batchAccF.data(), ws.batchTorus.data(), k + 1);
}

void
cmuxRotateGroupInPlace(const FourierGgsw &ggsw, GlweCiphertext *const *accs,
                       const unsigned *powers, unsigned count,
                       BootstrapWorkspace &ws)
{
    if (count == 0)
        return;
    const unsigned k = accs[0]->dimension();
    const unsigned n = accs[0]->polyDegree();
    checkGgswShape(ggsw, k);
    ws.ensure(k, n, ggsw.levels(), ggsw.baseBits(), count);
    const BatchFft &fft = BatchFft::forDegree(n);

    // Lambda_g = X^power_g * ACC_g - ACC_g, decomposed into slot g ...
    for (unsigned g = 0; g < count; ++g) {
        GlweCiphertext &acc = *accs[g];
        panic_if(acc.dimension() != k || acc.polyDegree() != n,
                 "CMux group members differ in shape");
        for (unsigned c = 0; c <= k; ++c)
            acc.component(c).rotateDiffInto(powers[g], ws.diff.component(c));
        decomposeIntoSlot(ws.diff, g, ws);
    }

    // ... then ACC_g += BSK [.] Lambda_g: the group's forward FFTs in
    // one batched call, every slot's MAC against the same GGSW, and the
    // group's inverse FFTs in one batched call into ws.prods, which are
    // accumulated straight into the rotating accumulators.
    const unsigned comps = k + 1;
    fft.forward(ws.batchDigits.data(), ws.batchDigitsF.data(),
                count * ggsw.numRows());
    for (unsigned g = 0; g < count; ++g)
        accumulateColumns(ggsw, g, k, ws);
    for (unsigned j = 0; j < count * comps; ++j)
        ws.batchTorus[j] = &ws.prods[j];
    fft.inverseInPlace(ws.batchAccF.data(), ws.batchTorus.data(),
                       count * comps);
    for (unsigned g = 0; g < count; ++g) {
        for (unsigned c = 0; c <= k; ++c)
            accs[g]->component(c).addAssign(ws.prods[g * comps + c]);
    }
}

void
cmuxRotateInPlace(const FourierGgsw &ggsw, GlweCiphertext &acc,
                  unsigned power, BootstrapWorkspace &ws)
{
    GlweCiphertext *const one = &acc;
    cmuxRotateGroupInPlace(ggsw, &one, &power, 1, ws);
}

} // namespace morphling::tfhe
