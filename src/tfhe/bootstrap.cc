#include "bootstrap.h"

#include "common/bits.h"
#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace morphling::tfhe {

void
modSwitchInto(const LweCiphertext &ct, unsigned poly_degree,
              std::vector<std::uint32_t> &out)
{
    const unsigned log2_two_n = log2Floor(poly_degree) + 1;
    out.resize(ct.dimension() + 1);
    for (unsigned i = 0; i < ct.dimension(); ++i)
        out[i] = modSwitchTorus32(ct.mask(i), log2_two_n) %
                 (2 * poly_degree);
    out[ct.dimension()] =
        modSwitchTorus32(ct.body(), log2_two_n) % (2 * poly_degree);
}

void
buildTestPolynomialInto(unsigned poly_degree,
                        const std::vector<Torus32> &lut,
                        TorusPolynomial &out)
{
    const auto space = static_cast<std::uint32_t>(lut.size());
    panic_if(space == 0, "empty LUT");
    panic_if(2 * space > poly_degree,
             "LUT of ", space, " entries does not fit N=", poly_degree);

    if (out.degree() != poly_degree)
        out = TorusPolynomial(poly_degree);
    for (unsigned j = 0; j < poly_degree; ++j) {
        // v = round(j * p / N); v == p marks the top half-slot, which
        // is reached (negated by the X^N = -1 wrap) by message 0 with
        // negative noise.
        const std::uint32_t v =
            (2u * j * space + poly_degree) / (2u * poly_degree);
        out[j] = v < space ? lut[v] : (0 - lut[0]);
    }
}

TorusPolynomial
constantTestPolynomial(unsigned poly_degree, Torus32 mu)
{
    TorusPolynomial tp(poly_degree);
    for (unsigned j = 0; j < poly_degree; ++j)
        tp[j] = mu;
    return tp;
}

void
blindRotateBatch(const BootstrapKey &bsk, const TorusPolynomial &test_poly,
                 std::span<const std::vector<std::uint32_t>> switched,
                 std::span<GlweCiphertext> accs, BootstrapWorkspace &ws)
{
    panic_if(switched.size() != accs.size(), "blind-rotation group has ",
             switched.size(), " switched ciphertexts but ", accs.size(),
             " accumulators");
    const auto count = static_cast<unsigned>(accs.size());
    if (count == 0)
        return;
    const unsigned n = bsk.size();
    for (const auto &sw : switched) {
        panic_if(sw.size() != n + 1, "BSK has ", n, " entries, need ",
                 sw.size() - 1);
    }
    const unsigned poly_degree = test_poly.degree();
    const unsigned two_n = 2 * poly_degree;
    const FourierGgsw &first = bsk.entry(0);
    const unsigned k = first.numCols() - 1;
    ws.ensure(k, poly_degree, first.levels(), first.baseBits(), count);

    // ACC_0 = X^(-b~) * (0,..,0,TP). Negative powers fold into
    // [0, 2N) because X^(2N) = 1; the test polynomial is rotated
    // straight into the accumulator body (rotate-on-construct).
    for (unsigned g = 0; g < count; ++g) {
        GlweCiphertext &acc = accs[g];
        if (acc.dimension() != k || acc.polyDegree() != poly_degree)
            acc = GlweCiphertext(k, poly_degree);
        for (unsigned c = 0; c < k; ++c)
            acc.component(c).clear();
        const unsigned b_tilde = switched[g][n] % two_n;
        test_poly.mulByXPowerInto((two_n - b_tilde) % two_n, acc.body());
    }

    // BSK-stationary: BSK_i is the outer loop and serves every group
    // member with a nonzero rotation in one group CMux.
    for (unsigned i = 0; i < n; ++i) {
        unsigned active = 0;
        for (unsigned g = 0; g < count; ++g) {
            const unsigned a_tilde = switched[g][i] % two_n;
            if (a_tilde == 0)
                continue; // X^0 rotation: CMux output equals its input.
            ws.groupAcc[active] = &accs[g];
            ws.groupPower[active] = a_tilde;
            ++active;
        }
        if (active == 0)
            continue;
        MORPHLING_SPAN_FINE("tfhe", "cmux");
        cmuxRotateGroupInPlace(bsk.entry(i), ws.groupAcc.data(),
                               ws.groupPower.data(), active, ws);
    }
}

void
blindRotate(const BootstrapKey &bsk, const TorusPolynomial &test_poly,
            const std::vector<std::uint32_t> &switched,
            GlweCiphertext &acc, BootstrapWorkspace &ws)
{
    blindRotateBatch(bsk, test_poly, {&switched, 1}, {&acc, 1}, ws);
}

void
bootstrapGroup(const BootstrapKey &bsk, const KeySwitchKey &ksk,
               const TorusPolynomial &test_poly,
               std::span<const LweCiphertext> inputs,
               std::span<LweCiphertext> out,
               std::span<std::vector<std::uint32_t>> switched,
               std::span<GlweCiphertext> accs, BootstrapWorkspace &ws)
{
    const std::size_t count = inputs.size();
    panic_if(out.size() != count || switched.size() < count ||
                 accs.size() < count,
             "bootstrap group of ", count, " has ", out.size(),
             " outputs and ", switched.size(), "/", accs.size(),
             " staging slots");
    {
        MORPHLING_SPAN("tfhe", "mod_switch");
        for (std::size_t g = 0; g < count; ++g)
            modSwitchInto(inputs[g], test_poly.degree(), switched[g]);
    }
    {
        MORPHLING_SPAN("tfhe", "blind_rotate");
        blindRotateBatch(bsk, test_poly, switched.first(count),
                         accs.first(count), ws);
    }
    for (std::size_t g = 0; g < count; ++g) {
        {
            MORPHLING_SPAN("tfhe", "sample_extract");
            accs[g].sampleExtractAtInto(0, ws.extracted);
        }
        {
            MORPHLING_SPAN("tfhe", "key_switch");
            ksk.applyInto(ws.extracted, out[g]);
        }
    }
}

void
bootstrapInto(const BootstrapKey &bsk, const KeySwitchKey &ksk,
              const TorusPolynomial &test_poly, const LweCiphertext &ct,
              LweCiphertext &out, BootstrapWorkspace &ws)
{
    MORPHLING_SPAN("tfhe", "bootstrap");
    bootstrapGroup(bsk, ksk, test_poly, {&ct, 1}, {&out, 1},
                   {&ws.switched, 1}, {&ws.acc, 1}, ws);
}

LweCiphertext
programmableBootstrap(const EvaluationKeys &keys, const LweCiphertext &ct,
                      const std::vector<Torus32> &lut)
{
    auto &ws = BootstrapWorkspace::forThisThread();
    buildTestPolynomialInto(keys.params.polyDegree, lut, ws.testPoly);
    LweCiphertext out;
    bootstrapInto(keys.bsk, keys.ksk, ws.testPoly, ct, out, ws);
    return out;
}

LweCiphertext
signBootstrap(const EvaluationKeys &keys, const LweCiphertext &ct,
              Torus32 mu)
{
    LweCiphertext out;
    bootstrapInto(keys.bsk, keys.ksk,
                  constantTestPolynomial(keys.params.polyDegree, mu), ct,
                  out, BootstrapWorkspace::forThisThread());
    return out;
}

TorusPolynomial
buildMultiTestPolynomial(unsigned poly_degree,
                         const std::vector<std::vector<Torus32>> &luts)
{
    panic_if(luts.empty(), "need at least one LUT");
    const auto nu = static_cast<std::uint32_t>(luts.size());
    const auto space = static_cast<std::uint32_t>(luts[0].size());
    for (const auto &lut : luts)
        panic_if(lut.size() != space, "LUT sizes must match");

    const std::uint32_t slot = poly_degree / space;
    fatal_if(slot * space != poly_degree,
             "message space must divide N");
    const std::uint32_t spacing = slot / nu;
    fatal_if(spacing * nu != slot || spacing < 2,
             "cannot pack ", nu, " LUTs of ", space,
             " entries into N = ", poly_degree);

    TorusPolynomial tp(poly_degree);
    for (unsigned j = 0; j < poly_degree; ++j) {
        // Decompose j (shifted by half a sub-slot so noise rounds to
        // the nearest function copy) into message slot, function
        // index, and jitter.
        const std::uint32_t t = j + spacing / 2;
        const std::uint32_t m = t / slot;
        const std::uint32_t func = (t % slot) / spacing;
        // The top wrap region belongs to message 0 negated
        // (X^N = -1), exactly as in the single-LUT builder.
        tp[j] = m < space ? luts[func][m] : (0 - luts[func][0]);
    }
    return tp;
}

std::vector<LweCiphertext>
multiLutBootstrap(const EvaluationKeys &keys, const LweCiphertext &ct,
                  const std::vector<std::vector<Torus32>> &luts)
{
    const unsigned poly_degree = keys.params.polyDegree;
    const TorusPolynomial tp =
        buildMultiTestPolynomial(poly_degree, luts);
    auto &ws = BootstrapWorkspace::forThisThread();
    modSwitchInto(ct, poly_degree, ws.switched);
    blindRotate(keys.bsk, tp, ws.switched, ws.acc, ws);

    const auto nu = static_cast<unsigned>(luts.size());
    const unsigned spacing =
        poly_degree / static_cast<unsigned>(luts[0].size()) / nu;
    std::vector<LweCiphertext> out(nu);
    for (unsigned i = 0; i < nu; ++i) {
        // One cheap extraction per function; the expensive blind
        // rotation is shared.
        ws.acc.sampleExtractAtInto(i * spacing, ws.extracted);
        keys.ksk.applyInto(ws.extracted, out[i]);
    }
    return out;
}

} // namespace morphling::tfhe
