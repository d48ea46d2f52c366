/**
 * @file
 * Generic implementation of the batched negacyclic FFT kernels,
 * templated over a vector-traits type and instantiated once per ISA
 * translation unit (scalar / AVX2 / AVX-512 / NEON).
 *
 * A traits type V supplies:
 *   - kWidth: lanes per vector (1, 2, 4, 8)
 *   - Vec:    the register type (double, float64x2_t, __m256d, __m512d)
 *   - load/store (unaligned-tolerant), splat, add, sub, mul
 *   - cvtInt32: widen kWidth int32 coefficients to doubles
 *   - transpose: in-place kWidth x kWidth tile transpose of Vec rows
 *
 * Data layout: W polynomials are processed per call with coefficients
 * lane-interleaved — element j of lane (polynomial) w lives at
 * scratch[j*W + w]. A butterfly at position j is then one W-wide vector
 * op with the twiddle splat across lanes, so every stage runs at full
 * width regardless of its span. The fold+twist (forward) and
 * untwist+scale+round (inverse) are fused into the lane transpose
 * passes at the array boundaries.
 *
 * Bit-identity contract: every tier instantiates this one template, so
 * each lane executes exactly the operation sequence of the W = 1 rung
 * per element (multiplies and adds in the same order, no FMA
 * contraction, shared roundToTorus). Compile kernel TUs with
 * -ffp-contract=off.
 */

#ifndef MORPHLING_TFHE_FFT_KERNELS_IMPL_H
#define MORPHLING_TFHE_FFT_KERNELS_IMPL_H

#include "tfhe/fft_kernels.h"

namespace morphling::tfhe::detail {

/** Fold + twist W integer polynomials and transpose them into the
 *  lane-interleaved scratch: one fused pass over the inputs. */
template <class V>
void
foldTwistTransposeIn(const NegacyclicView &t,
                     const std::int32_t *const *in, double *s_re,
                     double *s_im)
{
    constexpr unsigned W = V::kWidth;
    using Vec = typename V::Vec;
    const unsigned half = t.half;
    for (unsigned j0 = 0; j0 < half; j0 += W) {
        const Vec tr = V::load(t.twistRe + j0);
        const Vec ti = V::load(t.twistIm + j0);
        Vec row_re[W], row_im[W];
        for (unsigned w = 0; w < W; ++w) {
            // x_j = (a_j + i * a_{j+N/2}) * e^{i*pi*j/N}, same
            // expression order in every lane.
            const Vec lo = V::cvtInt32(in[w] + j0);
            const Vec hi = V::cvtInt32(in[w] + j0 + half);
            row_re[w] = V::sub(V::mul(lo, tr), V::mul(hi, ti));
            row_im[w] = V::add(V::mul(lo, ti), V::mul(hi, tr));
        }
        V::transpose(row_re);
        V::transpose(row_im);
        for (unsigned e = 0; e < W; ++e) {
            V::store(s_re + (j0 + e) * W, row_re[e]);
            V::store(s_im + (j0 + e) * W, row_im[e]);
        }
    }
}

/** One radix-4 stage's twiddle streams, indexed by butterfly
 *  position: re/im of w, w^2 and w^3. */
struct StageTwiddles
{
    const double *w1r, *w1i, *w2r, *w2i, *w3r, *w3i;
};

/** One radix-4 DIF butterfly of the forward at the four quarter-block
 *  positions p0..p3 (re and im planes), with the twiddles of butterfly
 *  j. */
struct ForwardButterfly
{
    template <class V, class P>
    static void
    run(P p0r, P p1r, P p2r, P p3r, P p0i, P p1i, P p2i, P p3i,
        const StageTwiddles &w, unsigned j)
    {
        using Vec = typename V::Vec;
        const Vec r0 = V::load(p0r), i0 = V::load(p0i);
        const Vec r1 = V::load(p1r), i1 = V::load(p1i);
        const Vec r2 = V::load(p2r), i2 = V::load(p2i);
        const Vec r3 = V::load(p3r), i3 = V::load(p3i);
        const Vec t0r = V::add(r0, r2), t0i = V::add(i0, i2);
        const Vec t1r = V::sub(r0, r2), t1i = V::sub(i0, i2);
        const Vec t2r = V::add(r1, r3), t2i = V::add(i1, i3);
        const Vec t3r = V::sub(r1, r3), t3i = V::sub(i1, i3);
        V::store(p0r, V::add(t0r, t2r));
        V::store(p0i, V::add(t0i, t2i));
        // y1 = (t1 - i*t3) * w, y2 = (t0 - t2) * w^2,
        // y3 = (t1 + i*t3) * w^3 (forward kernel e^{-i...}).
        const Vec y1r = V::add(t1r, t3i);
        const Vec y1i = V::sub(t1i, t3r);
        const Vec v1r = V::splat(w.w1r[j]), v1i = V::splat(w.w1i[j]);
        V::store(p1r, V::sub(V::mul(y1r, v1r), V::mul(y1i, v1i)));
        V::store(p1i, V::add(V::mul(y1r, v1i), V::mul(y1i, v1r)));
        const Vec y2r = V::sub(t0r, t2r);
        const Vec y2i = V::sub(t0i, t2i);
        const Vec v2r = V::splat(w.w2r[j]), v2i = V::splat(w.w2i[j]);
        V::store(p2r, V::sub(V::mul(y2r, v2r), V::mul(y2i, v2i)));
        V::store(p2i, V::add(V::mul(y2r, v2i), V::mul(y2i, v2r)));
        const Vec y3r = V::sub(t1r, t3i);
        const Vec y3i = V::add(t1i, t3r);
        const Vec v3r = V::splat(w.w3r[j]), v3i = V::splat(w.w3i[j]);
        V::store(p3r, V::sub(V::mul(y3r, v3r), V::mul(y3i, v3i)));
        V::store(p3i, V::add(V::mul(y3r, v3i), V::mul(y3i, v3r)));
    }
};

/** One radix-4 DIT butterfly of the inverse, the exact transpose of
 *  ForwardButterfly: u_s = y_s * conj(w^s), then the conjugate
 *  butterfly. */
struct InverseButterfly
{
    template <class V, class P>
    static void
    run(P p0r, P p1r, P p2r, P p3r, P p0i, P p1i, P p2i, P p3i,
        const StageTwiddles &w, unsigned j)
    {
        using Vec = typename V::Vec;
        const Vec r0 = V::load(p0r), i0 = V::load(p0i);
        const Vec r1 = V::load(p1r), i1 = V::load(p1i);
        const Vec r2 = V::load(p2r), i2 = V::load(p2i);
        const Vec r3 = V::load(p3r), i3 = V::load(p3i);
        const Vec v1r = V::splat(w.w1r[j]), v1i = V::splat(w.w1i[j]);
        const Vec v2r = V::splat(w.w2r[j]), v2i = V::splat(w.w2i[j]);
        const Vec v3r = V::splat(w.w3r[j]), v3i = V::splat(w.w3i[j]);
        const Vec u1r = V::add(V::mul(r1, v1r), V::mul(i1, v1i));
        const Vec u1i = V::sub(V::mul(i1, v1r), V::mul(r1, v1i));
        const Vec u2r = V::add(V::mul(r2, v2r), V::mul(i2, v2i));
        const Vec u2i = V::sub(V::mul(i2, v2r), V::mul(r2, v2i));
        const Vec u3r = V::add(V::mul(r3, v3r), V::mul(i3, v3i));
        const Vec u3i = V::sub(V::mul(i3, v3r), V::mul(r3, v3i));
        const Vec t0r = V::add(r0, u2r), t0i = V::add(i0, u2i);
        const Vec t1r = V::sub(r0, u2r), t1i = V::sub(i0, u2i);
        const Vec t2r = V::add(u1r, u3r), t2i = V::add(u1i, u3i);
        const Vec t3r = V::sub(u1r, u3r), t3i = V::sub(u1i, u3i);
        V::store(p0r, V::add(t0r, t2r));
        V::store(p0i, V::add(t0i, t2i));
        V::store(p1r, V::sub(t1r, t3i));
        V::store(p1i, V::add(t1i, t3r));
        V::store(p2r, V::sub(t0r, t2r));
        V::store(p2i, V::sub(t0i, t2i));
        V::store(p3r, V::add(t1r, t3i));
        V::store(p3i, V::sub(t1i, t3r));
    }
};

/**
 * Every butterfly of radix-4 stage `s` on the interleaved layout. At
 * W = 1 the quarter-block pointers are hoisted out of the butterfly
 * loop and marked __restrict, so the compiler may move a butterfly's
 * loads above the previous one's stores (without it the W = 1 inverse
 * is ~15% slower). The vector rungs keep per-butterfly pointers: the
 * hoisted shape slows the AVX-512 inverse by ~7%.
 */
template <class V, class Butterfly>
void
radix4Stage(const NegacyclicView &t, unsigned s, double *re, double *im)
{
    constexpr unsigned W = V::kWidth;
    const unsigned len = t.stageLen[s];
    const unsigned q = len / 4;
    const double *tw = t.stageTw[s];
    const StageTwiddles w{tw + 0 * q, tw + 1 * q, tw + 2 * q,
                          tw + 3 * q, tw + 4 * q, tw + 5 * q};
    for (unsigned base = 0; base < t.half; base += len) {
        if constexpr (W == 1) {
            double *__restrict p0r = re + base;
            double *__restrict p1r = p0r + q;
            double *__restrict p2r = p1r + q;
            double *__restrict p3r = p2r + q;
            double *__restrict p0i = im + base;
            double *__restrict p1i = p0i + q;
            double *__restrict p2i = p1i + q;
            double *__restrict p3i = p2i + q;
            for (unsigned j = 0; j < q; ++j)
                Butterfly::template run<V, double *__restrict>(
                    p0r + j, p1r + j, p2r + j, p3r + j, p0i + j, p1i + j,
                    p2i + j, p3i + j, w, j);
        } else {
            for (unsigned j = 0; j < q; ++j) {
                double *p0r = re + (base + j) * W;
                double *p1r = p0r + q * W;
                double *p2r = p1r + q * W;
                double *p3r = p2r + q * W;
                double *p0i = im + (base + j) * W;
                double *p1i = p0i + q * W;
                double *p2i = p1i + q * W;
                double *p3i = p2i + q * W;
                Butterfly::template run<V, double *>(
                    p0r, p1r, p2r, p3r, p0i, p1i, p2i, p3i, w, j);
            }
        }
    }
}

/** All forward DIF butterfly stages on the interleaved layout. */
template <class V>
void
forwardStages(const NegacyclicView &t, double *re, double *im)
{
    constexpr unsigned W = V::kWidth;
    using Vec = typename V::Vec;
    for (unsigned s = 0; s < t.numStages; ++s)
        radix4Stage<V, ForwardButterfly>(t, s, re, im);
    if (t.radix2Tail) {
        for (unsigned p = 0; p < t.half; p += 2) {
            double *ar = re + p * W, *br = ar + W;
            double *ai = im + p * W, *bi = ai + W;
            const Vec xr = V::load(ar), xi = V::load(ai);
            const Vec yr = V::load(br), yi = V::load(bi);
            V::store(ar, V::add(xr, yr));
            V::store(ai, V::add(xi, yi));
            V::store(br, V::sub(xr, yr));
            V::store(bi, V::sub(xi, yi));
        }
    }
}

/** All inverse DIT butterfly stages (radix-2 tail first, then radix-4
 *  stages from the smallest span down to stage 0) on the interleaved
 *  layout. The exact transpose of forwardStages. */
template <class V>
void
inverseStages(const NegacyclicView &t, double *re, double *im)
{
    constexpr unsigned W = V::kWidth;
    using Vec = typename V::Vec;
    if (t.radix2Tail) {
        for (unsigned p = 0; p < t.half; p += 2) {
            double *ar = re + p * W, *br = ar + W;
            double *ai = im + p * W, *bi = ai + W;
            const Vec xr = V::load(ar), xi = V::load(ai);
            const Vec yr = V::load(br), yi = V::load(bi);
            V::store(ar, V::add(xr, yr));
            V::store(ai, V::add(xi, yi));
            V::store(br, V::sub(xr, yr));
            V::store(bi, V::sub(xi, yi));
        }
    }
    for (unsigned s = t.numStages; s-- > 0;)
        radix4Stage<V, InverseButterfly>(t, s, re, im);
}

/** De-interleave the forward spectra back into each polynomial's SoA
 *  arrays (digit-reversed order). */
template <class V>
void
transposeOut(const NegacyclicView &t, const double *s_re,
             const double *s_im, double *const *out_re,
             double *const *out_im)
{
    constexpr unsigned W = V::kWidth;
    using Vec = typename V::Vec;
    for (unsigned j0 = 0; j0 < t.half; j0 += W) {
        Vec row_re[W], row_im[W];
        for (unsigned e = 0; e < W; ++e) {
            row_re[e] = V::load(s_re + (j0 + e) * W);
            row_im[e] = V::load(s_im + (j0 + e) * W);
        }
        V::transpose(row_re);
        V::transpose(row_im);
        for (unsigned w = 0; w < W; ++w) {
            V::store(out_re[w] + j0, row_re[w]);
            V::store(out_im[w] + j0, row_im[w]);
        }
    }
}

/** Interleave W spectra into the scratch ahead of the inverse stages. */
template <class V>
void
spectraTransposeIn(const NegacyclicView &t, const double *const *in_re,
                   const double *const *in_im, double *s_re, double *s_im)
{
    constexpr unsigned W = V::kWidth;
    using Vec = typename V::Vec;
    for (unsigned j0 = 0; j0 < t.half; j0 += W) {
        Vec row_re[W], row_im[W];
        for (unsigned w = 0; w < W; ++w) {
            row_re[w] = V::load(in_re[w] + j0);
            row_im[w] = V::load(in_im[w] + j0);
        }
        V::transpose(row_re);
        V::transpose(row_im);
        for (unsigned e = 0; e < W; ++e) {
            V::store(s_re + (j0 + e) * W, row_re[e]);
            V::store(s_im + (j0 + e) * W, row_im[e]);
        }
    }
}

/** Untwist + scale + round the inverse output into W torus polynomials,
 *  fused with the de-interleaving transpose. Rounding goes through the
 *  shared scalar roundToTorus so every tier wraps identically. */
template <class V>
void
untwistRoundOut(const NegacyclicView &t, const double *s_re,
                const double *s_im, Torus32 *const *out)
{
    constexpr unsigned W = V::kWidth;
    using Vec = typename V::Vec;
    const unsigned half = t.half;
    const Vec sc = V::splat(1.0 / static_cast<double>(half));
    for (unsigned j0 = 0; j0 < half; j0 += W) {
        Vec row_re[W], row_im[W];
        for (unsigned e = 0; e < W; ++e) {
            row_re[e] = V::load(s_re + (j0 + e) * W);
            row_im[e] = V::load(s_im + (j0 + e) * W);
        }
        V::transpose(row_re);
        V::transpose(row_im);
        const Vec tr = V::load(t.twistRe + j0);
        const Vec ti = V::load(t.twistIm + j0);
        for (unsigned w = 0; w < W; ++w) {
            const Vec zr = V::mul(row_re[w], sc);
            const Vec zi = V::mul(row_im[w], sc);
            alignas(64) double lo[W], hi[W];
            V::store(lo, V::add(V::mul(zr, tr), V::mul(zi, ti)));
            V::store(hi, V::sub(V::mul(zi, tr), V::mul(zr, ti)));
            for (unsigned e = 0; e < W; ++e) {
                out[w][j0 + e] = roundToTorus(lo[e]);
                out[w][j0 + e + half] = roundToTorus(hi[e]);
            }
        }
    }
}

template <class V>
void
forwardWImpl(const NegacyclicView &t, const std::int32_t *const *in,
             double *const *out_re, double *const *out_im,
             double *s_re, double *s_im)
{
    if constexpr (V::kWidth == 1) {
        // One lane needs no interleaving: run in the output spectrum.
        foldTwistTransposeIn<V>(t, in, out_re[0], out_im[0]);
        forwardStages<V>(t, out_re[0], out_im[0]);
    } else {
        foldTwistTransposeIn<V>(t, in, s_re, s_im);
        forwardStages<V>(t, s_re, s_im);
        transposeOut<V>(t, s_re, s_im, out_re, out_im);
    }
}

template <class V>
void
inverseWImpl(const NegacyclicView &t, const double *const *in_re,
             const double *const *in_im, Torus32 *const *out,
             double *s_re, double *s_im)
{
    spectraTransposeIn<V>(t, in_re, in_im, s_re, s_im);
    inverseStages<V>(t, s_re, s_im);
    untwistRoundOut<V>(t, s_re, s_im, out);
}

template <class V>
void
mulAddImpl(unsigned count, const double *ar, const double *ai,
           const double *br, const double *bi, double *pr, double *pi)
{
    constexpr unsigned W = V::kWidth;
    using Vec = typename V::Vec;
    unsigned i = 0;
    for (; i + W <= count; i += W) {
        const Vec va_r = V::load(ar + i), va_i = V::load(ai + i);
        const Vec vb_r = V::load(br + i), vb_i = V::load(bi + i);
        V::store(pr + i,
                 V::add(V::load(pr + i),
                        V::sub(V::mul(va_r, vb_r), V::mul(va_i, vb_i))));
        V::store(pi + i,
                 V::add(V::load(pi + i),
                        V::add(V::mul(va_r, vb_i), V::mul(va_i, vb_r))));
    }
    for (; i < count; ++i) {
        pr[i] += ar[i] * br[i] - ai[i] * bi[i];
        pi[i] += ar[i] * bi[i] + ai[i] * br[i];
    }
}

template <class V>
void
addImpl(unsigned count, const double *ar, const double *ai, double *pr,
        double *pi)
{
    constexpr unsigned W = V::kWidth;
    unsigned i = 0;
    for (; i + W <= count; i += W) {
        V::store(pr + i, V::add(V::load(pr + i), V::load(ar + i)));
        V::store(pi + i, V::add(V::load(pi + i), V::load(ai + i)));
    }
    for (; i < count; ++i) {
        pr[i] += ar[i];
        pi[i] += ai[i];
    }
}

/** Assemble one tier's kernel table from a traits type. */
template <class V>
BatchKernels
makeBatchKernels(const char *name)
{
    BatchKernels k;
    k.width = V::kWidth;
    k.name = name;
    k.forwardW = &forwardWImpl<V>;
    k.inverseW = &inverseWImpl<V>;
    k.mulAdd = &mulAddImpl<V>;
    k.add = &addImpl<V>;
    return k;
}

} // namespace morphling::tfhe::detail

#endif // MORPHLING_TFHE_FFT_KERNELS_IMPL_H
