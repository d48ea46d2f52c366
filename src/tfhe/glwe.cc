#include "glwe.h"

#include "common/logging.h"
#include "tfhe/fft.h"

namespace morphling::tfhe {

GlweKey::GlweKey(const TfheParams &params,
                 std::vector<IntPolynomial> polys)
    : params_(&params), polys_(std::move(polys))
{
    panic_if(polys_.size() != params.glweDimension,
             "GLWE key needs k polynomials");
}

GlweKey
GlweKey::generate(const TfheParams &params, Rng &rng)
{
    std::vector<IntPolynomial> polys;
    polys.reserve(params.glweDimension);
    for (unsigned i = 0; i < params.glweDimension; ++i) {
        IntPolynomial p(params.polyDegree);
        for (unsigned j = 0; j < params.polyDegree; ++j)
            p[j] = rng.nextBit() ? 1 : 0;
        polys.push_back(std::move(p));
    }
    return GlweKey(params, std::move(polys));
}

LweKey
GlweKey::extractLweKey() const
{
    std::vector<std::int32_t> bits;
    bits.reserve(static_cast<std::size_t>(dimension()) *
                 params().polyDegree);
    for (unsigned i = 0; i < dimension(); ++i) {
        for (unsigned j = 0; j < params().polyDegree; ++j)
            bits.push_back(polys_[i][j]);
    }
    return LweKey(params(), std::move(bits));
}

GlweCiphertext::GlweCiphertext(unsigned glwe_dimension,
                               unsigned poly_degree)
    : polys_(glwe_dimension + 1, TorusPolynomial(poly_degree))
{
}

GlweCiphertext
GlweCiphertext::trivial(unsigned glwe_dimension, TorusPolynomial message)
{
    GlweCiphertext ct(glwe_dimension, message.degree());
    ct.body() = std::move(message);
    return ct;
}

namespace {

/**
 * sum_i A_i * S_i mod X^N + 1 over the k mask/key pairs: the 2k
 * forward transforms run as one batched call, each product is
 * inverted on its own (k inverses, one batched call) and the rounded
 * products are summed on the torus.
 */
TorusPolynomial
maskKeyProduct(const GlweKey &key, const GlweCiphertext &ct)
{
    const unsigned k = key.dimension();
    const unsigned n = ct.polyDegree();
    const BatchFft &fft = BatchFft::forDegree(n);

    std::vector<const std::int32_t *> in(2 * k);
    std::vector<FourierPolynomial> spectra(2 * k, FourierPolynomial(n));
    std::vector<FourierPolynomial *> spectraP(2 * k);
    for (unsigned i = 0; i < k; ++i) {
        // Torus coefficients read as signed 32-bit integers.
        in[2 * i] = reinterpret_cast<const std::int32_t *>(
            ct.component(i).data());
        in[2 * i + 1] = key.poly(i).data();
    }
    for (unsigned j = 0; j < 2 * k; ++j)
        spectraP[j] = &spectra[j];
    fft.forward(in.data(), spectraP.data(), 2 * k);

    std::vector<FourierPolynomial> prodF(k, FourierPolynomial(n));
    std::vector<TorusPolynomial> prods(k, TorusPolynomial(n));
    std::vector<const FourierPolynomial *> prodFP(k);
    std::vector<TorusPolynomial *> prodsP(k);
    for (unsigned i = 0; i < k; ++i) {
        prodF[i].mulAddAssign(spectra[2 * i + 1], spectra[2 * i]);
        prodFP[i] = &prodF[i];
        prodsP[i] = &prods[i];
    }
    fft.inverseInPlace(prodFP.data(), prodsP.data(), k);

    TorusPolynomial sum(n);
    for (const auto &p : prods)
        sum.addAssign(p);
    return sum;
}

} // namespace

GlweCiphertext
GlweCiphertext::encrypt(const GlweKey &key, const TorusPolynomial &message,
                        double stddev, Rng &rng)
{
    const auto &params = key.params();
    const unsigned n = params.polyDegree;
    panic_if(message.degree() != n, "message degree mismatch");

    GlweCiphertext ct(key.dimension(), n);
    // Body = message + noise + sum_i A_i * S_i; the mask products go
    // through the FFT path (exact for binary keys: products of 0/1 by
    // torus).
    for (unsigned j = 0; j < n; ++j)
        ct.body()[j] = message[j] + gaussianTorus32(rng, stddev);
    for (unsigned i = 0; i < key.dimension(); ++i) {
        auto &mask = ct.component(i);
        for (unsigned j = 0; j < n; ++j)
            mask[j] = rng.nextU32();
    }
    ct.body().addAssign(maskKeyProduct(key, ct));
    return ct;
}

TorusPolynomial
GlweCiphertext::phase(const GlweKey &key) const
{
    panic_if(key.dimension() != dimension(), "key dimension mismatch");
    TorusPolynomial result = body();
    result.subAssign(maskKeyProduct(key, *this));
    return result;
}

void
GlweCiphertext::addAssign(const GlweCiphertext &other)
{
    panic_if(polys_.size() != other.polys_.size(),
             "dimension mismatch in GLWE add");
    for (std::size_t i = 0; i < polys_.size(); ++i)
        polys_[i].addAssign(other.polys_[i]);
}

void
GlweCiphertext::subAssign(const GlweCiphertext &other)
{
    panic_if(polys_.size() != other.polys_.size(),
             "dimension mismatch in GLWE sub");
    for (std::size_t i = 0; i < polys_.size(); ++i)
        polys_[i].subAssign(other.polys_[i]);
}

GlweCiphertext
GlweCiphertext::mulByXPower(unsigned power) const
{
    GlweCiphertext out(dimension(), polyDegree());
    for (std::size_t i = 0; i < polys_.size(); ++i)
        polys_[i].mulByXPowerInto(power, out.polys_[i]);
    return out;
}

void
GlweCiphertext::mulByXPowerInPlace(unsigned power,
                                   TorusPolynomial &scratch)
{
    for (auto &poly : polys_)
        poly.mulByXPowerInPlace(power, scratch);
}

void
GlweCiphertext::sampleExtractAtInto(unsigned index,
                                    LweCiphertext &out) const
{
    const unsigned n = polyDegree();
    const unsigned k = dimension();
    panic_if(index >= n, "extraction index out of range");

    if (out.raw().size() != static_cast<std::size_t>(k) * n + 1)
        out.raw().resize(static_cast<std::size_t>(k) * n + 1);
    // Coefficient `t` of A_i * S_i mod X^N + 1 is
    //   sum_{j <= t} A_i[t-j] S_i[j] - sum_{j > t} A_i[N+t-j] S_i[j],
    // so the mask aligned with key bit S_i[j] is A_i[t-j] for j <= t
    // and -A_i[N+t-j] above.
    for (unsigned i = 0; i < k; ++i) {
        const auto &mask = component(i);
        for (unsigned j = 0; j < n; ++j) {
            out.mask(i * n + j) =
                j <= index ? mask[index - j]
                           : (0 - mask[n + index - j]);
        }
    }
    out.body() = body()[index];
}

} // namespace morphling::tfhe
