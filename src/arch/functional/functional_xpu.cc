#include "functional_xpu.h"

#include "common/logging.h"

namespace morphling::arch::functional {

using tfhe::FourierPolynomial;
using tfhe::GgswCiphertext;
using tfhe::GlweCiphertext;
using tfhe::IntPolynomial;
using tfhe::TorusPolynomial;

FunctionalXpu::FunctionalXpu(const tfhe::TfheParams &params,
                             unsigned rows, unsigned cols)
    : params_(params), rows_(rows), cols_(cols),
      rotator_(params.polyDegree, 8), msFft_(params.polyDegree)
{
    fatal_if(cols_ < params.glweDimension + 1,
             "functional XPU needs at least k+1 = ",
             params.glweDimension + 1, " VPE columns, has ", cols_);
    vpes_.resize(rows_);
    for (auto &row : vpes_) {
        row.reserve(cols_);
        for (unsigned c = 0; c < cols_; ++c)
            row.emplace_back(params.polyDegree);
    }
}

void
FunctionalXpu::loadBootstrapKey(const std::vector<GgswCiphertext> &bsk)
{
    const unsigned n_poly = params_.polyDegree;
    const unsigned kp1 = params_.glweDimension + 1;
    const unsigned rows = kp1 * params_.bskLevels;

    bsk_.clear();
    bsk_.resize(bsk.size());
    for (std::size_t i = 0; i < bsk.size(); ++i) {
        panic_if(bsk[i].numRows() != rows, "GGSW shape mismatch");
        auto &dst = bsk_[i];
        dst.assign(rows, std::vector<FourierPolynomial>());
        for (unsigned r = 0; r < rows; ++r)
            dst[r].assign(kp1, FourierPolynomial(n_poly));

        // Merge-split transform: two polynomials per FFT pass, walking
        // the GGSW matrix in row-major order.
        const TorusPolynomial *pending = nullptr;
        FourierPolynomial *pending_out = nullptr;
        for (unsigned r = 0; r < rows; ++r) {
            for (unsigned c = 0; c < kp1; ++c) {
                const TorusPolynomial &poly =
                    bsk[i].row(r).component(c);
                if (pending == nullptr) {
                    pending = &poly;
                    pending_out = &dst[r][c];
                } else {
                    msFft_.forwardPair(*pending, poly, *pending_out,
                                       dst[r][c]);
                    ++stats_.fftPasses;
                    pending = nullptr;
                }
            }
        }
        if (pending != nullptr) {
            // Odd count: pair the last polynomial with zero.
            TorusPolynomial zero(n_poly);
            FourierPolynomial sink(n_poly);
            msFft_.forwardPair(*pending, zero, *pending_out, sink);
            ++stats_.fftPasses;
        }
    }
}

void
FunctionalXpu::externalProductStep(GlweCiphertext &acc,
                                   unsigned iteration, unsigned a_tilde,
                                   unsigned row)
{
    const unsigned n_poly = params_.polyDegree;
    const unsigned kp1 = params_.glweDimension + 1;
    const unsigned levels = params_.bskLevels;

    // 1. Double-pointer rotation + subtraction (ptrB - ptrA streams).
    std::vector<TorusPolynomial> diff;
    diff.reserve(kp1);
    for (unsigned c = 0; c < kp1; ++c) {
        TorusPolynomial rotated =
            rotator_.rotate(acc.component(c), a_tilde);
        rotated.subAssign(acc.component(c));
        diff.push_back(std::move(rotated));
        ++stats_.rotations;
    }

    // 2. Decomposition units: (k+1) polynomials -> (k+1)*l_b digits.
    const tfhe::GadgetPlan plan =
        tfhe::makeGadgetPlan(params_.bskBaseBits, levels);
    std::vector<IntPolynomial> digits(
        static_cast<std::size_t>(kp1) * levels, IntPolynomial(n_poly));
    for (unsigned c = 0; c < kp1; ++c)
        tfhe::gadgetDecomposePlannedInto(diff[c], plan,
                                         digits.data() + c * levels);

    // 3. Merge-split forward FFT: two digit polynomials per pass.
    std::vector<FourierPolynomial> digits_f(
        digits.size(), FourierPolynomial(n_poly));
    for (std::size_t d = 0; d + 1 < digits.size(); d += 2) {
        msFft_.forwardPair(digits[d], digits[d + 1], digits_f[d],
                           digits_f[d + 1]);
        ++stats_.fftPasses;
    }
    if (digits.size() % 2 == 1) {
        IntPolynomial zero(n_poly);
        FourierPolynomial sink(n_poly);
        msFft_.forwardPair(digits.back(), zero, digits_f.back(), sink);
        ++stats_.fftPasses;
    }

    // 4. VPE array, ACC-output stationary: the streamed digit spectra
    // flow along the row; each column's VPE holds one output
    // component's partial sum in POLY-ACC-REG.
    auto &row_vpes = vpes_[row];
    for (unsigned c = 0; c < kp1; ++c)
        row_vpes[c].clearAccumulator();
    const auto &bsk_i = bsk_[iteration];
    for (std::size_t r = 0; r < digits_f.size(); ++r) {
        for (unsigned c = 0; c < kp1; ++c)
            row_vpes[c].multiplyAccumulate(digits_f[r], bsk_i[r][c]);
    }
    // 5. Per-row IFFT, merge-split: two output components per pass,
    // then the CMux addition back into the in-place accumulator.
    std::vector<TorusPolynomial> results(
        kp1, TorusPolynomial(n_poly));
    for (unsigned c = 0; c + 1 < kp1; c += 2) {
        msFft_.inversePair(row_vpes[c].retireForIfft(),
                           row_vpes[c + 1].retireForIfft(), results[c],
                           results[c + 1]);
        ++stats_.ifftPasses;
    }
    if (kp1 % 2 == 1) {
        FourierPolynomial zero(n_poly);
        TorusPolynomial sink(n_poly);
        msFft_.inversePair(vpes_[row][kp1 - 1].retireForIfft(), zero,
                           results[kp1 - 1], sink);
        ++stats_.ifftPasses;
    }
    for (unsigned c = 0; c < kp1; ++c)
        acc.component(c).addAssign(results[c]);
}

GlweCiphertext
FunctionalXpu::runBlindRotate(const TorusPolynomial &test_poly,
                              const std::vector<std::uint32_t> &switched)
{
    std::vector<std::vector<std::uint32_t>> batch = {switched};
    return std::move(runBlindRotateBatch(test_poly, batch).front());
}

std::vector<GlweCiphertext>
FunctionalXpu::runBlindRotateBatch(
    const TorusPolynomial &test_poly,
    const std::vector<std::vector<std::uint32_t>> &switched_batch)
{
    panic_if(bsk_.empty(), "no bootstrapping key loaded");
    panic_if(switched_batch.empty() || switched_batch.size() > rows_,
             "batch must fill 1..rows VPE rows");
    const unsigned n = static_cast<unsigned>(bsk_.size());
    const unsigned two_n = 2 * params_.polyDegree;

    // Initialize every row's accumulator: X^{-b~} * (0,..,0,TP),
    // realized through the double-pointer rotator.
    std::vector<GlweCiphertext> accs;
    accs.reserve(switched_batch.size());
    for (const auto &switched : switched_batch) {
        panic_if(switched.size() != n + 1,
                 "mod-switched ciphertext has wrong length");
        GlweCiphertext acc = GlweCiphertext::trivial(
            params_.glweDimension, test_poly);
        const unsigned b_tilde = switched[n] % two_n;
        if (b_tilde != 0) {
            for (unsigned c = 0; c <= params_.glweDimension; ++c) {
                acc.component(c) = rotator_.rotate(
                    acc.component(c), two_n - b_tilde);
            }
            ++stats_.rotations;
        }
        accs.push_back(std::move(acc));
    }

    // n iterations; each streamed BSK_i serves every active row.
    for (unsigned i = 0; i < n; ++i) {
        bool any_active = false;
        for (std::size_t row = 0; row < accs.size(); ++row) {
            const unsigned a_tilde =
                switched_batch[row][i] % two_n;
            if (a_tilde == 0)
                continue; // X^0: CMux output equals its input
            externalProductStep(accs[row], i, a_tilde,
                                static_cast<unsigned>(row));
            any_active = true;
        }
        if (any_active)
            ++stats_.iterations;
    }
    return accs;
}

XpuDatapathStats
FunctionalXpu::stats() const
{
    XpuDatapathStats out = stats_;
    for (const auto &row : vpes_) {
        for (const auto &vpe : row)
            out.vpeMacOps += vpe.macOps();
    }
    return out;
}

std::vector<GgswCiphertext>
generateRawBsk(const tfhe::LweKey &lwe_key, const tfhe::GlweKey &glwe_key,
               Rng &rng)
{
    std::vector<GgswCiphertext> bsk;
    bsk.reserve(lwe_key.dimension());
    for (unsigned i = 0; i < lwe_key.dimension(); ++i) {
        bsk.push_back(GgswCiphertext::encrypt(
            glwe_key, lwe_key.bits()[i],
            glwe_key.params().glweNoiseStd, rng));
    }
    return bsk;
}

} // namespace morphling::arch::functional
