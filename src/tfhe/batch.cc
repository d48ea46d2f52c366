#include "batch.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/logging.h"
#include "tfhe/noise.h"

namespace morphling::tfhe {

namespace {

/** Largest group of ciphertexts one worker blind-rotates together:
 *  the paper's group of 16 LWEs sharing one BSK stream, and the chunk
 *  of a compiled Program (compiler::kGroupSize). */
constexpr std::size_t kMaxGroup = 16;

std::vector<LweCiphertext>
runBatch(const BootstrapKey &bsk, const KeySwitchKey &ksk,
         const TorusPolynomial &test_poly,
         const std::vector<LweCiphertext> &inputs,
         const BatchOptions &opts)
{
    unsigned threads = opts.threads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    threads = std::min<unsigned>(
        threads, std::max<std::size_t>(1, inputs.size()));

    // Contiguous groups of up to kMaxGroup; a short batch is split so
    // that every worker still gets a group.
    const std::size_t group = std::clamp<std::size_t>(
        (inputs.size() + threads - 1) / threads, 1, kMaxGroup);

    std::vector<LweCiphertext> out(inputs.size());
    // Work stealing over an atomic group index: groups are uniform in
    // cost, so a simple counter balances well. Each worker reuses its
    // own group buffers and its thread's workspace across groups.
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        std::vector<std::vector<std::uint32_t>> switched(group);
        std::vector<GlweCiphertext> accs(group);
        auto &ws = BootstrapWorkspace::forThisThread();
        for (;;) {
            const std::size_t begin =
                next.fetch_add(group, std::memory_order_relaxed);
            if (begin >= inputs.size())
                return;
            const std::size_t count =
                std::min(group, inputs.size() - begin);
            bootstrapGroup(bsk, ksk, test_poly, {&inputs[begin], count},
                           {&out[begin], count}, switched, accs, ws);
        }
    };

    if (threads == 1) {
        worker();
        return out;
    }
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    return out;
}

} // namespace

void
auditBatchLut(const TfheParams &params, const std::vector<Torus32> &lut,
              const BatchOptions &opts)
{
    if (!opts.checkNoise || lut.empty())
        return;
    const NoiseModel model(params);
    // The input-side error that must stay inside half a LUT slot is the
    // fresh ciphertext noise plus the mod-switch rounding; a refreshed
    // input is the common case, so audit the refreshed level.
    const double input_variance =
        model.bootstrapOutputVariance() + model.modSwitchVariance();
    const double sigmas = model.slotSigmas(
        static_cast<std::uint32_t>(lut.size()), input_variance);
    if (sigmas < opts.minSlotSigmas) {
        warn("batch LUT over ", lut.size(), " messages has only ",
             sigmas, " sigmas of noise margin (want >= ",
             opts.minSlotSigmas, "); expect decode failures");
    }
}

std::vector<LweCiphertext>
batchBootstrap(const EvaluationKeys &keys,
               const std::vector<LweCiphertext> &inputs,
               const std::vector<Torus32> &lut, const BatchOptions &opts)
{
    auditBatchLut(keys.params, lut, opts);
    TorusPolynomial tp;
    buildTestPolynomialInto(keys.params.polyDegree, lut, tp);
    return runBatch(keys.bsk, keys.ksk, tp, inputs, opts);
}

std::vector<LweCiphertext>
batchSignBootstrap(const EvaluationKeys &keys,
                   const std::vector<LweCiphertext> &inputs, Torus32 mu,
                   const BatchOptions &opts)
{
    return runBatch(keys.bsk, keys.ksk,
                    constantTestPolynomial(keys.params.polyDegree, mu),
                    inputs, opts);
}

} // namespace morphling::tfhe
