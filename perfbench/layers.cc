/**
 * @file
 * The traced layer replay: drives a sample of the workloads' own
 * inputs top-down through public entry points (client encode ->
 * compiler -> exec -> tfhe bootstrap stages -> kernels, then circuit
 * lowering, the sharded circuit executor and the remote wire), timing
 * each call from here. Every call is recorded as a span under the
 * layer above; each parent entry point is also compared with the sum
 * of its replayed children, and the difference is printed as that
 * parent's unattributed remainder. Nothing inside the library is
 * instrumented.
 */

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <optional>

#include "circuit/circuit.h"
#include "circuit/lowering.h"
#include "common/rng.h"
#include "compiler/sw_scheduler.h"
#include "exec/circuit_executor.h"
#include "exec/functional_backend.h"
#include "exec/remote_backend.h"
#include "exec/remote_server.h"
#include "exec/sharded_backend.h"
#include "tfhe/batch.h"
#include "tfhe/bootstrap.h"
#include "tfhe/encoding.h"
#include "tfhe/fft.h"
#include "tfhe/ggsw.h"
#include "tfhe/serialize.h"
#include "tfhe/workspace.h"
#include "workloads.h"

namespace perfbench {

using namespace morphling;

namespace {

/**
 * Pins the calling thread to the core it is running on, and restores
 * its affinity on destruction. Parent/child comparisons of one
 * thread's timings (superbatch vs stages, entry point vs kernels) must
 * not migrate between cores, which on a shared host can differ in
 * speed by half. Threads started while pinned inherit the pin, so no
 * multi-threaded call runs under one.
 */
class PinToCurrentCpu
{
  public:
    PinToCurrentCpu()
    {
        const int cpu = sched_getcpu();
        if (cpu < 0 || pthread_getaffinity_np(pthread_self(), sizeof(saved_),
                                              &saved_) != 0)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned_ =
            pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
    }

    ~PinToCurrentCpu()
    {
        if (pinned_)
            pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }

    PinToCurrentCpu(const PinToCurrentCpu &) = delete;
    PinToCurrentCpu &operator=(const PinToCurrentCpu &) = delete;

  private:
    cpu_set_t saved_{};
    bool pinned_ = false;
};

/** Median per-call times of one bootstrap's four stages. */
struct StageTimes
{
    double modSwitchUs = 0;
    double blindRotateMs = 0;
    double extractUs = 0;
    double keySwitchMs = 0;
    double bootstrapMs = 0; //!< the public bootstrapInto entry point
    tfhe::GlweCiphertext acc; //!< a rotated accumulator, for the kernels

    double stageSumMs() const
    {
        return modSwitchUs / 1e3 + blindRotateMs + extractUs / 1e3 +
               keySwitchMs;
    }
};

/**
 * Run each input through the four stages one call at a time (workspace
 * forms), then through bootstrapInto, and check the two agree bit for
 * bit and decrypt to lut[m].
 */
StageTimes
replayStages(const tfhe::KeySet &keys, const tfhe::EvaluationKeys &eval,
             const std::vector<tfhe::LweCiphertext> &inputs,
             const std::vector<std::uint32_t> &messages,
             SpanRecorder *spans, std::int64_t parent, Verdict &verdict)
{
    const unsigned n = keys.params.polyDegree;
    tfhe::BootstrapWorkspace ws;
    tfhe::TorusPolynomial test_poly;
    tfhe::buildTestPolynomialInto(n, pbsLut(), test_poly);
    tfhe::LweCiphertext staged, whole;
    tfhe::bootstrapInto(eval.bsk, eval.ksk, test_poly, inputs[0], whole,
                        ws); // warm the workspace and FFT tables

    std::vector<double> ms_us, br_ms, se_us, ks_ms, bs_ms;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        Clock::time_point t;
        {
            ScopedSpan boot(spans, "tfhe.bootstrap", parent,
                            static_cast<std::int64_t>(i));
            t = Clock::now();
            {
                ScopedSpan s(spans, "tfhe.mod_switch", boot.id());
                tfhe::modSwitchInto(inputs[i], n, ws.switched);
            }
            ms_us.push_back(msSince(t) * 1e3);
            t = Clock::now();
            {
                ScopedSpan s(spans, "tfhe.blind_rotate", boot.id());
                tfhe::blindRotate(eval.bsk, test_poly, ws.switched, ws.acc, ws);
            }
            br_ms.push_back(msSince(t));
            t = Clock::now();
            {
                ScopedSpan s(spans, "tfhe.sample_extract", boot.id());
                ws.acc.sampleExtractAtInto(0, ws.extracted);
            }
            se_us.push_back(msSince(t) * 1e3);
            t = Clock::now();
            {
                ScopedSpan s(spans, "tfhe.key_switch", boot.id());
                eval.ksk.applyInto(ws.extracted, staged);
            }
            ks_ms.push_back(msSince(t));
        }

        t = Clock::now();
        {
            ScopedSpan s(spans, "tfhe.bootstrapInto", parent,
                         static_cast<std::int64_t>(i));
            tfhe::bootstrapInto(eval.bsk, eval.ksk, test_poly, inputs[i],
                                whole, ws);
        }
        bs_ms.push_back(msSince(t));

        ++verdict.sent;
        if (staged.raw() != whole.raw() ||
            tfhe::decryptPadded(keys, whole, kMessageSpace) !=
                (messages[i] + 1) % kMessageSpace)
            ++verdict.wrong;
        else
            ++verdict.succeeded;
    }
    StageTimes st;
    st.modSwitchUs = median(ms_us);
    st.blindRotateMs = median(br_ms);
    st.extractUs = median(se_us);
    st.keySwitchMs = median(ks_ms);
    st.bootstrapMs = median(bs_ms);
    tfhe::modSwitchInto(inputs[0], n, ws.switched);
    tfhe::blindRotate(eval.bsk, test_poly, ws.switched, ws.acc, ws);
    st.acc = ws.acc;
    return st;
}

/** Median microseconds of `fn` over `reps` calls, each under a span. */
template <class Fn>
double
timedUs(SpanRecorder *spans, const char *name, std::int64_t parent,
        unsigned reps, Fn &&fn)
{
    fn();
    std::vector<double> us;
    for (unsigned i = 0; i < reps; ++i) {
        ScopedSpan s(spans, name, parent);
        const auto t = Clock::now();
        fn();
        us.push_back(msSince(t) * 1e3);
    }
    return median(std::move(us));
}

/**
 * The external-product kernels at set I: decomposition, forward FFT,
 * Fourier MAC and inverse FFT, each replayed on a real rotated
 * accumulator, at the CMux batch width and at 8 lanes.
 */
void
replayKernels(const tfhe::EvaluationKeys &eval,
              const tfhe::GlweCiphertext &acc, double blind_rotate_ms,
              SpanRecorder *spans, std::int64_t parent, Metrics &layer)
{
    constexpr unsigned kReps = 200;
    constexpr unsigned kLanes = 8;
    const tfhe::TfheParams &p = eval.params;
    const unsigned k = p.glweDimension, n = p.polyDegree, l = p.bskLevels;
    const unsigned fwd = (k + 1) * l, inv = k + 1;
    const tfhe::FourierGgsw &ggsw = eval.bsk.entry(0);
    const tfhe::BatchFft &fft = tfhe::BatchFft::forDegree(n);
    tfhe::BootstrapWorkspace ws;
    ws.ensure(k, n, l, p.bskBaseBits);

    // The inverse destroys its input spectra: refill them untimed.
    const auto timeInverse = [&](unsigned count, const char *name,
                                 std::int64_t span_parent) {
        std::vector<tfhe::FourierPolynomial> spectra(count);
        std::vector<tfhe::TorusPolynomial> outs(count,
                                                tfhe::TorusPolynomial(n));
        std::vector<tfhe::FourierPolynomial *> in_ptrs(count);
        std::vector<tfhe::TorusPolynomial *> out_ptrs(count);
        std::vector<double> us;
        for (unsigned rep = 0; rep <= kReps; ++rep) {
            for (unsigned i = 0; i < count; ++i) {
                spectra[i] = ws.accF[i % inv];
                in_ptrs[i] = &spectra[i];
                out_ptrs[i] = &outs[i];
            }
            ScopedSpan s(rep ? spans : nullptr, name, span_parent);
            const auto t = Clock::now();
            fft.inverseInPlace(in_ptrs.data(), out_ptrs.data(), count);
            if (rep)
                us.push_back(msSince(t) * 1e3);
        }
        return median(std::move(us));
    };

    // The four kernels of one external product, under one parent span.
    double decompose_us = 0, fwd_us = 0, mac_us = 0, inv_us = 0;
    {
        ScopedSpan ext(spans, "tfhe.ext_product.kernels", parent);
        decompose_us =
            timedUs(spans, "tfhe.decompose", ext.id(), kReps, [&] {
                for (unsigned u = 0; u <= k; ++u)
                    tfhe::gadgetDecomposePlannedInto(acc.component(u), ws.plan,
                                                     ws.digits.data() + u * l);
            });
        fwd_us = timedUs(spans, "tfhe.fft_fwd", ext.id(), kReps, [&] {
            fft.forward(ws.batchDigits.data(), ws.batchDigitsF.data(), fwd);
        });
        mac_us = timedUs(spans, "tfhe.mac", ext.id(), kReps, [&] {
            for (unsigned c = 0; c <= k; ++c) {
                ws.accF[c].clear();
                for (unsigned r = 0; r < fwd; ++r)
                    ws.accF[c].mulAddAssign(ws.digitsF[r], ggsw.at(r, c));
            }
        });
        inv_us = timeInverse(inv, "tfhe.fft_inv", ext.id());
    }

    // 8-lane forms, outside the external-product parent.
    std::vector<const tfhe::IntPolynomial *> in8(kLanes);
    std::vector<tfhe::FourierPolynomial> out8(kLanes,
                                              tfhe::FourierPolynomial(n));
    std::vector<tfhe::FourierPolynomial *> out8_ptrs(kLanes);
    for (unsigned i = 0; i < kLanes; ++i) {
        in8[i] = &ws.digits[i % fwd];
        out8_ptrs[i] = &out8[i];
    }
    const double fwd8_us =
        timedUs(spans, "tfhe.fft_fwd8", parent, kReps,
                [&] { fft.forward(in8.data(), out8_ptrs.data(), kLanes); });
    const double inv8_us = timeInverse(kLanes, "tfhe.fft_inv8", parent);

    tfhe::GlweCiphertext result(k, n);
    const double ext_us =
        timedUs(spans, "tfhe.externalProductFourier", parent, kReps, [&] {
            tfhe::externalProductFourier(ggsw, acc, result, ws);
        });

    const double kernel_sum = decompose_us + fwd_us + mac_us + inv_us;
    layer.set("tfhe.decompose_us", decompose_us, "us");
    layer.set("tfhe.fft_fwd_us", fwd_us / fwd, "us");
    layer.set("tfhe.fft_inv_us", inv_us / inv, "us");
    layer.set("tfhe.fft_fwd8_us", fwd8_us / kLanes, "us");
    layer.set("tfhe.fft_inv8_us", inv8_us / kLanes, "us");
    layer.set("tfhe.mac_us", mac_us, "us");
    layer.set("tfhe.ext_product_us", ext_us, "us");
    layer.set("tfhe.ext_product_unattributed_us", ext_us - kernel_sum, "us");
    // Counts computed from the parameters (not measured).
    const double ffts = static_cast<double>(p.lweDimension) * (fwd + inv);
    layer.set("tfhe.ffts_per_bs", ffts, "count");
    layer.set("tfhe.bsk_bytes_per_bs",
              static_cast<double>(p.bskTransformBytes()), "B");
    const double br_unattributed_ms =
        blind_rotate_ms - p.lweDimension * ext_us / 1e3;
    layer.set("tfhe.blind_rotate_unattributed_ms", br_unattributed_ms, "ms");

    std::cout << std::fixed << std::setprecision(2)
              << "  external product (set I, one CMux): "
              << "decompose " << decompose_us << " us + forward FFT x" << fwd
              << " " << fwd_us << " us + MAC " << mac_us
              << " us + inverse FFT x" << inv << " " << inv_us
              << " us = " << kernel_sum << " us of "
              << ext_us << " us; unattributed " << ext_us - kernel_sum
              << " us\n"
              << "  FFT per polynomial: forward " << fwd_us / fwd
              << " us at " << fwd << " lanes, " << fwd8_us / kLanes
              << " us at 8; inverse " << inv_us / inv << " us at " << inv
              << " lanes, " << inv8_us / kLanes << " us at 8\n"
              << "  blind rotation: " << blind_rotate_ms << " ms = "
              << p.lweDimension << " x " << ext_us
              << " us external products + " << br_unattributed_ms
              << " ms unattributed (rotation, accumulate, loop)\n"
              << "  computed: " << ffts << " FFTs and "
              << p.bskTransformBytes() << " BSK bytes per bootstrap\n";
    std::cout.unsetf(std::ios::fixed);
    std::cout.precision(6);
}

void
setStages(Metrics &layer, const StageTimes &st, const std::string &suffix)
{
    layer.set("tfhe.mod_switch_us." + suffix, st.modSwitchUs, "us");
    layer.set("tfhe.blind_rotate_ms." + suffix, st.blindRotateMs, "ms");
    layer.set("tfhe.sample_extract_us." + suffix, st.extractUs, "us");
    layer.set("tfhe.key_switch_ms." + suffix, st.keySwitchMs, "ms");
    layer.set("tfhe.bootstrap_ms." + suffix, st.bootstrapMs, "ms");
    std::cout << std::fixed << std::setprecision(3) << "  bootstrap stages ("
              << suffix << "): mod_switch " << st.modSwitchUs
              << " us, blind_rotate " << st.blindRotateMs
              << " ms, sample_extract " << st.extractUs << " us, key_switch "
              << st.keySwitchMs << " ms; sum " << st.stageSumMs()
              << " ms vs bootstrapInto " << st.bootstrapMs
              << " ms, unattributed " << st.bootstrapMs - st.stageSumMs()
              << " ms\n";
    std::cout.unsetf(std::ios::fixed);
    std::cout.precision(6);
}

/** The wire: RemoteBackend against an in-process loopback server. */
void
replayWire(const tfhe::KeySet &keys, const tfhe::EvaluationKeys &eval,
           SpanRecorder *spans, std::int64_t parent, Metrics &layer,
           Verdict &verdict)
{
    ScopedSpan wire(spans, "wire", parent);
    exec::RemoteServerConfig server_config;
    exec::RemoteServer server(server_config);
    server.start();
    exec::RemoteClientConfig client;
    client.port = server.port();
    exec::RemoteBackend remote(eval, client);
    exec::FunctionalBackend local(eval);
    const auto lut = pbsLut();
    const compiler::SwScheduler sched(eval.params);

    Rng rng(0x77697265);
    for (const unsigned count : {1u, 64u}) {
        std::vector<tfhe::LweCiphertext> inputs;
        std::vector<std::uint32_t> messages;
        for (unsigned i = 0; i < count; ++i) {
            messages.push_back(static_cast<std::uint32_t>(i % kMessageSpace));
            inputs.push_back(
                tfhe::encryptPadded(keys, messages.back(), kMessageSpace, rng));
        }
        const auto program = sched.scheduleBootstrapBatch(count);
        const auto job = exec::Job::batch(inputs, lut);
        const unsigned reps = count == 1 ? 40 : 5;
        const std::string tag = std::to_string(count);
        exec::ExecutionResult out;
        const double local_us =
            timedUs(spans, ("wire.local." + tag).c_str(), wire.id(), reps,
                    [&] { out = local.run(program, job); });
        const auto before = server.stats();
        const double remote_us =
            timedUs(spans, ("wire.remote." + tag).c_str(), wire.id(), reps,
                    [&] { out = remote.run(program, job); });
        const auto after = server.stats();
        for (unsigned i = 0; i < count; ++i) {
            ++verdict.sent;
            if (i < out.outputs.size() &&
                tfhe::decryptPadded(keys, out.outputs[i], kMessageSpace) ==
                    (messages[i] + 1) % kMessageSpace)
                ++verdict.succeeded;
            else
                ++verdict.wrong;
        }
        layer.set("wire.overhead_" + tag, remote_us / local_us, "x");
        if (count == 1) {
            const double requests =
                static_cast<double>(after.requests - before.requests);
            layer.set("wire.connects_per_batch",
                      requests > 0 ? static_cast<double>(after.connections -
                                                         before.connections) /
                                         requests
                                   : 0.0,
                      "count");
            layer.set("wire.bytes_per_request",
                      static_cast<double>(remote.lastBytesSent() +
                                          remote.lastBytesReceived()),
                      "B");
        }
        std::cout << "  wire (TEST, " << count << " LWE): remote "
                  << remote_us / 1e3 << " ms vs local " << local_us / 1e3
                  << " ms = " << remote_us / local_us << "x\n";
    }
    server.stop();
}

/** @{ The replayed circuit: eight fused 8-bit ripple adders (320 gate
 *  bootstraps over 17 levels, about 19 per level). */
constexpr unsigned kAdders = 8;
constexpr unsigned kAdderBits = 8;

circuit::Circuit
adderCircuit()
{
    circuit::Circuit c;
    for (unsigned k = 0; k < kAdders; ++k) {
        std::vector<circuit::Wire> a, b, sum;
        for (unsigned i = 0; i < kAdderBits; ++i)
            a.push_back(c.bitInput());
        for (unsigned i = 0; i < kAdderBits; ++i)
            b.push_back(c.bitInput());
        const auto carry = circuit::buildRippleAdder(c, a, b, sum);
        for (auto w : sum)
            c.markOutput(w);
        c.markOutput(carry);
    }
    return c;
}

std::vector<std::uint32_t>
adderInputBits(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint32_t> bits(2 * kAdders * kAdderBits);
    for (auto &b : bits)
        b = rng.nextBit() ? 1u : 0u;
    return bits;
}

/** @} */

/**
 * circuit -> exec: lower the eight-adder circuit and run it level by
 * level on the sharded backend; the level walls against the
 * single-bootstrap time `bootstrap_ms` give the shards' idle share.
 */
void
replayCircuit(const tfhe::KeySet &keys, const tfhe::EvaluationKeys &eval,
              double bootstrap_ms, std::uint64_t seed, SpanRecorder *spans,
              std::int64_t parent, Metrics &layer, Verdict &verdict)
{
    const circuit::Circuit adders = adderCircuit();
    const compiler::SwScheduler sched(keys.params);
    circuit::LoweredCircuit lowered;
    layer.set("circuit.lower_ms",
              timedUs(spans, "circuit.lower", parent, 20,
                      [&] { lowered = circuit::lower(adders, sched); }) /
                  1e3,
              "ms");
    layer.set("circuit.bootstraps_per_add",
              static_cast<double>(adders.bootstrapCount()) / kAdders, "count");
    layer.set("circuit.depth", static_cast<double>(adders.bootstrapDepth()),
              "count");
    const auto bits = adderInputBits(seed * 4);
    std::vector<tfhe::LweCiphertext> bit_cts;
    Rng rng(seed ^ kEncryptSalt);
    for (const auto b : bits)
        bit_cts.push_back(tfhe::encryptBit(keys, b != 0, rng));
    const unsigned shards = hostThreads();
    auto sharded = exec::ShardedBackend::functional(eval, shards);
    exec::CircuitExecutor executor(keys.params, sharded);
    exec::CircuitResult run;
    {
        ScopedSpan s(spans, "exec.circuit", parent);
        run = executor.run(lowered, bit_cts);
    }
    const auto want = adders.evaluatePlain(bits);
    ++verdict.sent;
    bool ok = run.outputs.size() == want.size();
    for (std::size_t i = 0; ok && i < want.size(); ++i)
        ok = tfhe::decryptBit(keys, run.outputs[i]) == (want[i] != 0);
    ++(ok ? verdict.succeeded : verdict.wrong);
    double level_wall_ms = 0;
    for (const auto &lvl : run.levels)
        level_wall_ms += static_cast<double>(lvl.wallNanos) / 1e6;
    const double levels = std::max<double>(1.0, run.levels.size());
    layer.set("exec.level_ms", level_wall_ms / levels, "ms");
    const double idle =
        1.0 - static_cast<double>(run.totalBootstraps) * bootstrap_ms /
                  (shards * level_wall_ms);
    layer.set("exec.shard_idle_frac", idle, "frac");
    std::cout << "  circuit (" << keys.params.name << ", " << kAdders << " adders, " << shards
              << " shards): " << run.levels.size() << " levels, "
              << level_wall_ms << " ms of level wall, shards idle "
              << idle * 100 << "%\n";
}

} // namespace

void
runLayerReplay(std::uint64_t seed, SpanRecorder *spans, Metrics &layer,
               Verdict &verdict)
{
    ScopedSpan root(spans, "replay");
    constexpr std::size_t kSuperbatch = compiler::kSuperbatchSize;
    constexpr std::size_t kStageSamples = 8;

    // Client: the pbs_burst keys and its first 64 inputs.
    tfhe::KeySet keys;
    {
        ScopedSpan s(spans, "client.keygen", root.id());
        Rng key_rng(seed ^ kKeySalt);
        const auto t = Clock::now();
        keys = tfhe::KeySet::generate(tfhe::paramsSetI(), key_rng);
        layer.set("client.keygen_s", msSince(t) / 1e3, "s");
    }
    const auto messages = pbsMessages(seed, kSuperbatch);
    std::vector<tfhe::LweCiphertext> inputs;
    {
        Rng rng(seed ^ kEncryptSalt);
        std::vector<double> us;
        for (const auto m : messages) {
            ScopedSpan s(spans, "client.encrypt", root.id());
            const auto t = Clock::now();
            inputs.push_back(tfhe::encryptPadded(keys, m, kMessageSpace, rng));
            us.push_back(msSince(t) * 1e3);
        }
        layer.set("client.encrypt_us", median(us), "us");
    }
    const auto eval = tfhe::EvaluationKeys::fromKeySet(keys);
    const auto lut = pbsLut();

    // compiler -> exec: the 64-LWE superbatch, one thread. Everything
    // from here to the kernels compares one thread's timings, so it
    // stays on one core.
    std::optional<PinToCurrentCpu> pin(std::in_place);
    const compiler::SwScheduler sched(keys.params);
    compiler::Program program;
    layer.set("compiler.schedule_ms",
              timedUs(spans, "compiler.schedule", root.id(), 50,
                      [&] { program = sched.scheduleBootstrapBatch(kSuperbatch); }) /
                  1e3,
              "ms");
    layer.set("exec.backend_setup_us",
              timedUs(spans, "exec.makeBackend", root.id(), 20,
                      [&] { (void)exec::makeBackend(eval); }),
              "us");

    // exec -> tfhe stages on a sample of the same inputs. The host's
    // speed drifts within seconds, so each whole-batch timing is
    // bracketed by stage samples taken just before and just after it.
    const std::vector<tfhe::LweCiphertext> sample(
        inputs.begin(), inputs.begin() + kStageSamples);
    const auto stages = [&] {
        ScopedSpan s(spans, "tfhe.stages.I", root.id());
        return replayStages(keys, eval, sample, messages, spans, s.id(),
                            verdict);
    };
    const StageTimes before = stages();

    exec::FunctionalBackend backend(eval);
    exec::ExecutionResult result;
    double superbatch_ms = 0;
    {
        ScopedSpan s(spans, "exec.superbatch", root.id());
        const auto t = Clock::now();
        result = backend.run(program, exec::Job::batch(inputs, lut));
        superbatch_ms = msSince(t);
    }
    for (std::size_t i = 0; i < kSuperbatch; ++i) {
        ++verdict.sent;
        if (i < result.outputs.size() &&
            tfhe::decryptPadded(keys, result.outputs[i], kMessageSpace) ==
                (messages[i] + 1) % kMessageSpace)
            ++verdict.succeeded;
        else
            ++verdict.wrong;
    }
    const StageTimes set1 = stages();
    setStages(layer, set1, "I");
    layer.set("exec.superbatch_ms", superbatch_ms, "ms");
    const double stage_ms = (before.stageSumMs() + set1.stageSumMs()) / 2;
    const double interp = 1.0 - kSuperbatch * stage_ms / superbatch_ms;
    layer.set("exec.interp_overhead_frac", interp, "frac");
    std::cout << "  superbatch (set I, 64 LWEs, 1 thread): "
              << superbatch_ms << " ms = 64 x " << stage_ms
              << " ms of stages + " << interp * 100
              << "% unattributed (Program interpretation)\n";

    // Batching gain of the single-thread batch entry point.
    {
        double per_bs = 0;
        std::vector<tfhe::LweCiphertext> outs;
        {
            ScopedSpan s(spans, "tfhe.batchBootstrap", root.id());
            const auto t = Clock::now();
            outs = tfhe::batchBootstrap(eval, inputs, lut);
            per_bs = msSince(t) / kSuperbatch;
        }
        const StageTimes after = stages();
        layer.set("tfhe.batch64_gain",
                  (set1.bootstrapMs + after.bootstrapMs) / 2 / per_bs, "x");
        for (std::size_t i = 0; i < outs.size(); ++i) {
            ++verdict.sent;
            if (outs[i].raw() == result.outputs[i].raw())
                ++verdict.succeeded;
            else
                ++verdict.wrong;
        }
    }
    replayKernels(eval, set1.acc, set1.blindRotateMs, spans, root.id(), layer);
    pin.reset(); // the wire and the sharded circuit start threads

    // TEST params: the stages on tenant 0 of tenant_openloop, the wire,
    // and the eight-adder circuit.
    {
        Rng key_rng(seed ^ kKeySalt);
        const auto t = Clock::now();
        const auto test_keys =
            tfhe::KeySet::generate(tfhe::paramsTest(), key_rng);
        layer.set("client.keygen_s.TEST", msSince(t) / 1e3, "s");
        const auto test_eval = tfhe::EvaluationKeys::fromKeySet(test_keys);
        Rng rng(seed ^ kEncryptSalt);
        const auto test_messages = pbsMessages(seed, 32);
        std::vector<tfhe::LweCiphertext> test_inputs;
        for (const auto m : test_messages) {
            test_inputs.push_back(
                tfhe::encryptPadded(test_keys, m, kMessageSpace, rng));
        }
        StageTimes test;
        {
            const PinToCurrentCpu test_pin;
            ScopedSpan s(spans, "tfhe.stages.TEST", root.id());
            test = replayStages(test_keys, test_eval, test_inputs,
                                test_messages, spans, s.id(), verdict);
        }
        setStages(layer, test, "TEST");
        replayWire(test_keys, test_eval, spans, root.id(), layer, verdict);
        replayCircuit(test_keys, test_eval, test.bootstrapMs, seed, spans,
                      root.id(), layer, verdict);
    }

    std::vector<double> dec_us;
    for (std::size_t i = 0; i < kSuperbatch; ++i) {
        const auto t = Clock::now();
        (void)tfhe::decryptPadded(keys, result.outputs[i], kMessageSpace);
        dec_us.push_back(msSince(t) * 1e3);
    }
    layer.set("client.decrypt_us", median(dec_us), "us");
}

} // namespace perfbench
