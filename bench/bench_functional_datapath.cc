/**
 * @file
 * Validation bench for the functional XPU datapath (Figure 5): runs a
 * real blind rotation through the rotator -> decomposition ->
 * merge-split FFT -> VPE array -> IFFT pipeline, checks the result
 * against the reference library, and reports the datapath counters
 * next to the closed-form resource arithmetic that the cycle-accurate
 * model is built on. This is the bridge between "the hardware computes
 * correctly" and "the timing model counts correctly".
 */

#include <chrono>
#include <iostream>

#include "arch/functional/functional_xpu.h"
#include "arch/timing.h"
#include "bench_util.h"
#include "common/rng.h"
#include "tfhe/bootstrap.h"
#include "tfhe/encoding.h"

using namespace morphling;
using namespace morphling::arch;
using namespace morphling::tfhe;

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv, "functional_datapath");
    bench::banner("Functional datapath (Figure 5)",
                  "real blind rotation through the modelled XPU");

    const TfheParams &params = paramsSetI();
    Rng rng(0xDA7A);
    std::cout << "keys for " << params.summary() << "...\n";
    const KeySet keys = KeySet::generate(params, rng);
    Rng bsk_rng(0xDA7A + 1);
    const auto raw_bsk = functional::generateRawBsk(
        keys.lweKey, keys.glweKey, bsk_rng);

    functional::FunctionalXpu xpu(params);
    const auto t0 = std::chrono::steady_clock::now();
    xpu.loadBootstrapKey(raw_bsk);
    const auto t1 = std::chrono::steady_clock::now();

    // One full programmable bootstrap through the datapath.
    const std::uint32_t space = 4;
    const auto lut = makePaddedLut(space, [](std::uint32_t m) {
        return (m + 1) % 4;
    });
    TorusPolynomial tp;
    buildTestPolynomialInto(params.polyDegree, lut, tp);

    bool all_ok = true;
    std::vector<std::uint32_t> switched;
    const auto t2 = std::chrono::steady_clock::now();
    for (std::uint32_t m = 0; m < space; ++m) {
        const auto ct = encryptPadded(keys, m, space, rng);
        modSwitchInto(ct, params.polyDegree, switched);
        const auto acc = xpu.runBlindRotate(tp, switched);
        LweCiphertext extracted, out;
        acc.sampleExtractAtInto(0, extracted);
        keys.ksk.applyInto(extracted, out);
        const auto dec = decryptPadded(keys, out, space);
        all_ok &= dec == (m + 1) % 4;
    }
    const auto t3 = std::chrono::steady_clock::now();

    std::cout << (all_ok ? "PASS" : "FAIL")
              << ": f(m) = m+1 mod 4 for every message through the "
                 "functional XPU\n";
    report.add("datapath_correct", "set I", all_ok ? 1 : 0, "bool");
    report.add("bootstrap_ms",
               "set I, functional XPU, this host",
               std::chrono::duration<double, std::milli>(t3 - t2)
                       .count() /
                   space,
               "ms");
    std::cout << "BSK transform (merge-split): "
              << std::chrono::duration<double>(t1 - t0).count()
              << " s; per host-side bootstrap: "
              << std::chrono::duration<double, std::milli>(t3 - t2)
                         .count() /
                     space
              << " ms\n";

    // Datapath counters vs the closed-form arithmetic.
    const auto stats = xpu.stats();
    const ArchConfig cfg = ArchConfig::morphlingDefault();
    const std::uint64_t kp1 = params.glweDimension + 1;
    const std::uint64_t lb = params.bskLevels;

    Table t({"Counter", "Measured", "Closed form (per iteration)"});
    t.addRow({"blind-rotation iterations",
              Table::fmtCount(stats.iterations), "-"});
    t.addRow({"merge-split FFT passes",
              Table::fmtCount(stats.fftPasses),
              "ceil((k+1)l_b/2) = " +
                  std::to_string((kp1 * lb + 1) / 2) +
                  " (+ BSK preload)"});
    t.addRow({"merge-split IFFT passes",
              Table::fmtCount(stats.ifftPasses),
              "ceil((k+1)/2) = " + std::to_string((kp1 + 1) / 2)});
    t.addRow({"VPE complex MACs", Table::fmtCount(stats.vpeMacOps),
              "(k+1)^2 l_b N/2 = " +
                  Table::fmtCount(kp1 * kp1 * lb * params.polyDegree /
                                  2)});
    t.addRow({"double-pointer rotations",
              Table::fmtCount(stats.rotations), "k+1 per iteration"});
    t.print(std::cout);

    const auto round = epRoundTiming(params, cfg, 1);
    bench::note("the cycle model charges " +
                std::to_string(round.roundCycles()) +
                " cycles per iteration for one row at these "
                "parameters; every pass counted above is one "
                "N/16-cycle slot on a transform unit.");
    return all_ok ? 0 : 1;
}
