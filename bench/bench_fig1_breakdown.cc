/**
 * @file
 * Regenerates Figure 1: the operation / memory / execution-time
 * breakdown of one bootstrap at the 128-bit parameter set
 * (N, n, k, l_b, l_k) = (1024, 481, 2, 4, 9).
 *
 * Operations use the closed-form counting of tfhe/opcount.h with the
 * CPU-reference cost model (N-point FFT, inverse transform per
 * product, as a CPU library executes it). Execution time is measured
 * by timing this repository's own TFHE implementation on the current
 * host (the paper measured Concrete on a Xeon; absolute times differ,
 * the split is what Figure 1 shows).
 */

#include <chrono>
#include <iostream>

#include "bench_util.h"
#include "common/rng.h"
#include "tfhe/bootstrap.h"
#include "tfhe/encoding.h"
#include "tfhe/opcount.h"

using namespace morphling;
using namespace morphling::tfhe;

namespace {

double
percent(std::uint64_t part, std::uint64_t whole)
{
    return 100.0 * static_cast<double>(part) /
           static_cast<double>(whole);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Report report(argc, argv, "fig1_breakdown");
    bench::banner("Figure 1",
                  "operation breakdown of bootstrapping, 128-bit set "
                  "(N=1024, n=481, k=2, l_b=4, l_k=9)");
    const TfheParams &params = paramsFig1();
    std::cout << params.summary() << "\n";

    // --- Operations ------------------------------------------------
    const OpBreakdown ops = bootstrapOps(params, CostModel::CpuReference);
    Table op_table({"Task", "Multiplications", "Share",
                    "Paper (Fig. 1)"});
    op_table.addRow({"I/FFT (blind rotation)",
                     Table::fmtCount(ops.fftMults),
                     Table::fmt(percent(ops.fftMults, ops.total())) + "%",
                     "~88%"});
    op_table.addRow({"Pointwise MULT (blind rotation)",
                     Table::fmtCount(ops.pointwiseMults),
                     Table::fmt(percent(ops.pointwiseMults,
                                        ops.total())) +
                         "%",
                     "~9%"});
    op_table.addRow({"Key switching",
                     Table::fmtCount(ops.keySwitchMults),
                     Table::fmt(percent(ops.keySwitchMults,
                                        ops.total())) +
                         "%",
                     "1.9%"});
    op_table.addRow(
        {"Other (decomp, MS, SE)",
         Table::fmtCount(ops.decompOps + ops.modSwitchOps +
                         ops.sampleExtractOps),
         Table::fmt(percent(ops.decompOps + ops.modSwitchOps +
                                ops.sampleExtractOps,
                            ops.total())) +
             "%",
         "~1%"});
    op_table.addSeparator();
    op_table.addRow({"Total", Table::fmtCount(ops.total()), "100%", ""});
    op_table.print(std::cout);

    std::cout << "polynomial multiplications per bootstrap: "
              << Table::fmtCount(polyMultsPerBootstrap(params))
              << "  (paper: \"more than 10,000\")\n";
    report.add("fft_share", "fig1 set",
               percent(ops.fftMults, ops.total()), "percent");
    report.add("poly_mults_per_bootstrap", "fig1 set",
               static_cast<double>(polyMultsPerBootstrap(params)),
               "count");

    // --- Memory ------------------------------------------------------
    const MemBreakdown mem = bootstrapMem(params);
    Table mem_table({"Structure", "Size (MB)", "Paper (Fig. 1)"});
    mem_table.addRow({"BSK (Fourier domain, f64)",
                      Table::fmt(mem.bskTransformBytes / 1048576.0),
                      "101.4 MB"});
    mem_table.addRow({"BSK (coefficient domain, 32-bit)",
                      Table::fmt(mem.bskBytes / 1048576.0), "-"});
    mem_table.addRow({"KSK", Table::fmt(mem.kskBytes / 1048576.0),
                      "33.8 MB"});
    mem_table.addRow({"ACC ciphertext",
                      Table::fmt(mem.accBytes / 1048576.0, 4), "-"});
    mem_table.print(std::cout);
    bench::note("the paper's 101.4 MB BSK sits between our 32-bit "
                "coefficient (70.9 MB) and f64 Fourier (141.9 MB) "
                "formats; Concrete stores a mixed representation.");

    // --- Execution time (this host, this library) -------------------
    Rng rng(0xF16);
    const KeySet keys = KeySet::generate(params, rng);
    const auto lut = makePaddedLut(4, [](std::uint32_t m) { return m; });
    auto ct = encryptPadded(keys, 1, 4, rng);

    // Time the stages separately.
    BootstrapWorkspace ws;
    std::vector<std::uint32_t> switched;
    TorusPolynomial tp;
    GlweCiphertext acc;
    const auto t0 = std::chrono::steady_clock::now();
    modSwitchInto(ct, params.polyDegree, switched);
    const auto t1 = std::chrono::steady_clock::now();
    buildTestPolynomialInto(params.polyDegree, lut, tp);
    blindRotate(keys.bsk, tp, switched, acc, ws);
    const auto t2 = std::chrono::steady_clock::now();
    LweCiphertext extracted, out;
    acc.sampleExtractAtInto(0, extracted);
    const auto t3 = std::chrono::steady_clock::now();
    keys.ksk.applyInto(extracted, out);
    const auto t4 = std::chrono::steady_clock::now();

    auto ms = [](auto a, auto b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
    };
    Table time_table({"Stage", "This host (ms)", "Paper CPU (ms)"});
    time_table.addRow({"Mod switch", Table::fmt(ms(t0, t1), 3), "-"});
    time_table.addRow(
        {"Blind rotation", Table::fmt(ms(t1, t2), 2), "37.7"});
    time_table.addRow(
        {"Sample extraction", Table::fmt(ms(t2, t3), 3), "-"});
    time_table.addRow({"Key switching", Table::fmt(ms(t3, t4), 2),
                       "6.4"});
    time_table.print(std::cout);
    report.add("blind_rotate_ms", "fig1 set, this host", ms(t1, t2),
               "ms");
    report.add("key_switch_ms", "fig1 set, this host", ms(t3, t4),
               "ms");
    bench::note("absolute times differ from the paper's Xeon 6226R "
                "(and our l_k differs in the KS stage); blind rotation "
                "dominating is the reproduced claim.");

    // Sanity: the result still decrypts.
    std::cout << "decrypt(bootstrap(1)) = "
              << decryptPadded(keys, out, 4) << " (expect 1)\n";
    return 0;
}
