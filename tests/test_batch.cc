/**
 * @file
 * Tests of batched/parallel bootstrapping: order preservation,
 * sequential-parallel equivalence of decrypted results, thread-count
 * edge cases, BatchOptions (noise audit), the batched sign bootstrap
 * and the efficiency probe.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "tfhe/batch.h"
#include "tfhe/encoding.h"
#include "tfhe/serialize.h"

namespace morphling::tfhe {
namespace {

class BatchFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Rng rng(0xBA7C4);
        keys_ = new KeySet(KeySet::generate(paramsTest(), rng));
    }
    static void
    TearDownTestSuite()
    {
        delete keys_;
        keys_ = nullptr;
    }

    const KeySet &keys() { return *keys_; }
    Rng rng{0x600D};

    std::vector<LweCiphertext>
    encryptBatch(const std::vector<std::uint32_t> &messages)
    {
        std::vector<LweCiphertext> out;
        for (auto m : messages)
            out.push_back(encryptPadded(keys(), m, 4, rng));
        return out;
    }

    static KeySet *keys_;
};

KeySet *BatchFixture::keys_ = nullptr;

TEST_F(BatchFixture, SequentialBatchPreservesOrder)
{
    const std::vector<std::uint32_t> messages = {3, 1, 0, 2, 1, 3};
    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return (m + 2) % 4;
    });
    const auto outputs =
        batchBootstrap(keys(), encryptBatch(messages), lut);
    ASSERT_EQ(outputs.size(), messages.size());
    for (std::size_t i = 0; i < messages.size(); ++i)
        EXPECT_EQ(decryptPadded(keys(), outputs[i], 4),
                  (messages[i] + 2) % 4)
            << i;
}

TEST_F(BatchFixture, ParallelMatchesSequentialResults)
{
    std::vector<std::uint32_t> messages;
    for (int i = 0; i < 24; ++i)
        messages.push_back(static_cast<std::uint32_t>(i % 4));
    const auto inputs = encryptBatch(messages);
    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return (3 * m) % 4;
    });

    BatchOptions parallel;
    parallel.threads = 4;
    const auto seq = batchBootstrap(keys(), inputs, lut);
    const auto par = batchBootstrap(keys(), inputs, lut, parallel);
    ASSERT_EQ(par.size(), seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        // Identical inputs and key material: identical decryptions.
        EXPECT_EQ(decryptPadded(keys(), par[i], 4),
                  decryptPadded(keys(), seq[i], 4))
            << i;
        EXPECT_EQ(decryptPadded(keys(), par[i], 4),
                  (3 * messages[i]) % 4)
            << i;
    }
}

TEST_F(BatchFixture, SingleThreadAndSingleElementEdgeCases)
{
    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    BatchOptions wide;
    wide.threads = 8;
    const auto one = encryptBatch({2});
    const auto out1 = batchBootstrap(keys(), one, lut, wide);
    ASSERT_EQ(out1.size(), 1u);
    EXPECT_EQ(decryptPadded(keys(), out1[0], 4), 2u);

    wide.threads = 4;
    const auto empty = batchBootstrap(keys(), {}, lut, wide);
    EXPECT_TRUE(empty.empty());
}

TEST_F(BatchFixture, EvaluationKeysOverloadMatchesKeySetPath)
{
    const std::vector<std::uint32_t> messages = {1, 3, 0, 2};
    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return (m + 1) % 4;
    });
    const auto inputs = encryptBatch(messages);
    const auto eval = EvaluationKeys::fromKeySet(keys());
    const auto out = batchBootstrap(eval, inputs, lut);
    ASSERT_EQ(out.size(), messages.size());
    for (std::size_t i = 0; i < messages.size(); ++i)
        EXPECT_EQ(decryptPadded(keys(), out[i], 4),
                  (messages[i] + 1) % 4)
            << i;
}

TEST_F(BatchFixture, NoiseAuditWarnsOnlyBelowThreshold)
{
    const auto lut = makePaddedLut(4, [](std::uint32_t m) {
        return m;
    });
    const auto inputs = encryptBatch({0, 1});

    // The test parameters have ample margin at a 2-bit space: the
    // audit stays silent.
    BatchOptions audited;
    audited.checkNoise = true;
    const std::size_t before = warnCount();
    const auto out = batchBootstrap(keys(), inputs, lut, audited);
    EXPECT_EQ(warnCount(), before);
    EXPECT_EQ(decryptPadded(keys(), out[0], 4), 0u);
    EXPECT_EQ(decryptPadded(keys(), out[1], 4), 1u);

    // An absurd threshold trips the audit exactly once per batch.
    audited.minSlotSigmas = 1e9;
    batchBootstrap(keys(), inputs, lut, audited);
    EXPECT_EQ(warnCount(), before + 1);
}

TEST_F(BatchFixture, SignBootstrapMatchesGateConvention)
{
    // batchSignBootstrap is the batched form of signBootstrap: every
    // boolean ciphertext refreshes to exactly +-mu by phase sign, and
    // it must be bit-identical to the single-ciphertext reference.
    const std::vector<bool> bits = {true, false, false, true, true};
    std::vector<LweCiphertext> inputs;
    for (bool b : bits)
        inputs.push_back(encryptBit(keys(), b, rng));

    const auto eval_keys = EvaluationKeys::fromKeySet(keys());
    const auto out = batchSignBootstrap(eval_keys, inputs, boolMu());
    ASSERT_EQ(out.size(), bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
        EXPECT_EQ(decryptBit(keys(), out[i]), bits[i]) << i;
        const auto ref = signBootstrap(keys(), inputs[i], boolMu());
        EXPECT_EQ(out[i].raw(), ref.raw()) << i;
    }

    // Threaded run is bit-identical to the sequential one.
    BatchOptions two;
    two.threads = 2;
    const auto par = batchSignBootstrap(eval_keys, inputs, boolMu(), two);
    ASSERT_EQ(par.size(), out.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(par[i].raw(), out[i].raw()) << i;
}

} // namespace
} // namespace morphling::tfhe
