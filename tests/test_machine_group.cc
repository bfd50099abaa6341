/**
 * @file
 * Machine-group tests: per-trial reseeds across one batch group.
 *
 * The invariant: trials that reseed the noise streams with their own
 * mix are byte-identical to the scalar restore-per-trial pool loop
 * across every machine profile and replacement policy, at any group
 * width. On draw-free profiles followers replay the leader's trace
 * with their dead reseeds substituted (BatchRunner::Options::group);
 * followers of a trace that draws noise and reseeds run scalar; a
 * follower that runs a different program diverges mid-group. The
 * trial mix of every test reseeds per trial, which is exactly the
 * shape a strict replay cannot serve.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "batch_trials.hh"
#include "obs/metrics.hh"

namespace hr
{
namespace
{

TEST(MachineGroup, ReseededBitIdenticalAcrossWidths)
{
    // Every profile x policy x width with per-trial reseeds plus a
    // variant mix: the same matrix exercises substituted replay
    // (draw-free profiles), the scalar route (jitter /
    // random-replacement profiles), and mid-group divergence (the
    // variant-1 trials).
    const auto variant_of = [](int i) { return i % 3 == 2 ? 1 : 0; };
    for (const Combo &combo : allCombos()) {
        SCOPED_TRACE(combo.profile + "/" +
                     policyKindName(combo.policy));
        MachinePool pool(configFor(combo));
        const std::vector<TrialObservation> scalar =
            scalarTrials(pool, 6, variant_of, true);
        for (int width : {2, 7, 32}) {
            SCOPED_TRACE("width " + std::to_string(width));
            const std::vector<TrialObservation> batched = batchedTrials(
                pool, 6, variant_of, width, nullptr, true);
            ASSERT_EQ(batched.size(), scalar.size());
            for (std::size_t i = 0; i < scalar.size(); ++i) {
                SCOPED_TRACE("trial " + std::to_string(i));
                EXPECT_TRUE(batched[i] == scalar[i]);
            }
        }
    }
}

TEST(MachineGroup, ReseededFollowersSubstituteDeadReseeds)
{
    // Identical trials apart from the per-trial mix, on a profile that
    // draws no noise: every follower is a substituted replay — one
    // substitution each, no divergence, no scalar fallback.
    MachinePool pool(machineConfigForProfile("default"));
    const std::uint64_t subs0 = metrics().groupReseedsSubstituted.value();
    BatchRunner::Stats stats;
    const std::vector<TrialObservation> batched = batchedTrials(
        pool, 8, [](int) { return 1; }, 8, &stats, true);
    EXPECT_EQ(metrics().groupReseedsSubstituted.value() - subs0, 7u);
    const std::vector<TrialObservation> scalar =
        scalarTrials(pool, 8, [](int) { return 1; }, true);
    for (std::size_t i = 0; i < scalar.size(); ++i)
        EXPECT_TRUE(batched[i] == scalar[i]);
    EXPECT_EQ(stats.leaders, 1u);
    EXPECT_EQ(stats.groupStepped, 7u);
    EXPECT_EQ(stats.replayed, 0u);
    EXPECT_EQ(stats.diverged, 0u);
    EXPECT_EQ(stats.scalar, 0u);
}

TEST(MachineGroup, SubstitutedFollowerDivergesWithItsOwnMix)
{
    // Trial 3 runs a different program after its (substituted)
    // reseed: it must diverge at the Run op, re-materialize the prefix
    // with its OWN mix — not the leader's — and still match scalar.
    const auto variant_of = [](int i) { return i == 3 ? 1 : 0; };
    MachinePool pool(machineConfigForProfile("default"));
    const std::vector<TrialObservation> scalar =
        scalarTrials(pool, 8, variant_of, true);
    BatchRunner::Stats stats;
    const std::vector<TrialObservation> batched =
        batchedTrials(pool, 8, variant_of, 8, &stats, true);
    for (std::size_t i = 0; i < scalar.size(); ++i) {
        SCOPED_TRACE("trial " + std::to_string(i));
        EXPECT_TRUE(batched[i] == scalar[i]);
    }
    EXPECT_EQ(stats.leaders, 1u);
    EXPECT_EQ(stats.diverged, 1u);
    EXPECT_EQ(stats.groupStepped, 6u);
    EXPECT_EQ(stats.scalar, 0u);
}

TEST(MachineGroup, FollowerOutcomesInOneGroup)
{
    // One group, three follower fates: a verbatim replay (same mix as
    // the leader), a substituted replay (different mix), and a
    // divergence (different program).
    const std::uint64_t mixes[] = {111, 111, 222, 333};
    const int variants[] = {0, 0, 0, 1};
    auto body = [&](Machine &machine, int i) {
        machine.reseedNoise(mixes[i]);
        return trialBody(machine, variants[i]);
    };
    MachinePool pool(machineConfigForProfile("default"));
    std::vector<TrialObservation> scalar;
    for (int i = 0; i < 4; ++i) {
        auto lease = pool.lease();
        scalar.push_back(body(lease.machine(), i));
    }
    const std::uint64_t subs0 = metrics().groupReseedsSubstituted.value();
    BatchRunner batch(pool);
    std::vector<TrialObservation> batched(4);
    batch.forEach(4, [&](Machine &machine, std::size_t i) {
        batched[i] = body(machine, static_cast<int>(i));
    });
    for (std::size_t i = 0; i < scalar.size(); ++i) {
        SCOPED_TRACE("trial " + std::to_string(i));
        EXPECT_TRUE(batched[i] == scalar[i]);
    }
    EXPECT_EQ(batch.stats().replayed, 1u);
    EXPECT_EQ(batch.stats().groupStepped, 1u);
    EXPECT_EQ(batch.stats().diverged, 1u);
    EXPECT_EQ(batch.stats().scalar, 0u);
    // Only the clean substituted replay counts: a divergence
    // re-materializes its substituted prefix for real.
    EXPECT_EQ(metrics().groupReseedsSubstituted.value() - subs0, 1u);
}

TEST(MachineGroup, NoisyReseedingFollowersRunScalar)
{
    // Noisy profile: the trace draws jitter AND reseeds, so no
    // follower can be answered from it. Followers go straight to the
    // scalar path — no replay is attempted — and results, which
    // legitimately differ per trial (the mixes matter here), match the
    // scalar loop exactly.
    MachinePool pool(machineConfigForProfile("noisy"));
    const std::vector<TrialObservation> scalar =
        scalarTrials(pool, 6, [](int) { return 1; }, true);
    Metrics &met = metrics();
    const std::uint64_t scalar0 = met.batchFollowersScalar.value();
    const std::uint64_t replays0 = met.machineReplaysClean.value() +
                                   met.machineReplaysDiverged.value();
    BatchRunner::Stats stats;
    const std::vector<TrialObservation> batched = batchedTrials(
        pool, 6, [](int) { return 1; }, 6, &stats, true);
    bool any_distinct = false;
    for (std::size_t i = 0; i < scalar.size(); ++i) {
        SCOPED_TRACE("trial " + std::to_string(i));
        EXPECT_TRUE(batched[i] == scalar[i]);
        any_distinct |= i > 0 && batched[i] != batched[0];
    }
    EXPECT_TRUE(any_distinct); // reseeds actually changed timing
    EXPECT_EQ(stats.leaders, 1u);
    EXPECT_EQ(stats.scalar, 5u);
    EXPECT_EQ(stats.groupStepped, 0u);
    EXPECT_EQ(stats.diverged, 0u);
    EXPECT_EQ(met.batchFollowersScalar.value() - scalar0, 5u);
    EXPECT_EQ(met.machineReplaysClean.value() +
                  met.machineReplaysDiverged.value() - replays0,
              0u);
}

TEST(MachineGroup, GroupOffReplaysStrictly)
{
    // options.group = false (--no-group): no substitution, so every
    // reseeding follower diverges at its first op — with output still
    // byte-identical.
    MachinePool pool(machineConfigForProfile("default"));
    const std::vector<TrialObservation> scalar =
        scalarTrials(pool, 6, [](int) { return 0; }, true);
    BatchRunner::Stats stats;
    const std::vector<TrialObservation> batched = batchedTrials(
        pool, 6, [](int) { return 0; }, 6, &stats, true, false);
    for (std::size_t i = 0; i < scalar.size(); ++i)
        EXPECT_TRUE(batched[i] == scalar[i]);
    EXPECT_EQ(stats.leaders, 1u);
    EXPECT_EQ(stats.diverged, 5u);
    EXPECT_EQ(stats.groupStepped, 0u);
}

TEST(MachineGroup, PoolLeasesStayIndependentOfSubstitutedReplay)
{
    // The live-batch stress shape with per-trial reseeds: concurrent
    // leases must observe the clean base state while substituted
    // replays run on another pool machine.
    MachinePool pool(machineConfigForProfile("default"));
    const std::vector<TrialObservation> expected =
        scalarTrials(pool, 8, [](int) { return 1; }, true);

    // The runner leases first, and the leaser leases at least once
    // (do-while) while that lease is held, so the pool must build a
    // second machine however the two threads are scheduled.
    BatchRunner batch(pool);
    std::atomic<int> mismatches{0};
    std::atomic<bool> stop{false};
    std::thread leaser([&] {
        do {
            auto lease = pool.lease();
            if (reseededTrial(lease.machine(), 0, 1) != expected[0])
                mismatches.fetch_add(1);
        } while (!stop.load());
    });

    std::vector<TrialObservation> batched(8);
    batch.forEach(8, [&](Machine &machine, std::size_t i) {
        batched[i] = reseededTrial(machine, static_cast<int>(i), 1);
    });
    stop.store(true);
    leaser.join();

    EXPECT_EQ(mismatches.load(), 0);
    for (std::size_t i = 0; i < batched.size(); ++i)
        EXPECT_TRUE(batched[i] == expected[i]);
    EXPECT_GE(pool.machinesBuilt(), 2u);
}

} // namespace
} // namespace hr
