/**
 * @file
 * BatchRunner lockstep-batching tests.
 *
 * The invariant everything else leans on: batched trials are
 * byte-identical to the scalar restore-per-trial pool loop — across
 * every machine profile and replacement policy, whether followers
 * replay cleanly, diverge mid-trial, or run scalar behind a trace
 * that cannot stand in for them (per-trial reseeds are covered in
 * test_machine_group.cc). Trial bodies observe the machine exclusively through
 * its traced public surface (run results, peek/probeLevel/now,
 * contextStats/cacheMisses), which is the documented contract for
 * batched trial code.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "batch_trials.hh"
#include "channel/channel.hh"
#include "channel/channel_registry.hh"
#include "exp/scenario.hh"

namespace hr
{
namespace
{

TEST(Batch, BitIdenticalAcrossProfilesAndPolicies)
{
    // Mirror of the snapshot replay matrix: every profile x policy,
    // with a trial mix that exercises clean replays (variant repeats
    // the leader) and mid-trial divergence (variant differs) in the
    // same group.
    const auto variant_of = [](int i) { return i % 3 == 2 ? 1 : 0; };
    for (const Combo &combo : allCombos()) {
        SCOPED_TRACE(combo.profile + "/" +
                     policyKindName(combo.policy));
        MachinePool pool(configFor(combo));
        const std::vector<TrialObservation> scalar =
            scalarTrials(pool, 7, variant_of);
        BatchRunner::Stats stats;
        const std::vector<TrialObservation> batched =
            batchedTrials(pool, 7, variant_of, 4, &stats);
        ASSERT_EQ(batched.size(), scalar.size());
        for (std::size_t i = 0; i < scalar.size(); ++i) {
            SCOPED_TRACE("trial " + std::to_string(i));
            EXPECT_TRUE(batched[i] == scalar[i]);
        }
        EXPECT_EQ(stats.trials, 7u);
        EXPECT_EQ(stats.leaders, 2u); // width 4 -> groups of 4 + 3
        EXPECT_GT(stats.replayed, 0u);
        EXPECT_GT(stats.diverged, 0u);
    }
}

TEST(Batch, WidthDoesNotChangeResults)
{
    const auto variant_of = [](int i) { return i % 2; };
    MachinePool pool(machineConfigForProfile("default"));
    const std::vector<TrialObservation> scalar =
        scalarTrials(pool, 9, variant_of);
    for (int width : {1, 2, 3, 8, 64}) {
        SCOPED_TRACE("width " + std::to_string(width));
        const std::vector<TrialObservation> batched =
            batchedTrials(pool, 9, variant_of, width);
        for (std::size_t i = 0; i < scalar.size(); ++i)
            EXPECT_TRUE(batched[i] == scalar[i]);
    }
}

TEST(Batch, IdenticalTrialsReplayWithoutDivergence)
{
    MachinePool pool(machineConfigForProfile("default"));
    BatchRunner::Stats stats;
    const std::vector<TrialObservation> batched = batchedTrials(
        pool, 8, [](int) { return 1; }, 8, &stats);
    for (std::size_t i = 1; i < batched.size(); ++i)
        EXPECT_TRUE(batched[i] == batched[0]);
    EXPECT_EQ(stats.leaders, 1u);
    EXPECT_EQ(stats.replayed, 7u);
    EXPECT_EQ(stats.diverged, 0u);
    EXPECT_EQ(stats.scalar, 0u);
}

TEST(Batch, DivergedFollowerContinuesScalar)
{
    // A follower that pokes a different value diverges at the poke;
    // everything after it (the run that loads the poked word) must be
    // simulated for real and match the scalar path exactly.
    const Addr addr = workloadAddrs().front();
    auto body = [&](Machine &machine, int i) {
        machine.poke(addr, 100 + i);
        return trialBody(machine, 0);
    };
    MachinePool pool(machineConfigForProfile("default"));
    std::vector<TrialObservation> scalar;
    for (int i = 0; i < 5; ++i) {
        auto lease = pool.lease();
        scalar.push_back(body(lease.machine(), i));
    }
    BatchRunner batch(pool);
    std::vector<TrialObservation> batched(5);
    batch.forEach(5, [&](Machine &machine, std::size_t i) {
        batched[i] = body(machine, static_cast<int>(i));
    });
    for (std::size_t i = 0; i < scalar.size(); ++i) {
        SCOPED_TRACE("trial " + std::to_string(i));
        EXPECT_TRUE(batched[i] == scalar[i]);
    }
    EXPECT_EQ(batch.stats().diverged, 4u); // every follower
    EXPECT_EQ(batch.stats().replayed, 0u);
}

TEST(Batch, OpaqueTraceFallsBackScalar)
{
    // snapshot() inside a trial marks the leader's trace opaque;
    // followers must run scalar (restore + execute) and still match.
    auto body = [](Machine &machine, int variant) {
        Machine::Snapshot mid = machine.snapshot();
        TrialObservation obs = trialBody(machine, variant);
        machine.restore(mid);
        return obs;
    };
    MachinePool pool(machineConfigForProfile("default"));
    std::vector<TrialObservation> scalar;
    for (int i = 0; i < 4; ++i) {
        auto lease = pool.lease();
        scalar.push_back(body(lease.machine(), 1));
    }
    BatchRunner batch(pool);
    std::vector<TrialObservation> batched(4);
    batch.forEach(4, [&](Machine &machine, std::size_t i) {
        batched[i] = body(machine, 1);
    });
    for (std::size_t i = 0; i < scalar.size(); ++i)
        EXPECT_TRUE(batched[i] == scalar[i]);
    EXPECT_EQ(batch.stats().scalar, 3u);
    EXPECT_EQ(batch.stats().replayed, 0u);
}

TEST(Batch, SetupFoldsIntoBaseState)
{
    // Warmed setup state must be what every trial starts from, same
    // as a pool built with the setup function.
    MachinePool warmed(machineConfigForProfile("default"),
                      [](Machine &machine) {
                          Program warm = makeWorkload(0);
                          machine.run(warm);
                      });
    const std::vector<TrialObservation> scalar =
        scalarTrials(warmed, 4, [](int) { return 1; });

    MachinePool cold(machineConfigForProfile("default"));
    BatchRunner batch(cold, [](Machine &machine) {
        Program warm = makeWorkload(0);
        machine.run(warm);
    });
    std::vector<TrialObservation> batched(4);
    batch.forEach(4, [&](Machine &machine, std::size_t i) {
        batched[i] = trialBody(machine, 1);
    });
    for (std::size_t i = 0; i < scalar.size(); ++i)
        EXPECT_TRUE(batched[i] == scalar[i]);
}

bool
sameStats(const ChannelStats &a, const ChannelStats &b)
{
    return a.framesSent == b.framesSent &&
           a.framesSynced == b.framesSynced &&
           a.symbolsSent == b.symbolsSent &&
           a.symbolErrors == b.symbolErrors &&
           a.payloadBitsSent == b.payloadBitsSent &&
           a.payloadBitsSynced == b.payloadBitsSynced &&
           a.payloadErrors == b.payloadErrors &&
           std::memcmp(a.confusion, b.confusion,
                       sizeof(a.confusion)) == 0 &&
           a.cycles == b.cycles && a.seconds == b.seconds;
}

TEST(Batch, ChannelTransmissionsMatchScalarLoop)
{
    ParamSet overrides;
    overrides.set("ecc", "none");
    overrides.set("frame_bits", "8");
    Channel channel(ChannelRegistry::instance().makeConfig(
        "ook_arith", overrides));

    // Payload mix: repeats (clean replays) and distinct bit patterns
    // (mid-frame divergence).
    std::vector<std::vector<bool>> payloads;
    for (int p = 0; p < 6; ++p) {
        std::vector<bool> payload;
        for (int i = 0; i < 8; ++i)
            payload.push_back(((p / 2) >> (i % 3)) & 1);
        payloads.push_back(payload);
    }

    // Scalar reference: prepare once, restore to the prepared state
    // per transmission — what a batch with prepare() as setup must
    // reproduce.
    const MachineConfig config = machineConfigForProfile("default");
    Machine machine(config);
    channel.prepare(machine);
    Machine::Snapshot prepared = machine.snapshot();
    std::vector<ChannelStats> scalar;
    for (const std::vector<bool> &payload : payloads) {
        machine.restore(prepared);
        scalar.push_back(channel.run(machine, payload));
    }

    MachinePool pool(config);
    BatchRunner batch(pool,
                      [&](Machine &machine) { channel.prepare(machine); });
    std::vector<ChannelStats> batched(payloads.size());
    batch.forEach(payloads.size(), [&](Machine &machine, std::size_t i) {
        batched[i] = channel.run(machine, payloads[i]);
    });
    ASSERT_EQ(batched.size(), scalar.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
        SCOPED_TRACE("payload " + std::to_string(i));
        EXPECT_TRUE(sameStats(batched[i], scalar[i]));
    }
}

TEST(Batch, PoolLeasesStayIndependentOfLiveBatch)
{
    // A BatchRunner holds one lease for its lifetime; concurrent
    // leases from the same pool must observe the clean base state
    // while the batch is mid-flight on another machine.
    MachinePool pool(machineConfigForProfile("default"));
    const std::vector<TrialObservation> expected =
        scalarTrials(pool, 1, [](int) { return 1; });

    // The runner leases first, and the leaser leases at least once
    // (do-while) while that lease is held, so the pool must build a
    // second machine however the two threads are scheduled.
    BatchRunner batch(pool);
    std::atomic<int> mismatches{0};
    std::atomic<bool> stop{false};
    std::thread leaser([&] {
        do {
            auto lease = pool.lease();
            if (trialBody(lease.machine(), 1) != expected[0])
                mismatches.fetch_add(1);
        } while (!stop.load());
    });

    std::vector<TrialObservation> batched(64);
    batch.forEach(64, [&](Machine &machine, std::size_t i) {
        batched[i] = trialBody(machine, static_cast<int>(i) % 2);
    });
    stop.store(true);
    leaser.join();

    EXPECT_EQ(mismatches.load(), 0);
    for (std::size_t i = 0; i < batched.size(); ++i)
        EXPECT_TRUE(batched[i] ==
                    (i % 2 == 0 ? scalarTrials(pool, 1, [](int) {
                         return 0;
                     })[0]
                                : expected[0]));
    EXPECT_GE(pool.machinesBuilt(), 2u);
}

TEST(Batch, PoolMapMatchesScalarPathWithReseeds)
{
    // The sweep shape: every index reseeds the machine noise streams
    // with its own mix before running — the first traced op already
    // diverges every follower, and output must still be identical to
    // the lease-per-index path (batch=false).
    auto run_with = [](bool batch_enabled) {
        ScenarioContext ctx(4, 1, 99, "random_l1", ParamSet{}, {},
                            batch_enabled);
        MachinePool pool(ctx.machineConfig());
        return ctx.poolMap(
            pool, 4, [&](int index, Rng &, Machine &machine) {
                ScenarioContext::reseedMachine(
                    machine, ctx.machineConfig(),
                    ctx.indexSeed(index));
                return trialBody(machine, index % 2);
            });
    };
    const std::vector<TrialObservation> batched = run_with(true);
    const std::vector<TrialObservation> scalar = run_with(false);
    ASSERT_EQ(batched.size(), scalar.size());
    bool any_distinct = false;
    for (std::size_t i = 0; i < scalar.size(); ++i) {
        EXPECT_TRUE(batched[i] == scalar[i]);
        any_distinct |= i > 0 && batched[i] != batched[0];
    }
    EXPECT_TRUE(any_distinct); // reseeds actually changed timing
}

} // namespace
} // namespace hr
