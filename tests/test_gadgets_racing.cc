/**
 * @file
 * Racing-gadget tests (paper section 5): the transient P/A gadget must
 * convert "expression longer/shorter than baseline" into probe
 * presence/absence, and the reorder gadget into fill order.
 */

#include <gtest/gtest.h>

#include "gadgets/racing.hh"

namespace hr
{
namespace
{

TEST(TransientPaRace, ShortExprLosesRace)
{
    // Expression much shorter than the baseline: the branch resolves
    // before the transient body reaches the probe access -> absent.
    Machine machine;
    PaRaceConfig config;
    config.refOps = 60;
    config.fastOps = 5;
    EXPECT_FALSE(PaRace(config).sample(machine, false).bit)
        << "short expression must not leave the probe in the cache";
}

TEST(TransientPaRace, LongExprWinsRace)
{
    Machine machine;
    PaRaceConfig config;
    config.refOps = 20;
    config.slowOps = 80;
    EXPECT_TRUE(PaRace(config).sample(machine, true).bit)
        << "long expression must leave the probe in the cache";
}

TEST(TransientPaRace, ThresholdIsMonotonic)
{
    // For a fixed baseline, sweeping the expression length must flip
    // from absent to present exactly once (monotone race outcome).
    Machine machine;
    PaRaceConfig config;
    config.refOps = 40;

    int first_present = -1;
    for (int n = 5; n <= 90; n += 5) {
        config.slowOps = n;
        const bool present = PaRace(config).sample(machine, true).bit;
        if (present && first_present < 0)
            first_present = n;
        if (first_present >= 0) {
            EXPECT_TRUE(present)
                << "non-monotonic race outcome at n=" << n;
        }
    }
    ASSERT_GT(first_present, 0) << "race never flipped to present";
    // The flip should occur in the vicinity of refOps (same op class).
    EXPECT_NEAR(first_present, config.refOps, 20);
}

TEST(TransientPaRace, MulBaselineExtendsThreshold)
{
    // MUL baseline ops are ~3x ADD latency: an expression of k ADDs
    // should race about 3k/3 = k MULs. Check a 60-add expr beats a
    // 10-mul baseline (60 > 30 cycles) but loses to a 40-mul baseline.
    Machine machine;
    PaRaceConfig config;
    config.refOp = Opcode::Mul;
    config.slowOps = 60;

    config.refOps = 10;
    EXPECT_TRUE(PaRace(config).sample(machine, true).bit);

    config.refOps = 40;
    EXPECT_FALSE(PaRace(config).sample(machine, true).bit);
}

TEST(TransientPaRace, DistinguishesCacheHitFromMiss)
{
    // The timer primitive of section 7.4: a reference path between the
    // L1 hit time and the memory miss time classifies a load.
    Machine machine;
    constexpr Addr kTarget = 0x500'0000;
    PaRaceConfig config;
    config.refOp = Opcode::Mul;
    config.refOps = 12; // ~36 cycles: between L1 hit (4) and miss (210+)
    PaRaceProgram race(config, TargetExpr::loadLatency(kTarget));

    machine.warm(kTarget, 1);
    race.train(machine);
    machine.warm(kTarget, 1); // training polluted nothing, but be sure
    EXPECT_FALSE(race.attackAndProbe(machine))
        << "L1 hit should lose the race";

    race.train(machine);
    machine.flushLine(kTarget);
    EXPECT_TRUE(race.attackAndProbe(machine)) << "miss should win the race";
}

TEST(TransientPaRace, IndirectArgumentCarriesAddress)
{
    Machine machine;
    constexpr Addr kHot = 0x500'0000;
    constexpr Addr kCold = 0x600'0000;
    PaRaceConfig config;
    config.refOp = Opcode::Mul;
    config.refOps = 12;
    PaRaceProgram race(config,
                       TargetExpr::loadIndirect(PaRaceProgram::kArgReg));

    machine.warm(kHot, 1);
    race.train(machine, static_cast<std::int64_t>(kHot));
    machine.warm(kHot, 1);
    EXPECT_FALSE(
        race.attackAndProbe(machine, static_cast<std::int64_t>(kHot)));

    race.train(machine, static_cast<std::int64_t>(kHot));
    machine.flushLine(kCold);
    EXPECT_TRUE(
        race.attackAndProbe(machine, static_cast<std::int64_t>(kCold)));
}

TEST(TransientPaRace, RobBoundsTheBaselineLength)
{
    // Section 7.2: the reorder-buffer capacity caps how long a baseline
    // path can be and still fit in the transient window. With a
    // baseline far larger than the ROB, the probe access cannot even
    // dispatch before the squash, so the probe stays absent even for an
    // extremely slow expression.
    MachineConfig mc = MachineConfig::effectiveWindowProfile(); // ROB 64
    Machine machine(mc);
    PaRaceConfig config;
    config.refOps = 300; // far beyond the 64-entry window
    config.slowOps = 2000;
    EXPECT_FALSE(PaRace(config).sample(machine, true).bit)
        << "baseline beyond the ROB window can never reach the probe";
}

TEST(ReorderRace, CompletionOrderBecomesFillOrder)
{
    // Prime nothing: A and B both cold. After the race, the L1 set
    // holds both; which was inserted first is visible through the
    // replacement state (here we check via eviction candidate motion
    // in a 2-line probe: instead, use fill stats ordering indirectly by
    // checking both lines landed).
    Machine machine(MachineConfig::plruProfile());
    constexpr Addr kA = 0x500'0000;
    constexpr Addr kB = 0x500'2000; // 8 KB apart: same L1 set (128 x 64B)
    ReorderRaceConfig config;
    config.refOps = 30;
    config.fastOps = 5;
    ReorderRace race(config);
    race.bindTarget(machine, kA, kB);
    race.transmit(machine, true); // runs the 5-op chain, then settles
    EXPECT_NE(machine.probeLevel(kA), 0);
    EXPECT_NE(machine.probeLevel(kB), 0);
}

TEST(ReorderRace, NoBranchesNoMispredicts)
{
    // The defining property of section 5.2: no speculation whatsoever.
    Machine machine;
    ReorderRaceConfig config;
    config.refOps = 30;
    config.fastOps = 50;
    ReorderRace race(config);
    race.bindTarget(machine, 0x500'0000, 0x501'0000);
    const PerfCounters before = machine.core().counters();
    race.transmit(machine, true);
    const PerfCounters result = machine.core().counters() - before;
    EXPECT_EQ(result.mispredicts, 0u);
    EXPECT_EQ(result.squashedInstrs, 0u);
    EXPECT_EQ(result.branches, 0u);
}

} // namespace
} // namespace hr
