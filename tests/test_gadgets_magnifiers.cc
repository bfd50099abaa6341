/**
 * @file
 * Magnifier-gadget tests (paper section 6): each magnifier must turn a
 * one-shot state difference into a large, repeat-scalable timing
 * difference.
 */

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "gadgets/arbitrary_magnifier.hh"
#include "gadgets/arith_magnifier.hh"
#include "gadgets/plru_magnifier.hh"
#include "gadgets/plru_pattern.hh"
#include "gadgets/racing.hh"

namespace hr
{
namespace
{

class PlruMagnifierTest : public ::testing::Test
{
  protected:
    PlruMagnifierTest() : machine_(MachineConfig::plruProfile()) {}

    Machine machine_;
};

TEST_F(PlruMagnifierTest, PresentMissesEveryOtherAccessForever)
{
    PlruMagnifier magnifier(PlruVariant::PresenceAbsence, {3, 400});
    const Addr a = magnifier.lines(machine_)[0];
    magnifier.prepare(machine_);
    machine_.warm(a, 1); // "present" input
    MagnifierResult result = magnifier.traverse(machine_);
    // 3 misses per 6-access period, indefinitely.
    EXPECT_NEAR(static_cast<double>(result.l1Misses),
                3.0 * magnifier.config().repeats, 6.0);
    // A must still be resident at the end (never evicted).
    EXPECT_EQ(machine_.probeLevel(a), 1);
}

TEST_F(PlruMagnifierTest, AbsentHasNoMisses)
{
    PlruMagnifier magnifier(PlruVariant::PresenceAbsence, {3, 400});
    magnifier.prepare(machine_); // A absent
    MagnifierResult result = magnifier.traverse(machine_);
    EXPECT_LE(result.l1Misses, 2u);
}

TEST_F(PlruMagnifierTest, TimingGapScalesWithRepeats)
{
    Cycle previous_gap = 0;
    for (int repeats : {100, 200, 400, 800}) {
        PlruMagnifier magnifier(PlruVariant::PresenceAbsence,
                                {3, repeats});
        magnifier.prepare(machine_);
        const Cycle fast = magnifier.traverse(machine_).cycles;
        magnifier.prepare(machine_);
        machine_.warm(magnifier.lines(machine_)[0], 1);
        const Cycle slow = magnifier.traverse(machine_).cycles;
        ASSERT_GT(slow, fast);
        const Cycle gap = slow - fast;
        EXPECT_GT(gap, previous_gap)
            << "gap must grow with repeats (repeats=" << repeats << ")";
        previous_gap = gap;
    }
    // 800 repeats must exceed a 5 us browser tick (10000 cycles @2GHz).
    EXPECT_GT(previous_gap, 10000u);
}

TEST_F(PlruMagnifierTest, LoadBasedPrimingMatchesWarmPriming)
{
    PlruMagnifier magnifier(PlruVariant::PresenceAbsence, {3, 100});
    const std::vector<Addr> lines = magnifier.lines(machine_);
    const Addr a = lines[0];

    // Realistic attacker priming via loads only.
    for (Addr line : lines)
        machine_.flushLine(line);
    Program prime = magnifier.primeProgram(machine_);
    machine_.run(prime);
    machine_.settle();
    machine_.warm(a, 2);

    machine_.warm(a, 1);
    MagnifierResult result = magnifier.traverse(machine_);
    EXPECT_NEAR(static_cast<double>(result.l1Misses),
                3.0 * magnifier.config().repeats, 6.0);
    EXPECT_EQ(machine_.probeLevel(a), 1);
}

TEST_F(PlruMagnifierTest, ReorderVariantDistinguishesInsertionOrder)
{
    PlruMagnifier magnifier(PlruVariant::Reorder, {3, 400});
    const auto [a, b] = magnifier.inputLines(machine_);

    // Case 1: A inserted before B's touch.
    magnifier.prepare(machine_);
    machine_.warm(a, 1); // A arrives...
    machine_.warm(b, 1); // ...then B is touched
    const MagnifierResult a_first = magnifier.traverse(machine_);

    // Case 2: B touched before A arrives.
    magnifier.prepare(machine_);
    machine_.warm(b, 1);
    machine_.warm(a, 1);
    const MagnifierResult b_first = magnifier.traverse(machine_);

    EXPECT_GT(a_first.l1Misses, static_cast<std::uint64_t>(
                                    magnifier.config().repeats));
    EXPECT_LE(b_first.l1Misses, 8u)
        << "B-first must evict A and then stop missing (Fig. 4)";
    EXPECT_GT(a_first.cycles, b_first.cycles + 10000);
}

TEST_F(PlruMagnifierTest, EndToEndWithReorderRace)
{
    // Full section 6.2 pipeline: a non-transient reorder race feeds the
    // reorder magnifier; a slow expression must yield a slow traversal.
    PlruMagnifier magnifier(PlruVariant::Reorder, {3, 400});
    const auto [a, b] = magnifier.inputLines(machine_);

    ReorderRaceConfig race_config;
    race_config.refOp = Opcode::Add;
    race_config.refOps = 60;
    race_config.fastOps = 5;
    race_config.slowOps = 150;
    ReorderRace race(race_config);
    race.bindTarget(machine_, a, b);

    // Fast expression: measurement path finishes first -> A's fill
    // lands before B's touch -> misses forever.
    magnifier.prepare(machine_);
    race.transmit(machine_, true);
    const Cycle fast_expr_cycles = magnifier.traverse(machine_).cycles;

    // Slow expression: B's touch lands first -> A evicted -> all hits.
    magnifier.prepare(machine_);
    race.transmit(machine_, false);
    const Cycle slow_expr_cycles = magnifier.traverse(machine_).cycles;

    EXPECT_GT(fast_expr_cycles, slow_expr_cycles + 10000)
        << "insertion order must be magnified into a large timing gap";
}

TEST(PlruPattern, FinderRecoversTheW4Pattern)
{
    auto pattern = findPinPattern(4);
    ASSERT_TRUE(pattern.has_value());
    EXPECT_GE(pattern->missesPerPeriod, 1);
    EXPECT_LE(pattern->accesses.size(), 6u)
        << "W=4 admits a 6-access period (B,C,E,C,D,C)";
    EXPECT_TRUE(validatePinPattern(4, *pattern));
}

TEST(PlruPattern, FinderGeneralizesToOtherAssociativities)
{
    for (int assoc : {8, 16}) {
        auto pattern = findPinPattern(assoc, 20);
        ASSERT_TRUE(pattern.has_value()) << "assoc=" << assoc;
        EXPECT_TRUE(validatePinPattern(assoc, *pattern))
            << "assoc=" << assoc;
    }
}

TEST(PlruPattern, TwoWayCacheAdmitsNoPinPattern)
{
    // With W = 2, filling the only non-pinned way necessarily points
    // the tree at the pinned line, so no miss-bearing cycle can avoid
    // evicting it. The finder must prove this by exhaustion.
    EXPECT_FALSE(findPinPattern(2, 20).has_value());
}

TEST(PlruPattern, ConcurrentFirstCallsAgree)
{
    // Callers racing on one (assoc, max_len) must all see the same
    // pattern (the thread-sanitize CI job runs this under TSan). It
    // runs before the golden test, so (8, 16) is not memoized yet.
    std::vector<std::optional<PinPattern>> results(4);
    std::vector<std::thread> threads;
    for (auto &result : results)
        threads.emplace_back([&result] { result = findPinPattern(8, 16); });
    for (auto &thread : threads)
        thread.join();
    ASSERT_TRUE(results[0].has_value());
    for (const auto &result : results) {
        ASSERT_TRUE(result.has_value());
        EXPECT_EQ(result->leadIn, results[0]->leadIn);
        EXPECT_EQ(result->accesses, results[0]->accesses);
        EXPECT_EQ(result->missesPerPeriod, results[0]->missesPerPeriod);
    }
}

TEST(PlruPattern, GoldenPatternsPerAssociativity)
{
    // The pattern is the program of plru_pin_magnifier and
    // rs2_plru_pin, so every digest depends on it. Recorded from the
    // string-keyed std::map search; any faster search must agree.
    struct Golden
    {
        int assoc;
        std::vector<int> maxLens;
        std::vector<int> accesses;
    };
    const Golden goldens[] = {
        {4, {6, 16, 20}, {1, 3, 2, 4, 3, 2}},
        {8, {8, 16, 20}, {1, 6, 7, 2, 5, 6, 7, 2}},
        {16, {10, 16, 20}, {1, 10, 11, 14, 2, 9, 10, 12, 15, 2}},
    };
    for (const Golden &golden : goldens) {
        for (int max_len : golden.maxLens) {
            const auto pattern = findPinPattern(golden.assoc, max_len);
            ASSERT_TRUE(pattern.has_value())
                << "assoc=" << golden.assoc << " max_len=" << max_len;
            EXPECT_EQ(pattern->leadIn, std::vector<int>{2})
                << "assoc=" << golden.assoc << " max_len=" << max_len;
            EXPECT_EQ(pattern->accesses, golden.accesses)
                << "assoc=" << golden.assoc << " max_len=" << max_len;
            EXPECT_EQ(pattern->missesPerPeriod, 2)
                << "assoc=" << golden.assoc << " max_len=" << max_len;
        }
    }
    // One below each shortest period: no pattern fits.
    for (auto [assoc, max_len] :
         {std::pair{2, 20}, {4, 5}, {8, 7}, {16, 9}}) {
        EXPECT_FALSE(findPinPattern(assoc, max_len).has_value())
            << "assoc=" << assoc << " max_len=" << max_len;
    }
}

TEST(PlruPattern, SetModelMatchesFig3Walkthrough)
{
    // Replay Fig. 3 exactly: ids 0=A 1=B 2=C 3=D 4=E.
    PlruSetModel model(4);
    // Fig. 3(1): [B C D E], candidate B.
    EXPECT_TRUE(model.access(1)); // B: miss (cold fill)
    EXPECT_TRUE(model.access(2)); // C
    EXPECT_TRUE(model.access(3)); // D
    EXPECT_TRUE(model.access(4)); // E
    EXPECT_FALSE(model.access(3)); // D again: hit, sets candidate B
    EXPECT_EQ(model.evictionCandidate(), 1);

    // (1)->(2): A fills over B, candidate becomes E.
    EXPECT_TRUE(model.access(0));
    EXPECT_EQ(model.render(), "[A C D E]");
    EXPECT_EQ(model.evictionCandidate(), 4);

    // P/A pattern (B,C,E,C,D,C): misses at B, E, D; A never evicted.
    EXPECT_TRUE(model.access(1));  // (2)->(3) B evicts E
    EXPECT_EQ(model.render(), "[A C D B]");
    EXPECT_FALSE(model.access(2)); // (3)->(4) C hit
    EXPECT_TRUE(model.access(4));  // (4)->(5) E evicts D
    EXPECT_EQ(model.render(), "[A C E B]");
    EXPECT_EQ(model.evictionCandidate(), 0) << "A is candidate at (5)";
    EXPECT_FALSE(model.access(2)); // (5)->(6) C hit protects A
    EXPECT_TRUE(model.access(3));  // (6)->(7) D evicts B
    EXPECT_EQ(model.render(), "[A C E D]");
    EXPECT_FALSE(model.access(2)); // (7)->(8) C hit
    EXPECT_TRUE(model.contains(0)) << "A survived the whole period";
}

TEST(ArbitraryMagnifier, DelayedInputCreatesCascade)
{
    // Deterministic per-set policy: the chain reaction is clean.
    MachineConfig mc = MachineConfig::randomL1Profile();
    mc.memory.l1.policy = PolicyKind::Lru;
    Machine machine(mc);
    ArbitraryMagnifierConfig config;
    config.numSets = 32;
    config.repeats = 40;
    ArbitraryMagnifier magnifier(config);
    const Cycle delta = magnifier.measureDelta(machine);
    // The cascade must dwarf the initial ~200-cycle input delay.
    EXPECT_GT(delta, 10000u);
}

TEST(ArbitraryMagnifier, DeltaGrowsWithRepeats)
{
    MachineConfig mc = MachineConfig::randomL1Profile();
    mc.memory.l1.policy = PolicyKind::Lru;
    Machine machine(mc);
    Cycle previous = 0;
    for (int repeats : {10, 40, 160}) {
        ArbitraryMagnifierConfig config;
        config.numSets = 32;
        config.repeats = repeats;
        ArbitraryMagnifier magnifier(config);
        const Cycle delta = magnifier.measureDelta(machine);
        EXPECT_GT(delta, previous * 2) << "repeats=" << repeats;
        previous = delta;
    }
    // 160 iterations must beat a 5 us browser tick by a wide margin.
    EXPECT_GT(previous, 100000u);
}

TEST(ArbitraryMagnifier, WithoutPrefetchingSaturates)
{
    MachineConfig mc = MachineConfig::randomL1Profile();
    mc.memory.l1.policy = PolicyKind::Lru;
    Machine machine(mc);
    ArbitraryMagnifierConfig config;
    config.numSets = 32;
    config.prefetch = false;

    config.repeats = 4;
    ArbitraryMagnifier small(config);
    const Cycle small_delta = small.measureDelta(machine);

    config.repeats = 64;
    ArbitraryMagnifier large(config);
    const Cycle large_delta = large.measureDelta(machine);

    // Without restoration the chain reaction dies after the first pass:
    // growth must be far less than proportional (16x repeats).
    EXPECT_LT(large_delta, small_delta * 8)
        << "prefetch-free magnification must be bounded by the set count";
}

TEST(ArbitraryMagnifier, WorksAcrossReplacementPolicies)
{
    // Section 6.3's point: any per-set policy is exploitable. Random
    // replacement is the weakest in our model: restoring prefetch
    // fills evict already-restored lines, so its magnification is
    // noise-bounded but still present (see EXPERIMENTS.md).
    for (PolicyKind policy : {PolicyKind::Random, PolicyKind::Lru,
                              PolicyKind::Nru, PolicyKind::Srrip}) {
        MachineConfig mc = MachineConfig::randomL1Profile();
        mc.memory.l1.policy = policy;
        Machine machine(mc);
        ArbitraryMagnifierConfig config;
        config.numSets = 32;
        config.repeats = 40;
        ArbitraryMagnifier magnifier(config);
        const Cycle floor =
            policy == PolicyKind::Random ? 400u : 4000u;
        EXPECT_GT(magnifier.measureDelta(machine), floor)
            << "policy=" << policyKindName(policy);
    }
}

/** Slow-minus-fast cycles of one sample each way, fast first. */
Cycle
sampleDelta(TimingSource &source, Machine &machine)
{
    const Cycle fast = source.sample(machine, false).cycles;
    const Cycle slow = source.sample(machine, true).cycles;
    return slow > fast ? slow - fast : 0;
}

TEST(ArithMagnifier, DelayedInputCreatesContention)
{
    Machine machine;
    ArithMagnifierConfig config;
    config.stages = 500;
    ArithMagnifier magnifier(config);
    const Cycle delta = sampleDelta(magnifier, machine);
    EXPECT_GT(delta, 500u)
        << "divider contention must amplify the initial delay";
}

TEST(ArithMagnifier, DeltaGrowsWithStages)
{
    Machine machine;
    Cycle previous = 0;
    for (int stages : {200, 800, 3200}) {
        ArithMagnifierConfig config;
        config.stages = stages;
        ArithMagnifier magnifier(config);
        const Cycle delta = sampleDelta(magnifier, machine);
        EXPECT_GT(delta, previous) << "stages=" << stages;
        previous = delta;
    }
}

TEST(ArithMagnifier, UsesNoCacheBeyondTheHeads)
{
    Machine machine;
    ArithMagnifierConfig config;
    config.stages = 100;
    ArithMagnifier magnifier(config);
    const auto &l1 = machine.hierarchy().l1();
    magnifier.sample(machine, false); // input present
    const std::uint64_t misses_before = l1.stats().misses;
    magnifier.sample(machine, false);
    // Only sync + two head lines can miss per run.
    EXPECT_LE(l1.stats().misses - misses_before, 3u);
}

TEST(ArithMagnifier, TimerInterruptFreezesTheDelta)
{
    // Fig. 12's saturation: once the runtime crosses the interrupt
    // interval, the drain re-aligns the paths and the delta stops
    // growing.
    MachineConfig mc;
    mc.withInterrupts(0.05); // 100k cycles: small for test speed
    Machine machine(mc);

    ArithMagnifierConfig config;
    config.stages = 3200; // runtime spans several interrupt intervals
    ArithMagnifier magnifier(config);
    const Cycle capped_delta = sampleDelta(magnifier, machine);

    Machine free_machine; // no interrupts
    const Cycle free_delta = sampleDelta(magnifier, free_machine);

    EXPECT_LT(capped_delta, free_delta)
        << "pipeline resets must limit stateless magnification";
}

} // namespace
} // namespace hr
