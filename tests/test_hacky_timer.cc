/**
 * @file
 * HackyTimer and repetition-gadget tests: the end-to-end stealthy
 * timer, the stage runner, and the constant-time envelope.
 */

#include <gtest/gtest.h>

#include "gadgets/hacky_timer.hh"
#include "gadgets/repetition.hh"

namespace hr
{
namespace
{

class HackyTimerTest : public ::testing::Test
{
  protected:
    HackyTimerTest() : machine_(MachineConfig::plruProfile()) {}

    Machine machine_;
};

TEST_F(HackyTimerTest, CalibratesASaneThreshold)
{
    HackyTimer timer;
    timer.calibrate(machine_);
    EXPECT_GT(timer.thresholdNs(), 0.0);
    // With a 5 us clock the threshold must span multiple ticks.
    EXPECT_GE(timer.thresholdNs(), 5000.0);
}

TEST_F(HackyTimerTest, UseBeforeCalibrateDies)
{
    HackyTimer timer;
    EXPECT_DEATH((void)timer.loadIsSlow(machine_, 0x500'0000),
                 "before calibrate");
}

TEST_F(HackyTimerTest, ClassifiesLoadsRepeatedly)
{
    HackyTimerConfig config;
    config.refOps = 12;
    HackyTimer timer(config);
    timer.calibrate(machine_);
    constexpr Addr kTarget = 0x500'0000;
    int correct = 0;
    for (int trial = 0; trial < 10; ++trial) {
        if (trial % 2 == 0) {
            machine_.warm(kTarget, 1);
            correct += !timer.loadIsSlow(machine_, kTarget);
        } else {
            machine_.flushLine(kTarget);
            correct += timer.loadIsSlow(machine_, kTarget);
        }
    }
    EXPECT_EQ(correct, 10) << "the stealthy timer must be reliable";
}

TEST_F(HackyTimerTest, SeparatesL3FromMemoryWithLongerReference)
{
    HackyTimerConfig config;
    config.refOps = 30; // ~90+ cycles: above L3 hit, below memory
    HackyTimer timer(config);
    timer.calibrate(machine_);
    constexpr Addr kTarget = 0x500'0000;

    machine_.warm(kTarget, 3); // LLC hit
    EXPECT_FALSE(timer.loadIsSlow(machine_, kTarget));
    machine_.flushLine(kTarget); // memory
    EXPECT_TRUE(timer.loadIsSlow(machine_, kTarget));
}

TEST_F(HackyTimerTest, ExprComparatorTracksTheReference)
{
    HackyTimerConfig config;
    config.refOp = Opcode::Add;
    config.refOps = 40;
    HackyTimer timer(config);
    timer.calibrate(machine_);
    EXPECT_FALSE(
        timer.exprIsSlow(machine_, TargetExpr::opChain(Opcode::Add, 8)));
    EXPECT_TRUE(
        timer.exprIsSlow(machine_, TargetExpr::opChain(Opcode::Add, 90)));
    // MUL targets weigh ~3x.
    EXPECT_TRUE(
        timer.exprIsSlow(machine_, TargetExpr::opChain(Opcode::Mul, 25)));
}

TEST_F(HackyTimerTest, WorksThroughAOneMillisecondClock)
{
    HackyTimerConfig config;
    config.timer.resolutionNs = 1e6;
    config.refOps = 12;
    config.magnifierRepeats = 0; // auto-scale to the clock
    HackyTimer timer(config);
    timer.calibrate(machine_);
    constexpr Addr kTarget = 0x500'0000;
    machine_.warm(kTarget, 1);
    EXPECT_FALSE(timer.loadIsSlow(machine_, kTarget));
    machine_.flushLine(kTarget);
    EXPECT_TRUE(timer.loadIsSlow(machine_, kTarget));
}

TEST_F(HackyTimerTest, StatsAccumulate)
{
    HackyTimer timer;
    timer.calibrate(machine_);
    machine_.warm(0x500'0000, 1);
    (void)timer.loadIsSlow(machine_, 0x500'0000);
    (void)timer.loadIsSlow(machine_, 0x500'0000);
    EXPECT_EQ(timer.stats().queries, 2u);
    EXPECT_GT(timer.stats().cyclesSpent, 0u);
}

TEST(RepetitionGadget, AccumulatesPerStageCycles)
{
    Machine machine;
    auto make_stage = [](const char *name, int ops) {
        RepetitionStage stage;
        stage.name = name;
        ProgramBuilder builder(name);
        RegId r = builder.movImm(1);
        builder.opChain(Opcode::Add, static_cast<std::size_t>(ops), r,
                        1);
        builder.halt();
        stage.program = builder.take();
        return stage;
    };
    std::vector<RepetitionStage> stages;
    stages.push_back(make_stage("short", 20));
    stages.push_back(make_stage("long", 200));
    StageBreakdown breakdown = runStages(machine, stages, 10);
    ASSERT_EQ(breakdown.cycles.size(), 2u);
    EXPECT_GT(breakdown.cycles[1], breakdown.cycles[0] * 3);
    EXPECT_NEAR(breakdown.percent(0) + breakdown.percent(1), 100.0,
                1e-9);
}

TEST(RepetitionGadget, SetupHookRunsEveryRound)
{
    Machine machine;
    int calls = 0;
    RepetitionStage stage;
    stage.name = "s";
    ProgramBuilder builder("s");
    builder.halt();
    stage.program = builder.take();
    stage.setup = [&calls](Machine &) { ++calls; };
    std::vector<RepetitionStage> stages;
    stages.push_back(std::move(stage));
    runStages(machine, stages, 7);
    EXPECT_EQ(calls, 7);
}

TEST(ConstantTimeStage, EnvelopeHidesPayloadVariance)
{
    Machine machine;
    constexpr Addr kVictim = 0x600'0000;
    Program stage = makeConstantTimeStage(
        TargetExpr::loadLatency(kVictim), Opcode::Add, 300, 0x100'0000);

    machine.flushLine(0x100'0000);
    machine.flushLine(kVictim); // payload: slow miss
    Program copy1 = stage;
    const Cycle miss_time = machine.run(copy1).cycles();

    machine.flushLine(0x100'0000);
    machine.warm(kVictim, 1); // payload: fast hit
    const Cycle hit_time = machine.run(copy1).cycles();

    const double ratio = static_cast<double>(miss_time) /
                         static_cast<double>(hit_time);
    EXPECT_NEAR(ratio, 1.0, 0.03)
        << "the racing envelope must absorb the payload's variance";
}

} // namespace
} // namespace hr
