/**
 * @file
 * Countermeasure analysis (paper section 8): delay-on-miss kills the
 * transient P/A racing gadget but leaves the non-transient reorder
 * gadget fully functional; timer fuzzing does not stop the magnifiers.
 */

#include <gtest/gtest.h>

#include "gadgets/hacky_timer.hh"
#include "gadgets/racing.hh"

namespace hr
{
namespace
{

TEST(DelayOnMiss, KillsTheTransientPaGadget)
{
    MachineConfig mc;
    mc.core.delayOnMiss = true;
    Machine machine(mc);
    PaRaceConfig config;
    config.refOps = 20;
    // A very slow expression: without the defence the probe would be
    // fetched transiently (see TransientPaRace.LongExprWinsRace).
    config.slowOps = 80;
    EXPECT_FALSE(PaRace(config).sample(machine, true).bit)
        << "DoM must hold the speculative probe miss until the branch "
           "resolves (and then it is squashed)";
}

TEST(DelayOnMiss, DoesNotBreakArchitecturalExecution)
{
    MachineConfig mc;
    mc.core.delayOnMiss = true;
    Machine machine(mc);
    ProgramBuilder builder("dom_arch");
    RegId counter = builder.movImm(20);
    RegId sum = builder.movImm(0);
    auto top = builder.newLabel();
    builder.bind(top);
    RegId v = builder.loadAbsolute(0x5000); // cold, inside a loop
    builder.binop(Opcode::Add, sum, v);
    builder.chainOpImm(Opcode::Sub, counter, 1);
    builder.branch(counter, top);
    builder.storeOrdered(0x6000, sum, sum);
    builder.halt();
    Program prog = builder.take();
    RunResult result = machine.run(prog);
    EXPECT_TRUE(result.halted);
}

TEST(DelayOnMiss, ReorderGadgetStillWorks)
{
    // The paper's key argument: DoM treats both of the reorder
    // gadget's loads as safe (they are non-speculative), yet they
    // still race and still transmit through insertion order.
    MachineConfig mc = MachineConfig::plruProfile();
    mc.core.delayOnMiss = true;
    Machine machine(mc);

    // The race's own readout: a 400-period reorder magnifier on set 3.
    ReorderRaceConfig config;
    config.set = 3;
    config.tagBase = 16;
    config.readoutRepeats = 400;
    config.refOps = 60;
    config.fastOps = 5;
    config.slowOps = 150;
    ReorderRace race(config);
    const Cycle fast_expr = race.sample(machine, true).cycles;
    const Cycle slow_expr = race.sample(machine, false).cycles;

    EXPECT_GT(fast_expr, slow_expr + 10000)
        << "no misspeculation anywhere: DoM cannot tell these loads "
           "from benign out-of-order execution";
}

TEST(FuzzyTimer, JitterDoesNotStopTheMagnifiedTimer)
{
    // "Fuzzy time" adds random noise to every clock edge; the PLRU
    // magnifier simply out-scales it (its gap grows without bound).
    MachineConfig mc = MachineConfig::plruProfile();
    Machine machine(mc);
    HackyTimerConfig config;
    config.refOps = 12;
    config.timer.jitterNs = 4000;   // jitter comparable to the tick
    config.magnifierRepeats = 4000; // out-magnify it
    HackyTimer timer(config);
    timer.calibrate(machine);

    constexpr Addr kTarget = 0x500'0000;
    int correct = 0;
    for (int trial = 0; trial < 8; ++trial) {
        if (trial % 2 == 0) {
            machine.warm(kTarget, 1);
            correct += !timer.loadIsSlow(machine, kTarget);
        } else {
            machine.flushLine(kTarget);
            correct += timer.loadIsSlow(machine, kTarget);
        }
    }
    EXPECT_GE(correct, 7)
        << "magnification must defeat clock-edge fuzzing";
}

TEST(TimerCoarsening, HundredMillisecondClockStillLoses)
{
    // The PLRU magnifier's rate is unbounded: scale repeats to any
    // coarsening (section 9: "others work to almost arbitrary degree").
    MachineConfig mc = MachineConfig::plruProfile();
    Machine machine(mc);
    HackyTimerConfig config;
    config.refOps = 12;
    config.timer.resolutionNs = 2e6; // 2 ms
    config.magnifierRepeats = 0;     // auto-scale
    HackyTimer timer(config);
    timer.calibrate(machine);
    constexpr Addr kTarget = 0x500'0000;
    machine.flushLine(kTarget);
    EXPECT_TRUE(timer.loadIsSlow(machine, kTarget));
    machine.warm(kTarget, 1);
    EXPECT_FALSE(timer.loadIsSlow(machine, kTarget));
}

} // namespace
} // namespace hr
