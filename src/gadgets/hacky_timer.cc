#include "gadgets/hacky_timer.hh"

#include <algorithm>

#include "timer/calibration.hh"
#include "util/log.hh"

namespace hr
{

namespace
{

/** The line sample() times: cold (secret) or L1-resident. */
constexpr Addr kScratch = 0x500'0000;

/**
 * Magnifier length for a clock: each pattern period contributes
 * roughly three L1 misses versus six hits; size the traversal so the
 * slow/fast gap spans several timer ticks.
 */
int
autoRepeats(const Machine &machine, double resolution_ns)
{
    const auto &mem = machine.config().memory;
    const double per_period =
        3.0 * static_cast<double>(mem.l2Latency - mem.l1Latency);
    const double target_cycles =
        4.0 * resolution_ns * machine.config().ghz;
    const int repeats = static_cast<int>(target_cycles / per_period) + 1;
    return std::max(repeats, 16);
}

} // namespace

std::string
HackyTimer::describe() const
{
    return "the composed stealthy timer (race + PLRU magnifier + "
           "coarse clock): was the scratch load an L1 hit?";
}

void
HackyTimer::configure(const ParamSet &params)
{
    cfg_.refOps = static_cast<int>(params.getInt("ref_ops", cfg_.refOps));
    cfg_.refOp = opcodeParam(params, "ref_op", cfg_.refOp);
    cfg_.magnifierRepeats = static_cast<int>(
        params.getInt("repeats", cfg_.magnifierRepeats));
    cfg_.plruSet = static_cast<int>(params.getInt("set", cfg_.plruSet));
    cfg_.plruTagBase =
        static_cast<int>(params.getInt("tag_base", cfg_.plruTagBase));
    cfg_.timer.resolutionNs =
        params.getDouble("resolution_ns", cfg_.timer.resolutionNs);
    cfg_.timer.jitterNs = params.getDouble("jitter_ns", cfg_.timer.jitterNs);
    binding_ = {};
}

bool
HackyTimer::compatible(const Machine &machine) const
{
    return hasPlruL1(machine);
}

std::unique_ptr<TimingSource>
HackyTimer::clone() const
{
    return std::make_unique<HackyTimer>(cfg_);
}

void
HackyTimer::ensure(Machine &machine)
{
    if (binding_.boundTo(machine))
        return;
    TimerConfig timer = cfg_.timer;
    timer.ghz = machine.config().ghz;
    clock_ = std::make_unique<CoarseTimer>(timer);
    magnifier_ = PlruMagnifier(
        PlruVariant::PresenceAbsence,
        {cfg_.plruSet,
         cfg_.magnifierRepeats > 0
             ? cfg_.magnifierRepeats
             : autoRepeats(machine, cfg_.timer.resolutionNs),
         cfg_.plruTagBase});
    race_ = std::make_unique<PaRaceProgram>(
        raceConfig(machine), TargetExpr::loadIndirect(PaRaceProgram::kArgReg));
    thresholdNs_ = -1.0;
    binding_.bind(machine);
}

PaRaceConfig
HackyTimer::raceConfig(Machine &machine)
{
    PaRaceConfig race;
    race.syncAddr = cfg_.syncAddr;
    race.probeAddr = magnifier_.inputLines(machine).first; // magnified
    race.refOp = cfg_.refOp;
    race.refOps = cfg_.refOps;
    race.trainRounds = cfg_.trainRounds;
    return race;
}

double
HackyTimer::magnifyAndTime(Machine &machine)
{
    const Cycle t0 = machine.now();
    const double begin = clock_->nowNs(t0);
    magnifier_.traverse(machine);
    const double end = clock_->nowNs(machine.now());
    stats_.cyclesSpent += machine.now() - t0;
    return end - begin;
}

void
HackyTimer::calibrate(Machine &machine)
{
    ensure(machine);
    // Known-fast: probe absent. Known-slow: probe present (inserted the
    // same way the racing gadget would insert it).
    thresholdNs_ = calibrateThreshold(
                       [&](bool slow) {
                           magnifier_.prepare(machine);
                           magnifier_.forceInput(machine, slow);
                           return magnifyAndTime(machine);
                       },
                       "HackyTimer::calibrate")
                       .thresholdNs;
}

bool
HackyTimer::decide(double observed_ns) const
{
    panicIf(thresholdNs_ < 0, "HackyTimer used before calibrate()");
    return observed_ns > thresholdNs_;
}

bool
HackyTimer::loadIsSlow(Machine &machine, Addr target)
{
    ensure(machine);
    ++stats_.queries;
    const Cycle t0 = machine.now();
    race_->train(machine, static_cast<std::int64_t>(cfg_.trainAddr));
    magnifier_.prepare(machine);
    race_->runAttack(machine, static_cast<std::int64_t>(target));
    stats_.cyclesSpent += machine.now() - t0;
    return decide(magnifyAndTime(machine));
}

bool
HackyTimer::exprIsSlow(Machine &machine, const TargetExpr &expr)
{
    ensure(machine);
    ++stats_.queries;
    PaRaceProgram race(raceConfig(machine), expr);
    const Cycle t0 = machine.now();
    race.train(machine);
    magnifier_.prepare(machine);
    race.runAttack(machine);
    stats_.cyclesSpent += machine.now() - t0;
    return decide(magnifyAndTime(machine));
}

TimingSample
HackyTimer::sample(Machine &machine, bool secret)
{
    ensure(machine);
    if (thresholdNs_ < 0)
        calibrate(machine);
    // secret (slow observable): the scratch line is cold.
    if (secret)
        machine.flushLine(kScratch);
    else
        machine.warm(kScratch, 1);
    const Cycle t0 = machine.now();
    TimingSample s;
    s.bit = loadIsSlow(machine, kScratch);
    s.cycles = machine.now() - t0;
    s.ns = machine.toNs(s.cycles);
    return s;
}

} // namespace hr
