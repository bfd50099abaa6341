#include "gadgets/repetition.hh"

#include "util/log.hh"

namespace hr
{

Cycle
StageBreakdown::total() const
{
    Cycle sum = 0;
    for (Cycle c : cycles)
        sum += c;
    return sum;
}

double
StageBreakdown::percent(std::size_t stage) const
{
    const Cycle sum = total();
    if (sum == 0)
        return 0.0;
    return 100.0 * static_cast<double>(cycles.at(stage)) /
           static_cast<double>(sum);
}

StageBreakdown
runStages(Machine &machine, std::vector<RepetitionStage> &stages,
          int rounds)
{
    fatalIf(stages.empty(), "runStages: no stages");
    StageBreakdown breakdown;
    for (const auto &stage : stages)
        breakdown.names.push_back(stage.name);
    breakdown.cycles.assign(stages.size(), 0);

    for (int round = 0; round < rounds; ++round) {
        for (std::size_t s = 0; s < stages.size(); ++s) {
            if (stages[s].setup)
                stages[s].setup(machine);
            RunResult result = machine.run(stages[s].program);
            breakdown.cycles[s] += result.cycles();
        }
    }
    return breakdown;
}

std::vector<RepetitionStage>
Repetition::stages(bool same_addr) const
{
    const Addr victim_addr = same_addr ? cfg_.probeAddr : cfg_.otherAddr;

    // Stage 1: evict — flush the probe line (an eviction-set traversal
    // in a browser; modelled by the clflush-like harness primitive so
    // the stage itself has constant cost).
    RepetitionStage evict;
    evict.name = "evict";
    {
        ProgramBuilder builder("fr_evict");
        RegId r = builder.movImm(0);
        builder.opChain(Opcode::Add, 40, r, 1); // fixed eviction work
        builder.halt();
        evict.program = builder.take();
    }
    evict.setup = [probe = cfg_.probeAddr](Machine &m) {
        m.flushLine(probe);
    };

    // Stage 2: load — the victim's access (same or different line).
    RepetitionStage load;
    load.name = "load";
    if (cfg_.racing) {
        load.program = makeConstantTimeStage(
            TargetExpr::loadLatency(victim_addr), Opcode::Add,
            cfg_.envelopeOps, cfg_.syncAddr, "fr_load_raced");
        load.setup = [sync = cfg_.syncAddr](Machine &m) {
            m.flushLine(sync);
        };
    } else {
        ProgramBuilder builder("fr_load");
        builder.loadAbsolute(victim_addr);
        builder.halt();
        load.program = builder.take();
    }

    // Stage 3: reload — the attacker's probe access.
    RepetitionStage reload;
    reload.name = "reload";
    {
        ProgramBuilder builder("fr_reload");
        builder.loadAbsolute(cfg_.probeAddr);
        builder.halt();
        reload.program = builder.take();
    }

    std::vector<RepetitionStage> out;
    out.push_back(std::move(evict));
    out.push_back(std::move(load));
    out.push_back(std::move(reload));
    return out;
}

std::string
Repetition::describe() const
{
    return "flush+reload repetition rounds; racing=0 shows the "
           "paper's cancellation failure, racing=1 the fix";
}

void
Repetition::configure(const ParamSet &params)
{
    cfg_.rounds = static_cast<int>(params.getInt("rounds", cfg_.rounds));
    cfg_.racing = params.getBool("racing", cfg_.racing);
    cfg_.envelopeOps =
        static_cast<int>(params.getInt("envelope_ops", cfg_.envelopeOps));
    calibration_.reset();
}

void
Repetition::calibrate(Machine &machine)
{
    // Lenient: with racing=0 the two states are *designed* to be
    // inseparable (that is the paper's point).
    calibration_.set(calibrateThresholdLenient([&](bool slow) {
                         return observe(machine, slow).ns;
                     }),
                     machine);
}

TimingSample
Repetition::sample(Machine &machine, bool secret)
{
    TimingSample s = observe(machine, secret);
    s.bit = calibration_.isSlow(machine, s.ns);
    return s;
}

std::unique_ptr<TimingSource>
Repetition::clone() const
{
    return std::make_unique<Repetition>(cfg_);
}

TimingSample
Repetition::observe(Machine &machine, bool secret)
{
    // secret (slow observable): the victim touches a *different* line,
    // so every reload stage misses.
    machine.warm(cfg_.otherAddr, 1);
    std::vector<RepetitionStage> round = stages(/*same_addr=*/!secret);
    const StageBreakdown breakdown = runStages(machine, round, cfg_.rounds);
    TimingSample s;
    s.cycles = breakdown.total();
    s.ns = machine.toNs(s.cycles);
    for (std::size_t i = 0; i < breakdown.names.size(); ++i)
        s.aux.emplace_back(breakdown.names[i],
                           static_cast<double>(breakdown.cycles[i]));
    return s;
}

Program
makeConstantTimeStage(const TargetExpr &payload, Opcode ref_op,
                      int ref_ops, Addr sync_addr, const std::string &name)
{
    ProgramBuilder builder(name);
    RegId sync = builder.loadAbsolute(sync_addr);

    SeqBuilder measurement(builder);
    embedExpression(measurement, sync, payload);

    SeqBuilder baseline(builder);
    RegId base = baseline.binopImm(Opcode::And, sync, 0);
    baseline.opChain(ref_op, static_cast<std::size_t>(ref_ops), base, 1);

    builder.appendInterleaved({measurement.take(), baseline.take()});
    builder.halt();
    return builder.take();
}

} // namespace hr
