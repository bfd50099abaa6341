#include "gadgets/racing.hh"

#include "util/log.hh"

namespace hr
{

// ---------------------------------------------------------------------
// PaRaceProgram / PaRace (section 5.1).
// ---------------------------------------------------------------------

PaRaceProgram::PaRaceProgram(const PaRaceConfig &config,
                             const TargetExpr &expr)
    : config_(config)
{
    ProgramBuilder builder("pa_race[" + expr.name + "]");
    xReg_ = builder.newReg(); // attack input: 0 = train, 1 = attack
    const RegId arg_reg = builder.newReg(); // runtime expression argument
    panicIf(arg_reg != kArgReg, "argReg allocation order violated");

    // omx = 1 - x, computed up front (cheap, independent of the race).
    RegId omx = builder.binopImm(Opcode::Sub, xReg_, 1);
    RegId neg_omx = builder.binopImm(Opcode::Mul, omx, -1);

    // Synchronizing head: a load that must miss, on which both paths
    // depend, so they reach the backend long before either can issue.
    RegId sync = builder.loadAbsolute(config_.syncAddr);

    // Measurement path: pre-extension + expression + post-extension.
    SeqBuilder measurement(builder);
    RegId terminator = embedExpression(measurement, sync, expr);
    builder.appendInterleaved({measurement.take()});

    // cond = (terminator & 0) + (1 - x): ready only when the whole
    // measurement path has completed; equals 1 - x.
    RegId cond = builder.binop(Opcode::Add, terminator, neg_omx);

    // if (cond) { baseline(); access[probe]; }
    auto end = builder.newLabel();
    builder.branch(cond, end, /*invert=*/true); // skip body iff cond == 0

    // Baseline path, also synchronized on the head. While this branch
    // is mispredicted (trained not-taken, actually taken), the body
    // executes transiently and races the measurement path above.
    RegId base = builder.binopImm(Opcode::And, sync, 0);
    RegId tail = builder.opChain(config_.refOp, config_.refOps, base, 1);
    RegId zeroed = builder.binopImm(Opcode::And, tail, 0);
    builder.loadOrdered(config_.probeAddr, zeroed);

    builder.bind(end);
    builder.halt();
    program_ = builder.take();
}

void
PaRaceProgram::train(Machine &machine, std::int64_t arg)
{
    for (int i = 0; i < config_.trainRounds; ++i) {
        machine.flushLine(config_.syncAddr);
        machine.run(program_, {{xReg_, 0}, {kArgReg, arg}});
        machine.settle();
        // Training executes the body architecturally (cond = 1), which
        // touches the probe; clean that up (requirement (b) analogue).
        machine.flushLine(config_.probeAddr);
    }
}

RunResult
PaRaceProgram::runAttack(Machine &machine, std::int64_t arg)
{
    machine.flushLine(config_.syncAddr);
    return machine.run(program_, {{xReg_, 1}, {kArgReg, arg}});
}

bool
PaRaceProgram::attackAndProbe(Machine &machine, std::int64_t arg)
{
    machine.flushLine(config_.probeAddr);
    runAttack(machine, arg);
    machine.settle();
    return machine.probeLevel(config_.probeAddr) != 0;
}

std::string
PaRace::describe() const
{
    return "transient P/A race: expression vs reference path, "
           "result encoded as presence of the probe line";
}

void
PaRace::configure(const ParamSet &params)
{
    cfg_.refOp = opcodeParam(params, "ref_op", cfg_.refOp);
    cfg_.refOps = static_cast<int>(params.getInt("ref_ops", cfg_.refOps));
    cfg_.targetOp = opcodeParam(params, "op", cfg_.targetOp);
    cfg_.slowOps =
        static_cast<int>(params.getInt("slow_ops", cfg_.slowOps));
    cfg_.fastOps =
        static_cast<int>(params.getInt("fast_ops", cfg_.fastOps));
    cfg_.trainRounds = static_cast<int>(
        params.getInt("train_rounds", cfg_.trainRounds));
    // Reconfiguration invalidates anything built from the old
    // parameters.
    slowRace_.reset();
    fastRace_.reset();
    boundProbe_ = 0;
}

TimingSample
PaRace::sample(Machine &machine, bool secret)
{
    // A fresh program per observation: cold predictor state, so the
    // race is trained from scratch every time.
    PaRaceProgram race(cfg_, TargetExpr::opChain(
                                 cfg_.targetOp,
                                 secret ? cfg_.slowOps : cfg_.fastOps));
    const Cycle t0 = machine.now();
    race.train(machine);
    const bool present = race.attackAndProbe(machine);
    TimingSample s;
    s.cycles = machine.now() - t0;
    s.ns = machine.toNs(s.cycles);
    s.bit = present; // present == expression outlasted the baseline
    return s;
}

std::unique_ptr<TimingSource>
PaRace::clone() const
{
    return std::make_unique<PaRace>(cfg_);
}

void
PaRace::bindTarget(Machine &machine, Addr primary, Addr)
{
    if (binding_.boundTo(machine) && primary == boundProbe_ && slowRace_)
        return;
    binding_.bind(machine);
    boundProbe_ = primary;
    PaRaceConfig config = cfg_;
    if (primary != 0)
        config.probeAddr = primary;
    slowRace_ = std::make_unique<PaRaceProgram>(
        config, TargetExpr::opChain(cfg_.targetOp, cfg_.slowOps));
    fastRace_ = std::make_unique<PaRaceProgram>(
        config, TargetExpr::opChain(cfg_.targetOp, cfg_.fastOps));
}

void
PaRace::primeEncoder(Machine &machine, bool present)
{
    race(present).train(machine);
}

void
PaRace::transmit(Machine &machine, bool present)
{
    race(present).runAttack(machine);
}

PaRaceProgram &
PaRace::race(bool present)
{
    // present: probe fetched, i.e. the slow expression loses.
    fatalIf(!slowRace_ || !fastRace_, "pa_race: transmit before bindTarget");
    return present ? *slowRace_ : *fastRace_;
}

// ---------------------------------------------------------------------
// ReorderRace (section 5.2).
// ---------------------------------------------------------------------

ReorderRace::ReorderRace() : ReorderRace(ReorderRaceConfig{}) {}

ReorderRace::ReorderRace(const ReorderRaceConfig &config)
    : cfg_(config),
      readout_(PlruVariant::Reorder,
               {config.set, config.readoutRepeats, config.tagBase})
{
}

std::string
ReorderRace::describe() const
{
    return "non-transient reorder race: expression vs reference "
           "path, result encoded as A-before-B insertion order";
}

void
ReorderRace::configure(const ParamSet &params)
{
    cfg_.refOp = opcodeParam(params, "ref_op", cfg_.refOp);
    cfg_.refOps = static_cast<int>(params.getInt("ref_ops", cfg_.refOps));
    cfg_.targetOp = opcodeParam(params, "op", cfg_.targetOp);
    cfg_.slowOps =
        static_cast<int>(params.getInt("slow_ops", cfg_.slowOps));
    cfg_.fastOps =
        static_cast<int>(params.getInt("fast_ops", cfg_.fastOps));
    cfg_.set = static_cast<int>(params.getInt("set", cfg_.set));
    cfg_.tagBase =
        static_cast<int>(params.getInt("tag_base", cfg_.tagBase));
    cfg_.readoutRepeats = static_cast<int>(
        params.getInt("readout_repeats", cfg_.readoutRepeats));
    readout_ = PlruMagnifier(PlruVariant::Reorder,
                             {cfg_.set, cfg_.readoutRepeats, cfg_.tagBase});
    binding_ = {};
    aFirstRace_.reset();
    bFirstRace_.reset();
    addrA_ = addrB_ = 0;
    calibration_.reset();
}

bool
ReorderRace::compatible(const Machine &machine) const
{
    // The standalone readout (and the reorder pipeline) decode the
    // order from a W=4 tree-PLRU set.
    return hasPlruL1(machine);
}

void
ReorderRace::ensure(Machine &machine)
{
    if (binding_.boundTo(machine))
        return;
    const auto [a, b] = readout_.inputLines(machine);
    bindTarget(machine, a, b);
    binding_.bind(machine);
}

void
ReorderRace::calibrate(Machine &machine)
{
    ensure(machine);
    calibration_.set(calibrateThreshold(
                         [&](bool slow) {
                             readout_.prepare(machine);
                             readout_.forceInput(machine, slow);
                             return machine.toNs(readout_.amplify(machine));
                         },
                         "reorder_race::calibrate"),
                     machine);
}

TimingSample
ReorderRace::sample(Machine &machine, bool secret)
{
    ensure(machine);
    readout_.prepare(machine);
    // secret (slow observable) <=> A inserted first <=> the
    // measurement path wins the race, i.e. the *fast* expression.
    transmit(machine, secret);
    TimingSample s;
    s.cycles = readout_.amplify(machine);
    s.ns = machine.toNs(s.cycles);
    s.bit = calibration_.isSlow(machine, s.ns);
    return s;
}

std::unique_ptr<TimingSource>
ReorderRace::clone() const
{
    return std::make_unique<ReorderRace>(cfg_);
}

Program
ReorderRace::build(Addr a, Addr b, int target_ops) const
{
    const TargetExpr expr = TargetExpr::opChain(cfg_.targetOp, target_ops);
    ProgramBuilder builder("reorder_race[" + expr.name + "]");

    RegId sync = builder.loadAbsolute(cfg_.syncAddr);

    // Measurement path -> access[A].
    SeqBuilder measurement(builder);
    RegId terminator = embedExpression(measurement, sync, expr);
    measurement.loadOrdered(a, terminator);

    // Baseline path -> access[B].
    SeqBuilder baseline(builder);
    RegId base = baseline.binopImm(Opcode::And, sync, 0);
    RegId tail = baseline.opChain(cfg_.refOp, cfg_.refOps, base, 1);
    RegId zeroed = baseline.binopImm(Opcode::And, tail, 0);
    baseline.loadOrdered(b, zeroed);

    builder.appendInterleaved({measurement.take(), baseline.take()});
    builder.halt();
    return builder.take();
}

void
ReorderRace::bindTarget(Machine &machine, Addr primary, Addr secondary)
{
    fatalIf(secondary == 0,
            "reorder_race: needs both input lines (A and B)");
    if (bindingRaces_.boundTo(machine) && primary == addrA_ &&
        secondary == addrB_ && aFirstRace_) {
        return;
    }
    fatalIf(primary == secondary, "reorder_race: A and B must differ");
    bindingRaces_.bind(machine);
    addrA_ = primary;
    addrB_ = secondary;
    aFirstRace_ =
        std::make_unique<Program>(build(primary, secondary, cfg_.fastOps));
    bFirstRace_ =
        std::make_unique<Program>(build(primary, secondary, cfg_.slowOps));
}

void
ReorderRace::primeEncoder(Machine &, bool)
{
    // No speculation anywhere: nothing to train.
}

void
ReorderRace::transmit(Machine &machine, bool present)
{
    fatalIf(!aFirstRace_ || !bFirstRace_,
            "reorder_race: transmit before bindTarget");
    machine.flushLine(cfg_.syncAddr);
    machine.run(present ? *aFirstRace_ : *bFirstRace_);
    machine.settle();
}

} // namespace hr
