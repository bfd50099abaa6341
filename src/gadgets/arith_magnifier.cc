#include "gadgets/arith_magnifier.hh"

#include "util/log.hh"

namespace hr
{

std::string
ArithMagnifier::describe() const
{
    return "arithmetic-only magnifier: divider contention chain "
           "reaction, no cache use beyond two head loads";
}

void
ArithMagnifier::configure(const ParamSet &params)
{
    cfg_.stages = static_cast<int>(params.getInt("stages", cfg_.stages));
    cfg_.divChain =
        static_cast<int>(params.getInt("div_chain", cfg_.divChain));
    cfg_.parDivs = static_cast<int>(params.getInt("par_divs", cfg_.parDivs));
    cfg_.addBuffer =
        static_cast<int>(params.getInt("add_buffer", cfg_.addBuffer));
    binding_ = {};
    calibration_.reset();
}

std::unique_ptr<TimingSource>
ArithMagnifier::clone() const
{
    return std::make_unique<ArithMagnifier>(cfg_);
}

void
ArithMagnifier::ensure(Machine &machine)
{
    if (binding_.boundTo(machine))
        return;
    const auto &core = machine.config().core;
    fatalIf(cfg_.divChain <= 0 || cfg_.parDivs <= 0,
            "ArithMagnifier: bad stage sizing");
    // Racing stages must take the same time on both paths:
    //   mulChain * latMul == divChain * latDiv.
    const int mul_chain = static_cast<int>(
        (static_cast<Cycle>(cfg_.divChain) * core.fpDiv.latency) /
        core.intMul.latency);
    // Aligned case: PathA's burst occupies the divider for
    // parDivs * initInterval cycles after the racing stage; the ADD
    // buffer must outlast that so the next stage starts contention-free.
    const int add_buffer =
        cfg_.addBuffer > 0
            ? cfg_.addBuffer
            : static_cast<int>(cfg_.parDivs * core.fpDiv.initInterval) +
                  static_cast<int>(core.fpDiv.latency);

    ProgramBuilder builder("arith_magnify");

    RegId stages = builder.movImm(cfg_.stages);
    RegId sync = builder.loadAbsolute(cfg_.syncAddr);
    RegId head_a = builder.loadOrdered(cfg_.alignAddrA, sync);
    RegId head_b = builder.loadOrdered(cfg_.inputAddr, sync);

    // Chain registers seeded once outside the loop (non-zero so the
    // div/mul chains are well-behaved); the chains are loop-carried so
    // a delay in one stage propagates into all following stages.
    RegId chain_a = builder.binopImm(Opcode::And, head_a, 0);
    builder.chainOpImm(Opcode::Add, chain_a, 1);
    RegId chain_b = builder.binopImm(Opcode::And, head_b, 0);
    builder.chainOpImm(Opcode::Add, chain_b, 1);

    SeqBuilder path_a(builder);
    for (int m = 0; m < mul_chain; ++m)
        path_a.chainOpImm(Opcode::Mul, chain_a, 1);
    for (int d = 0; d < cfg_.parDivs; ++d)
        path_a.binopImm(Opcode::Div, chain_a, 1); // independent burst
    for (int a = 0; a < add_buffer; ++a)
        path_a.chainOpImm(Opcode::Add, chain_a, 0);

    SeqBuilder path_b(builder);
    for (int d = 0; d < cfg_.divChain; ++d)
        path_b.chainOpImm(Opcode::Div, chain_b, 1);
    for (int a = 0; a < add_buffer; ++a)
        path_b.chainOpImm(Opcode::Add, chain_b, 0);

    auto top = builder.newLabel();
    builder.bind(top);
    builder.appendInterleaved({path_a.take(), path_b.take()});
    builder.chainOpImm(Opcode::Sub, stages, 1);
    builder.branch(stages, top);
    builder.halt();
    program_ = builder.take();
    binding_.bind(machine);
}

const Program &
ArithMagnifier::program(Machine &machine)
{
    ensure(machine);
    return program_;
}

void
ArithMagnifier::prepare(Machine &machine)
{
    ensure(machine);
    machine.warm(cfg_.alignAddrA, 1);
    machine.flushLine(cfg_.syncAddr);
}

std::pair<Addr, Addr>
ArithMagnifier::inputLines(Machine &machine)
{
    ensure(machine);
    return {cfg_.inputAddr, 0};
}

void
ArithMagnifier::forceInput(Machine &machine, bool slow)
{
    // Input present = PathB aligned with PathA = fast.
    if (slow)
        machine.flushLine(cfg_.inputAddr);
    else
        machine.warm(cfg_.inputAddr, 1);
}

Cycle
ArithMagnifier::amplify(Machine &machine)
{
    // Re-chill the sync line in case an encoder's program warmed it
    // (prepare() is idempotent and input-preserving).
    prepare(machine);
    return machine.run(program_).cycles();
}

} // namespace hr
