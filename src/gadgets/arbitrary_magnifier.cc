#include "gadgets/arbitrary_magnifier.hh"

#include "util/log.hh"

namespace hr
{

std::string
ArbitraryMagnifier::describe() const
{
    return "replacement-policy-agnostic magnifier: misaligned "
           "racing paths cascade PAR evictions (chain reaction)";
}

void
ArbitraryMagnifier::configure(const ParamSet &params)
{
    cfg_.numSets =
        static_cast<int>(params.getInt("num_sets", cfg_.numSets));
    cfg_.seqLen = static_cast<int>(params.getInt("seq_len", cfg_.seqLen));
    cfg_.parLen = static_cast<int>(params.getInt("par_len", cfg_.parLen));
    cfg_.dist = static_cast<int>(params.getInt("dist", cfg_.dist));
    cfg_.repeats = static_cast<int>(params.getInt("repeats", cfg_.repeats));
    cfg_.prefetch = params.getBool("prefetch", cfg_.prefetch);
    cfg_.chainPadOps =
        static_cast<int>(params.getInt("chain_pad", cfg_.chainPadOps));
    cfg_.pathASlackOps =
        static_cast<int>(params.getInt("slack", cfg_.pathASlackOps));
    binding_ = {};
    calibration_.reset();
}

bool
ArbitraryMagnifier::compatible(const Machine &machine) const
{
    const auto &l1 = machine.hierarchy().l1().config();
    return cfg_.numSets > 0 && cfg_.numSets <= l1.numSets &&
           cfg_.numSets % 2 == 0 && cfg_.dist % 2 == 0 &&
           cfg_.seqLen < l1.assoc;
}

std::unique_ptr<TimingSource>
ArbitraryMagnifier::clone() const
{
    return std::make_unique<ArbitraryMagnifier>(cfg_);
}

Addr
ArbitraryMagnifier::seqAddr(int set, int k) const
{
    return static_cast<Addr>(set) * lineBytes_ +
           static_cast<Addr>(cfg_.seqTagBase + k) * stride_;
}

Addr
ArbitraryMagnifier::parAddrOffset(int set, int j) const
{
    // Static part of a PAR address; the per-iteration tag advance is
    // added at run time through the PAR base register, so each pass
    // uses fresh conflicting lines.
    return static_cast<Addr>(set) * lineBytes_ +
           static_cast<Addr>(cfg_.parTagBase + j) * stride_;
}

void
ArbitraryMagnifier::ensure(Machine &machine)
{
    if (binding_.boundTo(machine))
        return;
    const auto &l1 = machine.hierarchy().l1().config();
    fatalIf(cfg_.numSets <= 0 || cfg_.numSets > l1.numSets,
            "ArbitraryMagnifier: numSets exceeds L1 sets");
    fatalIf(cfg_.numSets % 2 != 0,
            "ArbitraryMagnifier: numSets must be even");
    fatalIf(cfg_.dist % 2 != 0,
            "ArbitraryMagnifier: dist must be even (odd steps restore "
            "odd steps)");
    fatalIf(cfg_.seqLen >= l1.assoc,
            "ArbitraryMagnifier: SEQ must fit in a set with room over");
    lineBytes_ = static_cast<Addr>(l1.lineBytes);
    stride_ = static_cast<Addr>(l1.numSets) * lineBytes_;

    ProgramBuilder builder("arb_magnify");

    // Loop-invariant setup.
    RegId repeats = builder.movImm(cfg_.repeats);
    const RegId par_base = builder.movImm(0);
    const std::int64_t par_advance =
        static_cast<std::int64_t>(stride_) * cfg_.parLen;

    // Synchronizing head and the two path heads. The chain registers
    // are seeded once, outside the loop, so the dependence chains are
    // loop-carried: a delay in one pass propagates into the next.
    RegId sync = builder.loadAbsolute(cfg_.syncAddr);
    RegId chain_a = builder.loadOrdered(cfg_.alignAddrA, sync);
    RegId chain_b = builder.loadOrdered(cfg_.inputAddr, sync);

    SeqBuilder path_a(builder);
    for (int i = 0; i < cfg_.numSets; i += 2) {
        for (int k = 0; k < cfg_.seqLen; ++k)
            path_a.loadOrderedInto(chain_a, seqAddr(i, k));
        const int pad_a = cfg_.chainPadOps + cfg_.pathASlackOps;
        for (int pad = 0; pad < pad_a; ++pad)
            path_a.chainOpImm(Opcode::Add, chain_a, 0);
        // PAR burst into the set PathB reads next (step i + 1):
        // independent loads, ordered only after this SEQ.
        for (int j = 0; j < cfg_.parLen; ++j) {
            Instruction par;
            par.op = Opcode::Load;
            par.dst = path_a.newReg();
            par.src0 = chain_a;
            par.scale0 = 0;
            par.src1 = par_base;
            par.scale1 = 1;
            par.imm = static_cast<std::int64_t>(parAddrOffset(i + 1, j));
            path_a.append(par);
        }
    }

    SeqBuilder path_b(builder);
    for (int i = 1; i < cfg_.numSets; i += 2) {
        for (int k = 0; k < cfg_.seqLen; ++k)
            path_b.loadOrderedInto(chain_b, seqAddr(i, k));
        for (int pad = 0; pad < cfg_.chainPadOps; ++pad)
            path_b.chainOpImm(Opcode::Add, chain_b, 0);
        if (cfg_.prefetch) {
            // Restore the set `dist` steps ahead (same parity, so a
            // set PathB will read again next pass. A restoring fill
            // can evict an already-restored line (random policy), so a
            // sweep leaves a casualty or two; those cost both input
            // polarities equally (paper footnote 6).
            const int target = (i + cfg_.dist) % cfg_.numSets;
            for (int k = 0; k < cfg_.seqLen; ++k)
                path_b.prefetchOrdered(seqAddr(target, k), chain_b);
        }
    }

    // The PAR tag advance for the next iteration; a one-add dependence
    // chain of its own.
    SeqBuilder advance(builder);
    advance.chainOpImm(Opcode::Add, par_base, par_advance);

    auto top = builder.newLabel();
    builder.bind(top);
    builder.appendInterleaved({path_a.take(), path_b.take(), advance.take()});
    builder.chainOpImm(Opcode::Sub, repeats, 1);
    builder.branch(repeats, top);
    builder.halt();
    program_ = builder.take();
    binding_.bind(machine);
}

void
ArbitraryMagnifier::prepare(Machine &machine)
{
    ensure(machine);
    // Reset to a reproducible state, then establish the initial
    // conditions. PAR conflict lines are staged in L2/L3 *first*: they
    // are numerous enough to cause inclusive-L3 evictions, which would
    // back-invalidate freshly warmed SEQ lines if done after them. SEQ
    // lines then go resident in L1 (attainable with any policy by
    // repeated access; paper footnote 6).
    machine.flushAllCaches();

    for (int pass = 0; pass < cfg_.repeats; ++pass) {
        const Addr pass_offset =
            static_cast<Addr>(pass) * static_cast<Addr>(cfg_.parLen) *
            stride_;
        for (int i = 1; i < cfg_.numSets; i += 2)
            for (int j = 0; j < cfg_.parLen; ++j)
                machine.warm(parAddrOffset(i, j) + pass_offset, 2);
    }

    for (int s = 0; s < cfg_.numSets; ++s)
        for (int k = 0; k < cfg_.seqLen; ++k)
            machine.warm(seqAddr(s, k), 1);
    machine.warm(cfg_.alignAddrA, 1);
    machine.flushLine(cfg_.syncAddr);
}

std::pair<Addr, Addr>
ArbitraryMagnifier::inputLines(Machine &machine)
{
    ensure(machine);
    return {cfg_.inputAddr, 0};
}

void
ArbitraryMagnifier::forceInput(Machine &machine, bool slow)
{
    // Input present = PathB aligned = no chain reaction = fast.
    if (slow)
        machine.flushLine(cfg_.inputAddr);
    else
        machine.warm(cfg_.inputAddr, 1);
}

Cycle
ArbitraryMagnifier::amplify(Machine &machine)
{
    ensure(machine);
    // An encoder's racing program may have warmed the sync line.
    machine.flushLine(cfg_.syncAddr);
    return machine.run(program_).cycles();
}

Cycle
ArbitraryMagnifier::run(Machine &machine, bool input_present)
{
    prepare(machine);
    forceInput(machine, !input_present);
    return machine.run(program_).cycles();
}

Cycle
ArbitraryMagnifier::measureDelta(Machine &machine)
{
    const Cycle fast = run(machine, true);
    const Cycle slow = run(machine, false);
    return slow > fast ? slow - fast : 0;
}

} // namespace hr
