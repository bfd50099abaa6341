#include "gadgets/plru_magnifier.hh"

#include "util/log.hh"

namespace hr
{

namespace
{

enum Line
{
    kA,
    kB,
    kC,
    kD,
    kE,
};

} // namespace

std::string
PlruMagnifier::name() const
{
    return variant_ == PlruVariant::PresenceAbsence
               ? "plru_pa_magnifier"
               : "plru_reorder_magnifier";
}

std::string
PlruMagnifier::describe() const
{
    return variant_ == PlruVariant::PresenceAbsence
               ? "W=4 tree-PLRU magnifier: presence of line A "
                 "pins a miss-per-period traversal"
               : "W=4 tree-PLRU magnifier: A-before-B insertion "
                 "order pins a miss-per-period traversal";
}

void
PlruMagnifier::configure(const ParamSet &params)
{
    cfg_.set = static_cast<int>(params.getInt("set", cfg_.set));
    cfg_.repeats = static_cast<int>(params.getInt("repeats", cfg_.repeats));
    cfg_.tagBase =
        static_cast<int>(params.getInt("tag_base", cfg_.tagBase));
    binding_ = {};
    calibration_.reset();
}

bool
PlruMagnifier::compatible(const Machine &machine) const
{
    return hasPlruL1(machine) &&
           cfg_.set < machine.hierarchy().l1().config().numSets;
}

std::unique_ptr<TimingSource>
PlruMagnifier::clone() const
{
    return std::make_unique<PlruMagnifier>(variant_, cfg_);
}

void
PlruMagnifier::ensure(Machine &machine)
{
    if (binding_.boundTo(machine))
        return;
    const auto &l1 = machine.hierarchy().l1().config();
    fatalIf(l1.assoc != 4,
            "PlruMagnifier implements the paper's W=4 pattern; "
            "configure a 4-way L1 (see MachineConfig) or use "
            "plru_pin_magnifier for other associativities");
    fatalIf(l1.policy != PolicyKind::TreePlru,
            "PlruMagnifier requires a tree-PLRU L1");
    lines_ = sameSetLines(machine, cfg_.set, 5, cfg_.tagBase);

    ProgramBuilder builder(variant_ == PlruVariant::PresenceAbsence
                               ? "plru_magnify_pa"
                               : "plru_magnify_reorder");
    RegId r = builder.movImm(0);
    const auto pattern = period();
    for (int rep = 0; rep < cfg_.repeats; ++rep)
        for (Addr addr : pattern)
            builder.loadOrderedInto(r, addr);
    builder.halt();
    traverse_ = builder.take();
    binding_.bind(machine);
}

const std::vector<Addr> &
PlruMagnifier::lines(Machine &machine)
{
    ensure(machine);
    return lines_;
}

std::vector<Addr>
PlruMagnifier::sameSetLines(const Machine &machine, int set_index,
                            int count, int tag_base)
{
    const auto &l1 = machine.hierarchy().l1().config();
    fatalIf(set_index < 0 || set_index >= l1.numSets,
            "sameSetLines: bad set index");
    const Addr stride =
        static_cast<Addr>(l1.numSets) * static_cast<Addr>(l1.lineBytes);
    std::vector<Addr> out;
    out.reserve(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
        out.push_back(static_cast<Addr>(set_index) *
                          static_cast<Addr>(l1.lineBytes) +
                      static_cast<Addr>(tag_base + k) * stride);
    }
    return out;
}

std::vector<Addr>
PlruMagnifier::pattern(Machine &machine)
{
    ensure(machine);
    return period();
}

std::vector<Addr>
PlruMagnifier::period() const
{
    const auto &l = lines_;
    if (variant_ == PlruVariant::PresenceAbsence)
        return {l[kB], l[kC], l[kE], l[kC], l[kD], l[kC]};
    return {l[kC], l[kE], l[kC], l[kD], l[kC], l[kB]};
}

void
PlruMagnifier::prepare(Machine &machine)
{
    ensure(machine);
    // Clear the five lines everywhere, then establish Fig. 3(1):
    // ways [B,C,D,E], tree = (0,0,1) => eviction candidate B.
    for (Addr addr : lines_)
        machine.flushLine(addr);
    machine.warm(lines_[kB], 1);
    machine.warm(lines_[kC], 1);
    machine.warm(lines_[kD], 1);
    machine.warm(lines_[kE], 1);
    machine.warm(lines_[kD], 1); // extra touch flips the right subtree
    // Stage A in L2 so the racing access fills L1 quickly.
    machine.warm(lines_[kA], 2);
}

std::pair<Addr, Addr>
PlruMagnifier::inputLines(Machine &machine)
{
    ensure(machine);
    return {lines_[kA], lines_[kB]};
}

void
PlruMagnifier::forceInput(Machine &machine, bool slow)
{
    ensure(machine);
    if (variant_ == PlruVariant::PresenceAbsence) {
        // Slow: A present (fetched into L1). Fast: A stays in L2.
        if (slow)
            machine.warm(lines_[kA], 1);
        return;
    }
    // Reorder: slow iff A is inserted before B.
    machine.warm(slow ? lines_[kA] : lines_[kB], 1);
    machine.warm(slow ? lines_[kB] : lines_[kA], 1);
}

Cycle
PlruMagnifier::amplify(Machine &machine)
{
    return traverse(machine).cycles;
}

Program
PlruMagnifier::primeProgram(Machine &machine)
{
    // The attacker-realistic version of prepare(): a serial load chain
    // B, C, D, E, D (order guarantees the fills land in way order and
    // the final D touch sets the right-subtree pointer).
    const auto &l = lines(machine);
    ProgramBuilder builder("plru_prime");
    RegId r = builder.movImm(0);
    for (Addr addr : {l[kB], l[kC], l[kD], l[kE], l[kD]})
        r = builder.loadOrdered(addr, r);
    builder.halt();
    return builder.take();
}

MagnifierResult
PlruMagnifier::traverse(Machine &machine)
{
    ensure(machine);
    const std::uint64_t misses_before = machine.cacheMisses(1);
    RunResult run = machine.run(traverse_);
    MagnifierResult result;
    result.cycles = run.cycles();
    result.l1Misses = machine.cacheMisses(1) - misses_before;
    return result;
}

} // namespace hr
