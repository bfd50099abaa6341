#include "analysis/taint.hh"

#include <algorithm>
#include <deque>

#include "isa/semantics.hh"
#include "util/memory_image.hh"

namespace hr
{
namespace
{

/** One abstract register/memory value: constant lattice + taint bit. */
struct AbsVal
{
    bool known = false;
    std::int64_t value = 0;
    bool tainted = false;

    static AbsVal constant(std::int64_t v) { return {true, v, false}; }
    static AbsVal unknown(bool taint = false) { return {false, 0, taint}; }
};

AbsVal
join(const AbsVal &a, const AbsVal &b)
{
    AbsVal out;
    out.known = a.known && b.known && a.value == b.value;
    out.value = out.known ? a.value : 0;
    out.tainted = a.tainted || b.tainted;
    return out;
}

bool
sameVal(const AbsVal &a, const AbsVal &b)
{
    return a.known == b.known && a.tainted == b.tainted &&
           (!a.known || a.value == b.value);
}

/**
 * Flow-sensitive abstract machine state at one program point:
 * registers plus a word-granular memory environment. Absent memory
 * entries read the caller's initial image unless a store to an
 * unresolvable address havocked the environment.
 */
struct State
{
    bool reachable = false;
    std::vector<AbsVal> regs;
    std::map<Addr, AbsVal> mem; ///< word addr -> abstract value
    bool memHavoc = false;
    bool memHavocTainted = false;
};

bool
joinInto(State &into, const State &from)
{
    if (!from.reachable)
        return false;
    if (!into.reachable) {
        into = from;
        return true;
    }
    bool changed = false;
    for (std::size_t r = 0; r < into.regs.size(); ++r) {
        AbsVal j = join(into.regs[r], from.regs[r]);
        if (!sameVal(j, into.regs[r])) {
            into.regs[r] = j;
            changed = true;
        }
    }
    // Memory: keep only keys both sides track; a key absent on either
    // side falls back to that side's base semantics, which the havoc
    // flags summarize conservatively.
    for (auto it = into.mem.begin(); it != into.mem.end();) {
        auto other = from.mem.find(it->first);
        if (other == from.mem.end()) {
            it = into.mem.erase(it);
            changed = true;
            continue;
        }
        AbsVal j = join(it->second, other->second);
        if (!sameVal(j, it->second)) {
            it->second = j;
            changed = true;
        }
        ++it;
    }
    if (from.memHavoc && !into.memHavoc) {
        into.memHavoc = true;
        changed = true;
    }
    if (from.memHavocTainted && !into.memHavocTainted) {
        into.memHavocTainted = true;
        changed = true;
    }
    return changed;
}

struct EaResult
{
    bool known = false;
    Addr ea = 0;
    bool tainted = false;
};

/**
 * imm + src0*scale0 + src1*scale1 over the abstract state. A zero
 * scale is an ordering-only dependence: the operand never reaches the
 * address, so it contributes neither unknown-ness nor taint.
 */
EaResult
abstractEa(const Instruction &inst, const State &state)
{
    EaResult out;
    out.known = true;
    std::uint64_t ea = static_cast<std::uint64_t>(inst.imm);
    const RegId srcs[2] = {inst.src0, inst.src1};
    const std::int8_t scales[2] = {inst.scale0, inst.scale1};
    for (int i = 0; i < 2; ++i) {
        if (srcs[i] == kNoReg || scales[i] == 0)
            continue;
        const AbsVal &v = state.regs[srcs[i]];
        out.tainted |= v.tainted;
        if (!v.known) {
            out.known = false;
            continue;
        }
        ea += eaTerm(v.value, scales[i]);
    }
    out.ea = static_cast<Addr>(ea);
    return out;
}

/** Structural CFG successors (no constant pruning; postdom/regions). */
std::vector<std::int32_t>
structuralSuccs(const DecodedProgram &program, std::int32_t pc)
{
    const DecodedOp &op = program.ops[static_cast<std::size_t>(pc)];
    const auto size = static_cast<std::int32_t>(program.size());
    std::vector<std::int32_t> out;
    switch (op.next) {
      case NextPcKind::Halt:
        break;
      case NextPcKind::Branch: {
        const std::int32_t target =
            program.code[static_cast<std::size_t>(pc)].target;
        if (target >= 0 && target < size)
            out.push_back(target);
        if (pc + 1 < size)
            out.push_back(pc + 1);
        break;
      }
      default:
        if (op.nextPc >= 0 && op.nextPc < size)
            out.push_back(op.nextPc);
        break;
    }
    return out;
}

/** Dense bitset postdominator sets (programs are a few thousand ops). */
class PostDoms
{
  public:
    explicit PostDoms(const DecodedProgram &program)
        : n_(static_cast<std::int32_t>(program.size()))
    {
        // Node n_ is the virtual exit; Halt (and fallthrough off the
        // end) edges lead there.
        const std::size_t words = wordsPerSet();
        sets_.assign(static_cast<std::size_t>(n_ + 1) * words, ~0ULL);
        setOnly(n_, n_);
        bool changed = true;
        while (changed) {
            changed = false;
            for (std::int32_t pc = n_ - 1; pc >= 0; --pc) {
                std::vector<std::int32_t> succs =
                    structuralSuccs(program, pc);
                std::vector<std::uint64_t> acc(words, ~0ULL);
                if (succs.empty()) {
                    std::copy(set(n_), set(n_) + words, acc.begin());
                } else {
                    for (std::int32_t s : succs)
                        for (std::size_t w = 0; w < words; ++w)
                            acc[w] &= set(s)[w];
                }
                acc[static_cast<std::size_t>(pc) / 64] |=
                    1ULL << (static_cast<std::size_t>(pc) % 64);
                if (!std::equal(acc.begin(), acc.end(), set(pc))) {
                    std::copy(acc.begin(), acc.end(), set(pc));
                    changed = true;
                }
            }
        }
    }

    bool
    contains(std::int32_t node, std::int32_t member) const
    {
        return (set(node)[static_cast<std::size_t>(member) / 64] >>
                (static_cast<std::size_t>(member) % 64)) &
               1ULL;
    }

    /**
     * Immediate postdominator of @p pc, or -1 when only the virtual
     * exit postdominates it. Candidates are totally ordered by
     * inclusion of their own postdom sets; the closest has the
     * largest.
     */
    std::int32_t
    ipdom(std::int32_t pc) const
    {
        std::int32_t best = -1;
        std::size_t best_size = 0;
        for (std::int32_t c = 0; c < n_; ++c) {
            if (c == pc || !contains(pc, c))
                continue;
            const std::size_t size = popcount(c);
            if (size > best_size) {
                best_size = size;
                best = c;
            }
        }
        return best;
    }

  private:
    std::size_t wordsPerSet() const
    {
        return static_cast<std::size_t>(n_ + 1 + 63) / 64;
    }
    std::uint64_t *set(std::int32_t node)
    {
        return sets_.data() +
               static_cast<std::size_t>(node) * wordsPerSet();
    }
    const std::uint64_t *set(std::int32_t node) const
    {
        return sets_.data() +
               static_cast<std::size_t>(node) * wordsPerSet();
    }
    void
    setOnly(std::int32_t node, std::int32_t member)
    {
        std::uint64_t *s = set(node);
        std::fill(s, s + wordsPerSet(), 0ULL);
        s[static_cast<std::size_t>(member) / 64] |=
            1ULL << (static_cast<std::size_t>(member) % 64);
    }
    std::size_t
    popcount(std::int32_t node) const
    {
        std::size_t count = 0;
        const std::uint64_t *s = set(node);
        for (std::size_t w = 0; w < wordsPerSet(); ++w)
            count += static_cast<std::size_t>(
                __builtin_popcountll(s[w]));
        return count;
    }

    std::int32_t n_;
    std::vector<std::uint64_t> sets_;
};

/** Max distinct constants collected per mem-op before giving up. */
constexpr std::size_t kMayTouchCap = 8192;

struct FixpointResult
{
    std::set<std::int32_t> taintedBranches;
    std::map<std::int32_t, std::set<Addr>> mayTouch;
    std::set<std::int32_t> unresolved;
    std::set<std::int32_t> taintedAddrPcs;
    std::map<std::int32_t, std::string> addrDetail;
    bool hasLoop = false;
};

class Fixpoint
{
  public:
    Fixpoint(const DecodedProgram &program, const TaintSpec &spec,
             const std::vector<std::pair<RegId, std::int64_t>>
                 &initial_regs,
             const std::map<Addr, std::int64_t> &initial_memory,
             const std::set<std::int32_t> &control_tainted)
        : program_(program), spec_(spec), initialMemory_(initial_memory),
          controlTainted_(control_tainted)
    {
        entry_.reachable = true;
        entry_.regs.assign(program.numRegs, AbsVal::constant(0));
        for (const auto &[reg, value] : initial_regs)
            if (reg < program.numRegs)
                entry_.regs[reg] = AbsVal::constant(value);
        for (RegId reg : spec.regs)
            if (reg < program.numRegs)
                entry_.regs[reg] = AbsVal::unknown(true);
    }

    FixpointResult
    run()
    {
        const auto size = static_cast<std::int32_t>(program_.size());
        std::vector<State> in(static_cast<std::size_t>(size));
        std::deque<std::int32_t> worklist;
        std::vector<bool> queued(static_cast<std::size_t>(size), false);
        if (size > 0) {
            in[0] = entry_;
            worklist.push_back(0);
            queued[0] = true;
        }
        while (!worklist.empty()) {
            const std::int32_t pc = worklist.front();
            worklist.pop_front();
            queued[static_cast<std::size_t>(pc)] = false;
            State out = in[static_cast<std::size_t>(pc)];
            std::vector<std::int32_t> succs = transfer(pc, out);
            for (std::int32_t s : succs) {
                if (s < 0 || s >= size)
                    continue;
                if (s <= pc)
                    result_.hasLoop = true;
                if (joinInto(in[static_cast<std::size_t>(s)], out) &&
                    !queued[static_cast<std::size_t>(s)]) {
                    worklist.push_back(s);
                    queued[static_cast<std::size_t>(s)] = true;
                }
            }
        }
        return std::move(result_);
    }

  private:
    /** Apply pc's semantics to @p state; return feasible successors. */
    std::vector<std::int32_t>
    transfer(std::int32_t pc, State &state)
    {
        const Instruction &inst =
            program_.code[static_cast<std::size_t>(pc)];
        const DecodedOp &dop = program_.ops[static_cast<std::size_t>(pc)];
        const bool implicit = controlTainted_.count(pc) != 0;

        auto src = [&](RegId reg) -> AbsVal {
            return reg == kNoReg || reg >= state.regs.size()
                       ? AbsVal::constant(0)
                       : state.regs[reg];
        };
        auto writeDst = [&](AbsVal value) {
            if (dop.writesDst && inst.dst < state.regs.size()) {
                value.tainted |= implicit;
                state.regs[inst.dst] = value;
            }
        };

        switch (inst.op) {
          case Opcode::Load:
          case Opcode::Prefetch: {
            const AbsVal loaded = memOp(pc, inst, state, AbsVal{});
            if (inst.op == Opcode::Load)
                writeDst(loaded);
            break;
          }
          case Opcode::Store: {
            memOp(pc, inst, state, src(inst.dst));
            break;
          }
          case Opcode::Branch: {
            const AbsVal cond = src(inst.src0);
            if (cond.tainted)
                result_.taintedBranches.insert(pc);
            const auto size = static_cast<std::int32_t>(program_.size());
            const std::int32_t target =
                inst.target >= 0 && inst.target < size ? inst.target
                                                       : size;
            if (cond.known) {
                const bool taken = (cond.value != 0) != inst.invert;
                return {taken ? target : pc + 1};
            }
            return {target, pc + 1};
          }
          case Opcode::Rdtsc:
            writeDst(AbsVal::unknown());
            break;
          case Opcode::Jump:
          case Opcode::Halt:
          case Opcode::Nop:
            break;
          default: { // two-source ALU forms
            const AbsVal v0 = src(inst.src0);
            const AbsVal rhs = inst.src1 != kNoReg
                                   ? src(inst.src1)
                                   : AbsVal::constant(inst.imm);
            AbsVal out;
            out.tainted = v0.tainted || rhs.tainted;
            if (inst.op == Opcode::Lea) {
                const EaResult ea = abstractEa(inst, state);
                out.known = ea.known;
                out.value = static_cast<std::int64_t>(ea.ea);
                out.tainted = ea.tainted;
            } else if (v0.known && rhs.known) {
                out.known = true;
                out.value = aluResult(inst.op, v0.value, rhs.value);
            }
            writeDst(out);
            break;
          }
        }
        return {dop.nextPc};
    }

    /**
     * Shared Load/Store/Prefetch handling: resolve the EA, record the
     * may-touch constant or the unresolved mark, flag tainted
     * addresses, and apply the memory effect. Returns the loaded
     * abstract value (Loads).
     */
    AbsVal
    memOp(std::int32_t pc, const Instruction &inst, State &state,
          AbsVal store_data)
    {
        const EaResult ea = abstractEa(inst, state);
        if (ea.tainted) {
            result_.taintedAddrPcs.insert(pc);
            result_.addrDetail[pc] = inst.toString();
        }
        if (!ea.known) {
            result_.unresolved.insert(pc);
        } else {
            auto &touched = result_.mayTouch[pc];
            if (touched.size() < kMayTouchCap)
                touched.insert(ea.ea);
            else
                result_.unresolved.insert(pc);
        }

        if (inst.op == Opcode::Store) {
            if (ea.known) {
                state.mem[MemoryImage::wordAddr(ea.ea)] = store_data;
            } else {
                state.mem.clear();
                state.memHavoc = true;
                state.memHavocTainted |= store_data.tainted;
            }
            return {};
        }
        if (inst.op == Opcode::Prefetch)
            return {};

        // Load value. A tainted or unresolved address makes the loaded
        // value conservatively secret whenever secret memory exists.
        AbsVal out;
        if (ea.known) {
            const Addr word = MemoryImage::wordAddr(ea.ea);
            auto it = state.mem.find(word);
            if (it != state.mem.end()) {
                out = it->second;
            } else if (state.memHavoc) {
                out = AbsVal::unknown(state.memHavocTainted);
            } else {
                auto init = initialMemory_.find(word);
                out = init != initialMemory_.end()
                          ? AbsVal::constant(init->second)
                          : AbsVal::constant(0);
            }
            if (spec_.coversAddr(ea.ea))
                out = AbsVal::unknown(true);
        } else {
            out = AbsVal::unknown(!spec_.addrs.empty());
        }
        out.tainted |= ea.tainted;
        return out;
    }

    const DecodedProgram &program_;
    const TaintSpec &spec_;
    const std::map<Addr, std::int64_t> &initialMemory_;
    const std::set<std::int32_t> &controlTainted_;
    State entry_;
    FixpointResult result_;
};

/**
 * pcs controlled by @p branch: everything reachable from its
 * successors before its immediate postdominator (the whole reachable
 * remainder when only the virtual exit postdominates, e.g. a branch
 * guarding an endless loop).
 */
std::set<std::int32_t>
controlRegion(const DecodedProgram &program, const PostDoms &pdoms,
              std::int32_t branch)
{
    const std::int32_t stop = pdoms.ipdom(branch);
    std::set<std::int32_t> region;
    std::deque<std::int32_t> frontier;
    for (std::int32_t s : structuralSuccs(program, branch))
        frontier.push_back(s);
    while (!frontier.empty()) {
        const std::int32_t pc = frontier.front();
        frontier.pop_front();
        if (pc == stop || region.count(pc))
            continue;
        region.insert(pc);
        for (std::int32_t s : structuralSuccs(program, pc))
            frontier.push_back(s);
    }
    return region;
}

} // namespace

bool
TaintSpec::coversAddr(Addr addr) const
{
    const Addr mask = ~static_cast<Addr>(lineBytes - 1);
    for (Addr secret : addrs)
        if ((secret & mask) == (addr & mask))
            return true;
    return false;
}

std::string
leakKindName(LeakKind kind)
{
    switch (kind) {
      case LeakKind::Address: return "secret-addr";
      case LeakKind::Branch: return "secret-branch";
      case LeakKind::ControlMem: return "ctrl-mem";
      case LeakKind::ControlFu: return "ctrl-fu";
    }
    return "?";
}

TaintReport
analyzeTaint(const DecodedProgram &program, const TaintSpec &spec,
             const std::vector<std::pair<RegId, std::int64_t>>
                 &initial_regs,
             const std::map<Addr, std::int64_t> &initial_memory)
{
    // Normalize pokes to word granularity once.
    std::map<Addr, std::int64_t> image;
    for (const auto &[addr, value] : initial_memory)
        image[MemoryImage::wordAddr(addr)] = value;

    // Iterate data taint and control taint (implicit flows) to a
    // combined fixpoint: the control-tainted set only ever grows, and
    // is bounded by the program size.
    PostDoms pdoms(program);
    std::set<std::int32_t> controlTainted;
    FixpointResult fix;
    while (true) {
        fix = Fixpoint(program, spec, initial_regs, image, controlTainted)
                  .run();
        std::set<std::int32_t> next = controlTainted;
        for (std::int32_t branch : fix.taintedBranches) {
            std::set<std::int32_t> region =
                controlRegion(program, pdoms, branch);
            next.insert(region.begin(), region.end());
        }
        if (next == controlTainted)
            break;
        controlTainted = std::move(next);
    }

    TaintReport report;
    report.controlTainted = controlTainted;
    report.mayTouch = std::move(fix.mayTouch);
    report.unresolvedMemPcs = std::move(fix.unresolved);
    report.hasLoop = fix.hasLoop;

    std::set<TaintFinding> findings;
    for (std::int32_t pc : fix.taintedAddrPcs)
        findings.insert({pc, LeakKind::Address, fix.addrDetail[pc]});
    for (std::int32_t pc : fix.taintedBranches)
        findings.insert(
            {pc, LeakKind::Branch,
             program.code[static_cast<std::size_t>(pc)].toString()});
    for (std::int32_t pc : controlTainted) {
        const DecodedOp &op = program.ops[static_cast<std::size_t>(pc)];
        if (op.isMem) {
            findings.insert(
                {pc, LeakKind::ControlMem,
                 program.code[static_cast<std::size_t>(pc)].toString()});
        } else if (op.fu != FuClass::IntAlu && !op.isControl) {
            findings.insert(
                {pc, LeakKind::ControlFu,
                 program.code[static_cast<std::size_t>(pc)].toString()});
        }
    }
    report.findings.assign(findings.begin(), findings.end());
    return report;
}

} // namespace hr
