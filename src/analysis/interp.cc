#include "analysis/interp.hh"

#include "isa/semantics.hh"
#include "util/memory_image.hh"

namespace hr
{
namespace
{

/** A source register's value; an absent operand reads 0. */
std::int64_t
operand(const std::vector<std::int64_t> &regs, RegId reg)
{
    return reg != kNoReg ? regs[reg] : 0;
}

Addr
eaOf(const Instruction &inst, const std::vector<std::int64_t> &regs)
{
    return effectiveAddress(inst, operand(regs, inst.src0),
                            operand(regs, inst.src1));
}

std::int64_t
readWord(const std::map<Addr, std::int64_t> &overlay,
         const std::map<Addr, std::int64_t> &init, Addr addr)
{
    const Addr word = MemoryImage::wordAddr(addr);
    auto it = overlay.find(word);
    if (it != overlay.end())
        return it->second;
    auto in = init.find(word);
    return in != init.end() ? in->second : 0;
}

/**
 * Walk the squashed side of a branch for up to @p window ops against
 * scratch copies of the registers, recording every memory EA the
 * wrong path would issue before the squash. Nested branches stop the
 * walk (second-level speculation is out of model).
 */
void
transientWalk(const DecodedProgram &program, std::int32_t start,
              std::vector<std::int64_t> regs,
              const std::map<Addr, std::int64_t> &overlay,
              const std::map<Addr, std::int64_t> &init, int window,
              std::set<Addr> &out)
{
    std::map<Addr, std::int64_t> scratch; // wrong-path store forwarding
    std::int32_t pc = start;
    const auto size = static_cast<std::int32_t>(program.size());
    for (int step = 0; step < window && pc >= 0 && pc < size; ++step) {
        const Instruction &inst =
            program.code[static_cast<std::size_t>(pc)];
        const DecodedOp &dop = program.ops[static_cast<std::size_t>(pc)];
        if (dop.next == NextPcKind::Branch || dop.next == NextPcKind::Halt)
            break;
        switch (inst.op) {
          case Opcode::Load: {
            const Addr ea = eaOf(inst, regs);
            out.insert(ea);
            const Addr word = MemoryImage::wordAddr(ea);
            auto it = scratch.find(word);
            regs[inst.dst] = it != scratch.end()
                                 ? it->second
                                 : readWord(overlay, init, ea);
            break;
          }
          case Opcode::Prefetch:
            out.insert(eaOf(inst, regs));
            break;
          case Opcode::Store: {
            const Addr ea = eaOf(inst, regs);
            out.insert(ea);
            scratch[MemoryImage::wordAddr(ea)] = regs[inst.dst];
            break;
          }
          case Opcode::Rdtsc:
            regs[inst.dst] = 0;
            break;
          case Opcode::Lea:
            regs[inst.dst] =
                static_cast<std::int64_t>(eaOf(inst, regs));
            break;
          case Opcode::Nop:
          case Opcode::Jump:
          case Opcode::Halt:
          case Opcode::Branch:
            break;
          default: {
            const std::int64_t rhs = inst.src1 != kNoReg
                                         ? regs[inst.src1]
                                         : inst.imm;
            regs[inst.dst] =
                aluResult(inst.op, operand(regs, inst.src0), rhs);
            break;
          }
        }
        pc = dop.nextPc;
    }
}

} // namespace

const char *
fuShortName(FuClass fu)
{
    switch (fu) {
      case FuClass::IntAlu: return "alu";
      case FuClass::IntMul: return "mul";
      case FuClass::FpDiv: return "div";
      case FuClass::MemRead: return "ld";
      case FuClass::MemWrite: return "st";
      case FuClass::BranchU: return "br";
    }
    return "?";
}

InterpResult
interpretProgram(const DecodedProgram &program,
                 const std::vector<std::pair<RegId, std::int64_t>>
                     &initial_regs,
                 const std::map<Addr, std::int64_t> &initial_memory,
                 const InterpOptions &options)
{
    InterpResult result;
    std::map<Addr, std::int64_t> init;
    for (const auto &[addr, value] : initial_memory)
        init[MemoryImage::wordAddr(addr)] = value;

    std::vector<std::int64_t> regs(program.numRegs, 0);
    for (const auto &[reg, value] : initial_regs)
        if (reg < program.numRegs)
            regs[reg] = value;

    const auto size = static_cast<std::int32_t>(program.size());
    std::int32_t pc = 0;
    while (pc >= 0 && pc < size) {
        if (result.steps >= options.stepCap) {
            result.capped = true;
            break;
        }
        ++result.steps;
        const Instruction &inst =
            program.code[static_cast<std::size_t>(pc)];
        const DecodedOp &dop = program.ops[static_cast<std::size_t>(pc)];
        ++result.fuCount[static_cast<int>(dop.fu)];
        std::int32_t next = dop.nextPc;
        switch (inst.op) {
          case Opcode::Load: {
            const Addr ea = eaOf(inst, regs);
            result.touchOrder.push_back(ea);
            regs[inst.dst] = readWord(result.memOut, init, ea);
            break;
          }
          case Opcode::Prefetch:
            result.touchOrder.push_back(eaOf(inst, regs));
            break;
          case Opcode::Store: {
            const Addr ea = eaOf(inst, regs);
            result.touchOrder.push_back(ea);
            result.memOut[MemoryImage::wordAddr(ea)] = regs[inst.dst];
            break;
          }
          case Opcode::Branch: {
            const std::int64_t v0 =
                inst.src0 != kNoReg ? regs[inst.src0] : 0;
            const bool taken = (v0 != 0) != inst.invert;
            next = taken ? inst.target : pc + 1;
            if (options.transientWindow > 0) {
                const std::int32_t wrong =
                    taken ? pc + 1 : inst.target;
                if (wrong >= 0 && wrong < size)
                    transientWalk(program, wrong, regs, result.memOut,
                                  init, options.transientWindow,
                                  result.transientEas);
            }
            break;
          }
          case Opcode::Rdtsc:
            result.usedClock = true;
            regs[inst.dst] = 0;
            break;
          case Opcode::Halt:
            result.halted = true;
            return result;
          case Opcode::Nop:
          case Opcode::Jump:
            break;
          case Opcode::Lea:
            regs[inst.dst] =
                static_cast<std::int64_t>(eaOf(inst, regs));
            break;
          default: {
            const std::int64_t rhs = inst.src1 != kNoReg
                                         ? regs[inst.src1]
                                         : inst.imm;
            regs[inst.dst] =
                aluResult(inst.op, operand(regs, inst.src0), rhs);
            break;
          }
        }
        pc = next;
    }
    return result;
}

} // namespace hr
