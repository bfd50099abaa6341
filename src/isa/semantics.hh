/**
 * @file
 * Pure ISA semantics: the value an ALU op produces and the effective
 * address a memory op or Lea computes, as functions of operand values.
 *
 * This is the one definition the out-of-order core, the reference
 * interpreter and the taint analysis all execute, so the static
 * models cannot drift from the simulator's arithmetic. Each caller
 * keeps its own handling of the ops that are not pure arithmetic
 * (Branch, Rdtsc, memory, and how an absent operand reads).
 *
 * Register and address arithmetic wraps modulo 2^64 (two's
 * complement), like the hardware it models: everything is computed in
 * uint64 so the wraparound is well-defined (gadget op chains overflow
 * constantly by design).
 */

#ifndef HR_ISA_SEMANTICS_HH
#define HR_ISA_SEMANTICS_HH

#include <cstdint>
#include <limits>

#include "isa/instruction.hh"
#include "util/types.hh"

namespace hr
{

/**
 * Result of a two-source ALU op (MovImm through Shr) on @p v0 (the
 * src0 value) and @p rhs (the src1 value, or imm when src1 is
 * absent). MovImm yields @p rhs; any other opcode yields 0.
 */
inline std::int64_t
aluResult(Opcode op, std::int64_t v0, std::int64_t rhs)
{
    const auto u0 = static_cast<std::uint64_t>(v0);
    const auto u1 = static_cast<std::uint64_t>(rhs);
    switch (op) {
      case Opcode::MovImm: return rhs;
      case Opcode::Add: return static_cast<std::int64_t>(u0 + u1);
      case Opcode::Sub: return static_cast<std::int64_t>(u0 - u1);
      case Opcode::Mul: return static_cast<std::int64_t>(u0 * u1);
      case Opcode::Div:
        if (rhs == 0)
            return 0;
        if (v0 == std::numeric_limits<std::int64_t>::min() && rhs == -1)
            return v0; // the one remaining overflow case wraps too
        return v0 / rhs;
      case Opcode::And: return v0 & rhs;
      case Opcode::Or: return v0 | rhs;
      case Opcode::Xor: return v0 ^ rhs;
      case Opcode::Shl:
        return static_cast<std::int64_t>(u0 << (u1 & 63));
      case Opcode::Shr:
        return static_cast<std::int64_t>(u0 >> (u1 & 63));
      default: return 0;
    }
}

/** One scaled address term, value * scale, wrapping modulo 2^64. */
inline std::uint64_t
eaTerm(std::int64_t value, std::int8_t scale)
{
    return static_cast<std::uint64_t>(value) *
           static_cast<std::uint64_t>(static_cast<std::int64_t>(scale));
}

/**
 * imm + v0*scale0 + v1*scale1, where @p v0 / @p v1 are the src0 /
 * src1 values; a term whose source register is absent is left out.
 */
inline Addr
effectiveAddress(const Instruction &inst, std::int64_t v0,
                 std::int64_t v1)
{
    std::uint64_t ea = static_cast<std::uint64_t>(inst.imm);
    if (inst.src0 != kNoReg)
        ea += eaTerm(v0, inst.scale0);
    if (inst.src1 != kNoReg)
        ea += eaTerm(v1, inst.scale1);
    return static_cast<Addr>(ea);
}

} // namespace hr

#endif // HR_ISA_SEMANTICS_HH
