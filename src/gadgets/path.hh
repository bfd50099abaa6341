/**
 * @file
 * Path construction (paper section 4): embedding a target expression
 * into a measurement path with pre- and post-extensions.
 *
 * A TargetExpr is "the thing whose timing the attacker wants". The
 * PathEmbedder wraps it so that (a) all of its inputs depend on a single
 * head register (synchronizing the path's start on one cache-missing
 * load) and (b) all of its outputs funnel into a single terminator
 * register (marking the path's completion), exactly as Fig. 2 / Code
 * Listing 2 describe.
 */

#ifndef HR_GADGETS_PATH_HH
#define HR_GADGETS_PATH_HH

#include <functional>
#include <string>

#include "isa/program.hh"
#include "util/types.hh"

namespace hr
{

/**
 * An attacker-chosen expression to be timed.
 *
 * The emit callback writes the expression into a sequence builder. The
 * input register carries the value 0 at run time (it is derived from
 * the synchronizing load of a zeroed line), so expressions may use it
 * to order themselves after the path head without changing addresses
 * or values. The returned register must be data-dependent on the
 * expression's complete execution.
 */
struct TargetExpr
{
    std::string name = "expr";
    std::function<RegId(SeqBuilder &, RegId)> emit;

    /** Expression that finishes immediately. */
    static TargetExpr empty();

    /** A serial chain of n ops (add/mul/div/lea...), latency n*L_op. */
    static TargetExpr opChain(Opcode op, int n);

    /**
     * A single load of @p addr: the expression whose timing
     * distinguishes cache levels. This is the timer primitive used by
     * the eviction-set generator (section 7.4).
     */
    static TargetExpr loadLatency(Addr addr);

    /** A serial pointer chase over the given addresses. */
    static TargetExpr loadChain(std::vector<Addr> addrs);

    /**
     * A single load whose address arrives in @p addr_reg at run time
     * (see PaRaceProgram::kArgReg). Lets the same trained program
     * time different addresses — the timer primitive of section 7.4.
     */
    static TargetExpr loadIndirect(RegId addr_reg);
};

/**
 * Embeds a TargetExpr into a measurement path (pre-extension feeds the
 * expression from the head; post-extension collapses its output).
 *
 * @return the terminator register: zero-valued, data-dependent on the
 *         whole expression.
 */
RegId embedExpression(SeqBuilder &seq, RegId head, const TargetExpr &expr);

} // namespace hr

#endif // HR_GADGETS_PATH_HH
