/**
 * @file
 * TrialTrace: a recorded sequence of Machine harness operations.
 *
 * The simulator is deterministic: a machine's evolution (and every
 * value a trial can observe) is a pure function of its starting state
 * and the sequence of public Machine operations applied to it. A
 * trace records that sequence — each op with its inputs and its
 * result — while a leader trial runs for real. A follower trial whose
 * op stream matches the trace op-for-op can then be answered entirely
 * from the recorded results, with zero simulation: that is the
 * lockstep fast path BatchRunner drives.
 *
 * The op surface is exactly Machine's public harness API: run/coRun,
 * poke/peek, flushLine/flushAllCaches, warm, probeLevel, settle, now,
 * reseedNoise, contextStats, and cacheMisses. Anything else a trial
 * does to the machine —
 * snapshot/restore, background registration, raw hierarchy()
 * mutation — is outside the traceable surface; snapshot/restore and
 * background changes during recording mark the trace opaque
 * (followers run scalar), and raw-handle mutation is a documented
 * contract violation (see EXPERIMENTS.md).
 */

#ifndef HR_SIM_TRIAL_TRACE_HH
#define HR_SIM_TRIAL_TRACE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/ooo_core.hh"
#include "isa/decoded_program.hh"
#include "util/types.hh"

namespace hr
{

/** One recorded Machine operation: inputs and memoized outputs. */
struct TraceOp
{
    enum class Kind : std::uint8_t
    {
        Run,        ///< run()/coRun() (one op per outermost call)
        Poke,       ///< poke(addr, value)
        Peek,       ///< peek(addr) -> value
        FlushLine,  ///< flushLine(addr)
        FlushAll,   ///< flushAllCaches()
        Warm,       ///< warm(addr, level)
        ProbeLevel, ///< probeLevel(addr) -> level
        Settle,     ///< settle()
        Now,        ///< now() -> nowCycle
        Reseed,     ///< reseedNoise(mix)
        CtxStats,   ///< contextStats(ctx) -> ctxStats
        CacheMisses,///< cacheMisses(level) -> value
    };

    /** A coRun co-runner as recorded (no initial regs by contract). */
    struct Extra
    {
        ContextId ctx = 0;
        std::shared_ptr<const DecodedProgram> decoded;
        std::uint64_t programId = 0;
    };

    /** Inputs of a Run op (enough to re-execute it for real). */
    struct RunSpec
    {
        ContextId ctx = 0;
        std::shared_ptr<const DecodedProgram> decoded;
        std::uint64_t programId = 0;
        std::vector<std::pair<RegId, std::int64_t>> initialRegs;
        Cycle maxCycles = 0;
        std::vector<Extra> extras;
    };

    Kind kind = Kind::Settle;
    RunSpec run;             ///< Kind::Run only
    RunResult result;        ///< Kind::Run: memoized outcome
    Addr addr = 0;           ///< Poke/Peek/FlushLine/Warm/ProbeLevel
    std::int64_t value = 0;  ///< Poke input / Peek / CacheMisses result
    int level = 0;           ///< Warm/CacheMisses input, ProbeLevel
                             ///< result, CtxStats context input
    Cycle nowCycle = 0;      ///< Now result
    std::uint64_t mix = 0;   ///< Reseed input
    ContextAccessStats ctxStats; ///< CtxStats result
};

/** A recorded trial: the op sequence one leader execution made. */
struct TrialTrace
{
    std::vector<TraceOp> ops;

    /**
     * The leader used snapshot/restore or changed backgrounds while
     * recording: the trace cannot stand in for real execution, and
     * followers must run scalar.
     */
    bool opaque = false;

    /**
     * Machine noise-stream (jitter + replacement) RNG values the
     * leader consumed while recording. Zero is a proof that every
     * recorded result is independent of the noise seeds: no stream was
     * ever read, so a reseedNoise with a *different* mix is
     * behaviorally dead and a follower differing only in reseed mixes
     * can still be answered from the trace (dead-reseed substitution;
     * see Machine::ReplayTolerance and exp/batch.hh).
     */
    std::uint64_t rngDraws = 0;
};

} // namespace hr

#endif // HR_SIM_TRIAL_TRACE_HH
