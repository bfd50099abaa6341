/**
 * @file
 * Reference interpreter: exact architectural execution of a
 * DecodedProgram with no microarchitecture.
 *
 * The static footprint model needs the precise sequence of memory
 * addresses and functional-unit classes a program commits — for the
 * deterministic gadget programs the registry builds, that sequence is
 * a pure function of the code, the initial registers, and the initial
 * memory words, so a few thousand ISA steps recover it in
 * microseconds where the simulator spends milliseconds per trial.
 * ALU results and effective addresses come from isa/semantics.hh, the
 * same definitions the core executes; memory is word-granular and
 * reads zero when unwritten.
 *
 * Beyond architectural state, the interpreter models the speculative
 * window: at every executed branch it walks the NOT-taken path for up
 * to `transientWindow` ops against scratch state and records the
 * memory lines that wrong-path execution could transiently install —
 * the mechanism behind the paper's transient-probe gadgets, which an
 * architectural-only model would miss entirely.
 */

#ifndef HR_ANALYSIS_INTERP_HH
#define HR_ANALYSIS_INTERP_HH

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "isa/decoded_program.hh"
#include "util/types.hh"

namespace hr
{

constexpr int kNumFuClasses = 6;

struct InterpOptions
{
    std::uint64_t stepCap = 200'000; ///< endless co-runner guard
    int transientWindow = 64;        ///< wrong-path walk depth (ROB-ish)
};

/** What one architectural execution did. */
struct InterpResult
{
    bool halted = false; ///< committed a Halt within the cap
    bool capped = false; ///< step cap hit (counts are lower bounds)
    bool usedClock = false; ///< executed Rdtsc (value modeled as 0)
    std::uint64_t steps = 0;
    /** Committed ops per functional-unit class. */
    std::array<std::uint64_t, kNumFuClasses> fuCount{};
    /** Committed Load/Store/Prefetch effective addresses, in order. */
    std::vector<Addr> touchOrder;
    /** Mem EAs reachable on squashed wrong paths (transient window). */
    std::set<Addr> transientEas;
    /** Final memory-word writes (overlay over the initial image). */
    std::map<Addr, std::int64_t> memOut;

    std::uint64_t memOps() const
    {
        return fuCount[static_cast<int>(FuClass::MemRead)] +
               fuCount[static_cast<int>(FuClass::MemWrite)];
    }
};

/**
 * Execute @p program architecturally from @p initial_regs and
 * @p initial_memory (word-granular; unwritten words read as zero).
 */
InterpResult
interpretProgram(const DecodedProgram &program,
                 const std::vector<std::pair<RegId, std::int64_t>>
                     &initial_regs = {},
                 const std::map<Addr, std::int64_t> &initial_memory = {},
                 const InterpOptions &options = {});

/** Short name of a functional-unit class ("alu", "mul", ...). */
const char *fuShortName(FuClass fu);

} // namespace hr

#endif // HR_ANALYSIS_INTERP_HH
