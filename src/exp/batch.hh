/**
 * @file
 * BatchRunner: SPMD lockstep trial batching over one pooled machine.
 *
 * The pooled trial loop (restore → run trial → read timings) spends
 * almost all of its time re-simulating instruction streams that are
 * identical from trial to trial — only the trial *inputs* (payload
 * bits, measured addresses) differ, and most trials make exactly the
 * same sequence of Machine calls with exactly the same operands.
 *
 * BatchRunner exploits that: it groups trials into batches of
 * Options::width, runs the first trial of each group as a *leader*
 * with Machine::beginRecord capturing every public Machine operation
 * and its result (a TrialTrace), then runs the remaining trials as
 * *followers* under Machine::beginReplay. A follower's trial lambda
 * executes normally, but each Machine call is matched against the
 * recorded trace and answered from it with zero simulation. Because
 * the simulator is deterministic, a follower whose op stream matches
 * the leader's would have computed byte-identical results — so
 * answering from the trace IS the scalar result, just ~100x cheaper.
 *
 * Divergence is safe, not fatal: the moment a follower issues an op
 * that differs from the trace (different branch-direction payload,
 * different probe address, a reseed with a different mix), the
 * Machine transparently restores the base snapshot, re-executes the
 * matched prefix for real, and the trial continues scalar from there.
 * No prefix work is wasted (replayed ops were never simulated), so a
 * fully divergent batch costs the same as the scalar path.
 *
 * Two trace shapes cannot stand in for execution, and their followers
 * run scalar (restore + execute) instead: an *opaque* trace (the
 * leader used snapshot/restore or changed backgrounds), and a trace
 * whose results depend on the noise seeds (TrialTrace::rngDraws > 0)
 * while containing reseeds — a follower reseeding with its own mix
 * would diverge at its first reseed, and substituting the leader's
 * mix is unsound there.
 *
 * Restores are elided wherever possible: a clean replay never touches
 * machine state, so only the trial *after* a leader or a diverged
 * follower pays a restore. That elision — not the replay itself — is
 * what pushes the batched trial path past 10x.
 *
 * Dead-reseed substitution (Options::group, on by default) widens what
 * a replay matches: decorrelation scenarios reseed the noise streams
 * with a per-trial mix before every trial, and when the trace drew
 * zero noise values those reseeds are behaviorally dead, so the
 * follower's mix is accepted in place of the leader's (see
 * Machine::ReplayTolerance). Such a follower counts as group-stepped.
 * The full ladder per follower is: replay (verbatim or substituted),
 * else diverge to scalar mid-trial.
 *
 * Byte-identity with the scalar path at any batch width, worker
 * count, and tier opt-out is a tested invariant (tests/test_batch.cc),
 * not a hope.
 */

#ifndef HR_EXP_BATCH_HH
#define HR_EXP_BATCH_HH

#include <cstdint>
#include <functional>
#include <string>

#include "exp/machine_pool.hh"
#include "sim/machine.hh"

namespace hr
{

/** Lockstep leader/follower batching of pooled trials. */
class BatchRunner
{
  public:
    struct Options
    {
        // Constructor instead of a default member initializer: the
        // latter cannot feed BatchRunner's own default argument below
        // (the enclosing class is still incomplete there).
        Options() : width(32), group(true) {}

        /**
         * Trials per lockstep group. Each group pays one fully
         * simulated leader; wider groups amortize it over more
         * followers but re-lead (and re-adapt to drifted inputs)
         * less often.
         */
        int width;

        /**
         * Let replays substitute dead reseeds (see file doc). Off
         * replays followers strictly (`hr_bench ... --no-group`).
         * Output is byte-identical either way — this is a
         * performance/observability knob.
         */
        bool group;
    };

    struct Stats
    {
        std::uint64_t trials = 0;   //!< total trials executed
        std::uint64_t leaders = 0;  //!< trials simulated as leaders
        std::uint64_t replayed = 0; //!< followers answered from trace
        std::uint64_t groupStepped = 0; //!< replayed with substituted
                                        //!< dead reseeds
        std::uint64_t diverged = 0; //!< followers that fell back mid-trial
        std::uint64_t scalar = 0;   //!< followers run scalar outright

        /** Merge (for accumulating across runners/sweep rows). */
        void add(const Stats &other);

        /** One-line human rendering ("trials=... leaders=..."). */
        std::string summary() const;
    };

    /** One-time machine preparation folded into the base snapshot. */
    using Setup = std::function<void(Machine &)>;

    /** Per-trial body; must observe results via Machine calls only. */
    using TrialFn = std::function<void(Machine &, std::size_t)>;

    /**
     * Lease one machine from @p pool, apply @p setup (e.g. a channel's
     * prepare step), and snapshot the result as the per-trial base
     * state. The lease is held for the runner's lifetime.
     */
    explicit BatchRunner(MachinePool &pool, Setup setup = {},
                         Options options = Options());

    /**
     * Run @p fn for trial indices [0, count) in lockstep groups.
     * Every trial observes the machine in the base state, exactly as
     * the scalar restore-per-trial loop would. May be called multiple
     * times; groups never span calls.
     */
    void forEach(std::size_t count, const TrialFn &fn);

    /** The leased machine (tests/diagnostics; state is mid-batch). */
    Machine &machine() { return lease_.machine(); }

    /** The base snapshot every trial starts from. */
    const Machine::Snapshot &base() const { return base_; }

    const Stats &stats() const { return stats_; }

  private:
    MachinePool::Lease lease_;
    Machine::Snapshot base_;
    Options options_;
    Stats stats_;
    bool dirty_ = false; //!< machine state differs from base_
};

} // namespace hr

#endif // HR_EXP_BATCH_HH
