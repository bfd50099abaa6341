/**
 * @file
 * Machine: the persistent attacker-visible execution environment.
 *
 * Owns a core, a cache hierarchy, a memory image, and a branch
 * predictor, all of which keep state across run() calls — which is how
 * successive "JavaScript function invocations" (training, racing,
 * magnifying, probing) interact through the microarchitecture.
 *
 * A machine may expose several SMT-style hardware execution contexts
 * (MachineConfig::contexts): run() executes on context 0 while
 * registered background programs (setBackground) co-run on theirs,
 * and coRun() interleaves explicit co-runners — all deterministically.
 *
 * Programs are executed through a DecodedProgram image resolved by a
 * per-configuration DecodeCache (shareable across a MachinePool), and
 * the whole public harness surface can be recorded into a TrialTrace
 * and replayed — the machinery behind BatchRunner's lockstep trial
 * batching (see exp/batch.hh). That is the machine's one skeleton
 * mode: record a trial, or replay one against a recorded trace under
 * a ReplayTolerance; every other execution is plain scalar.
 */

#ifndef HR_SIM_MACHINE_HH
#define HR_SIM_MACHINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/branch_predictor.hh"
#include "core/ooo_core.hh"
#include "isa/program.hh"
#include "sim/decode_cache.hh"
#include "sim/trial_trace.hh"
#include "util/memory_image.hh"
#include "util/types.hh"

namespace hr
{

/** Full machine configuration. */
struct MachineConfig
{
    CoreConfig core;
    HierarchyConfig memory;
    double ghz = 2.0; ///< clock for cycle <-> nanosecond conversion

    /**
     * SMT-style hardware execution contexts sharing the core's issue
     * queue and functional units and the whole cache hierarchy. The
     * ROB is partitioned evenly; fetch/dispatch and commit bandwidth
     * are round-robin arbitrated. A single-context machine (the
     * default) is bit-identical to the pre-multi-context simulator.
     */
    int contexts = 1;

    /**
     * Effective-window profile used by the racing-granularity
     * experiments (Fig. 8/9): a small ROB models the paper's
     * JIT-expanded "54 JS ops" window (see EXPERIMENTS.md).
     */
    static MachineConfig effectiveWindowProfile();

    /** Default Coffee-Lake-like profile. */
    static MachineConfig defaultProfile();

    /** Profile with memory-latency jitter enabled (noisy system). */
    static MachineConfig noisyProfile(std::uint64_t seed = 7);

    /**
     * 4-way tree-PLRU L1 (same 32KB capacity, 128 sets): the paper's
     * W = 4 example configuration for the PLRU magnifier gadgets.
     */
    static MachineConfig plruProfile();

    /** Random-replacement 8-way L1 (section 6.3's configuration). */
    static MachineConfig randomL1Profile(std::uint64_t seed = 5);

    /** Enable periodic timer interrupts (default 4 ms, as in Fig. 12). */
    MachineConfig &withInterrupts(double interval_ms = 4.0);

    /** Set the hardware-context count (fluent helper). */
    MachineConfig &withContexts(int n);
};

/**
 * Deterministic fingerprint over every configuration field that can
 * influence simulated behaviour. Keys DecodeCache sharing: a cache
 * built for one configuration refuses machines of another.
 */
std::uint64_t machineConfigFingerprint(const MachineConfig &config);

/** The simulated machine. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config = {});

    /**
     * Deep copy of everything that persists across run() calls: cache
     * hierarchy (tag arrays, replacement state, in-flight fills,
     * per-context attribution and jitter streams), branch predictor,
     * memory image, and core counters/cycle (whole-core and
     * per-context). Move-only; restore any number of times.
     * Registered background programs are machine configuration, not
     * captured state: restore() neither adds nor removes them.
     *
     * Aliasing caveats (see EXPERIMENTS.md):
     *  - restore() does not change serial(), so TimingSources
     *    calibrated against this machine BEFORE the snapshot remain
     *    valid afterwards (the warm/calibrate-once use case), but a
     *    calibration done AFTER the snapshot also survives a restore
     *    even though the state it measured was rolled back.
     *  - Programs keep their assigned ids across a restore; ids are
     *    allocated from a process-wide counter that never rolls back,
     *    so a program first run after the snapshot keeps one stable
     *    (always initially cold) id across every replay — which is
     *    what makes replays bit-identical without id collisions.
     */
    class Snapshot
    {
      public:
        Snapshot() = default;
        Snapshot(Snapshot &&) = default;
        Snapshot &operator=(Snapshot &&) = default;

      private:
        friend class Machine;
        Hierarchy::Snapshot hierarchy;
        OooCore::Snapshot core;
        BranchPredictor predictor;
        MemoryImage memory;
    };

    /**
     * Capture the current state (between run() calls). Taking or
     * restoring a snapshot while a TrialTrace is being recorded marks
     * the trace opaque (state time-travel cannot be replayed).
     */
    Snapshot snapshot();

    /**
     * Reset to a snapshotted state. The snapshot must come from a
     * machine with an identical configuration — normally this one.
     * Restoring the most recent snapshot of this machine only copies
     * back cache sets touched since (fast); anything else falls back
     * to a full deep copy.
     */
    void restore(const Snapshot &snap);

    const MachineConfig &config() const { return config_; }

    /** Number of hardware execution contexts. */
    int contexts() const { return config_.contexts; }

    /**
     * Process-unique machine identity. Lets components that lazily
     * bind to a machine (TimingSources) detect that a new
     * Machine was constructed at a recycled address and rebuild.
     */
    std::uint64_t serial() const { return serial_; }

    MemoryImage &memory() { return memory_; }
    const MemoryImage &memory() const { return memory_; }
    Hierarchy &hierarchy() { return hierarchy_; }
    const Hierarchy &hierarchy() const { return hierarchy_; }
    OooCore &core() { return *core_; }
    BranchPredictor &predictor() { return predictor_; }

    /** Global cycle count. */
    Cycle now() const;

    /** Convert cycles to nanoseconds at the configured clock. */
    double toNs(Cycle cycles) const;
    double toUs(Cycle cycles) const { return toNs(cycles) / 1e3; }

    // ---- decoded-trace cache -------------------------------------------
    /** Fingerprint of this machine's configuration. */
    std::uint64_t configFingerprint() const { return fingerprint_; }

    /**
     * Resolve the shared decoded image for a program, assigning it a
     * process-unique id if it has none (or a fresh one if it was
     * mutated in place under its old id — see DecodeCache). run()
     * does this implicitly; exposed for cache-behaviour tests and the
     * decode_cache_hit perf suite.
     */
    std::shared_ptr<const DecodedProgram> decodeProgram(Program &program);

    /** The decode cache this machine resolves programs through. */
    const std::shared_ptr<DecodeCache> &decodeCache() const
    {
        return decodeCache_;
    }

    /**
     * Adopt a shared decode cache (MachinePool gives all its machines
     * one). The cache must carry this machine's config fingerprint.
     */
    void shareDecodeCache(const std::shared_ptr<DecodeCache> &cache);

    /**
     * Run a program to completion on context 0. Assigns the program an
     * id on first use (ids key branch-predictor state). If background
     * programs are registered (setBackground), they co-run on their
     * contexts for the duration — restarted fresh each call — and the
     * returned result is the primary context's attribution.
     */
    RunResult run(Program &program,
                  const std::vector<std::pair<RegId, std::int64_t>>
                      &initial_regs = {},
                  Cycle max_cycles = 500'000'000);

    /**
     * Run a program to completion on an arbitrary context. Contexts
     * other than @p ctx stay idle except for registered backgrounds.
     */
    RunResult run(ContextId ctx, Program &program,
                  const std::vector<std::pair<RegId, std::int64_t>>
                      &initial_regs = {},
                  Cycle max_cycles = 500'000'000);

    /**
     * Co-run driver: execute @p program on @p ctx together with
     * explicit per-context co-runners, all interleaved
     * deterministically (plus any registered backgrounds whose
     * contexts are free). Runs until the primary completes; co-runners
     * are then abandoned mid-flight like descheduled neighbors.
     */
    RunResult coRun(ContextId ctx, Program &program,
                    std::vector<std::pair<ContextId, Program *>> extras,
                    const std::vector<std::pair<RegId, std::int64_t>>
                        &initial_regs = {},
                    Cycle max_cycles = 500'000'000);

    // ---- ambient background workloads (noisy neighbors) ---------------
    /**
     * Register a background program on a context (1..contexts-1). Every
     * subsequent run() co-runs a fresh restart of it, so the primary
     * workload always executes against the same co-resident activity.
     * The program is copied and immediately assigned a process-unique
     * id (the same collision-free allocator foreground programs use).
     * Backgrounds are machine configuration, not microarchitectural
     * state: restore() does not add or remove them.
     */
    void setBackground(ContextId ctx, Program program);

    /** Remove one registered background. */
    void clearBackground(ContextId ctx);

    /** Remove all registered backgrounds. */
    void clearBackgrounds();

    // ---- harness conveniences -----------------------------------------
    /** Write a word and (optionally) keep caches unaware (default). */
    void poke(Addr addr, std::int64_t value);
    std::int64_t peek(Addr addr) const;

    /** clflush-like line invalidation across all levels. */
    void flushLine(Addr addr);
    void flushAllCaches();

    /** Instantly install a line (setup helper; no timing). */
    void warm(Addr addr, int upto_level = 1);

    /** Highest cache level holding the line (0 = none). */
    int probeLevel(Addr addr) const;

    /**
     * Let all in-flight memory requests land (models the idle gap
     * between attacker function invocations). Probing cache state right
     * after a run without settling may miss still-pending fills.
     */
    void settle();

    /**
     * Per-context access counters (traced read; prefer this over raw
     * hierarchy().contextStats() in trial code so the value replays
     * correctly under BatchRunner — the raw accessor reads whatever
     * state the machine happens to hold, which during a replay is NOT
     * the trial's logical state).
     */
    ContextAccessStats contextStats(ContextId ctx) const;

    /** Total misses at a cache level (1-3); traced read like above. */
    std::uint64_t cacheMisses(int level) const;

    /**
     * Reseed the hierarchy's jitter/replacement randomness streams with
     * this machine's configured seeds xor @p mix (the per-trial
     * decorrelation scenarios use; see ScenarioContext::reseedMachine).
     * Part of the traceable harness surface, unlike raw
     * hierarchy().reseed().
     */
    void reseedNoise(std::uint64_t mix);

    // ---- trial record/replay (see trial_trace.hh, exp/batch.hh) -------
    /**
     * Start recording every public harness operation (and its result)
     * into @p trace, which the caller owns and must keep alive until
     * endRecord(). The machine still executes everything for real.
     */
    void beginRecord(TrialTrace &trace);

    /** Stop recording (stamps TrialTrace::rngDraws). */
    void endRecord();

    /**
     * What a replay may paper over beyond an exact op-for-op match.
     * BatchRunner turns on dead-reseed substitution unless its group
     * option is off, in which case followers replay strict.
     */
    struct ReplayTolerance
    {
        // Constructor instead of a default member initializer: the
        // latter cannot feed beginReplay's default argument below
        // (the enclosing class is still incomplete there).
        ReplayTolerance() : substituteDeadReseeds(false) {}

        /**
         * Treat a reseedNoise whose mix differs from the recorded one
         * as matching, provided the trace consumed zero noise-stream
         * draws (TrialTrace::rngDraws == 0, making every reseed in it
         * behaviorally dead). The substituted mixes are applied — in
         * place of the recorded ones — if the replay later diverges
         * and the prefix is re-materialized.
         */
        bool substituteDeadReseeds;
    };

    /**
     * Start replaying against @p trace: as long as incoming operations
     * match the recorded sequence, they are answered from the recorded
     * results with no simulation and no state change. On the first
     * mismatch the machine transparently re-materializes real state —
     * restore(@p base), re-execute the matched prefix for real — and
     * drops out of replay; the caller's trial continues scalar without
     * noticing. @p base must be the state the trace was recorded from,
     * and both must outlive the replay.
     */
    void beginReplay(const TrialTrace &trace, const Snapshot &base,
                     ReplayTolerance tolerance = {});

    /**
     * Finish a replay. Returns true if every operation was served from
     * the trace (machine state was never touched); false if the trial
     * diverged and finished scalar (state reflects the trial's real
     * execution from @p base).
     */
    bool endReplay();

    /**
     * Reseed substitutions the last finished replay tolerated (0 for
     * a strict replay). A clean replay with substitutions was
     * group-stepped, not answered verbatim — BatchRunner's stats
     * distinguish the two.
     */
    std::size_t replaySubstitutions() const { return lastReplaySubs_; }

    /**
     * Ops the last finished replay matched: the whole trial for a
     * clean replay, the re-materialized prefix for a diverged one.
     */
    std::size_t replayMatched() const { return lastReplayMatched_; }

    bool recording() const { return recording_ != nullptr; }
    bool replaying() const { return replayTrace_ != nullptr; }

  private:
    MachineConfig config_;
    std::uint64_t serial_;
    std::uint64_t fingerprint_;
    MemoryImage memory_;
    Hierarchy hierarchy_;
    BranchPredictor predictor_;
    std::unique_ptr<OooCore> core_;
    std::shared_ptr<DecodeCache> decodeCache_;

    /** Registered background (noisy-neighbor) programs, by context. */
    struct Background
    {
        Program program;
        std::shared_ptr<const DecodedProgram> decoded;
    };
    std::map<ContextId, Background> backgrounds_;

    // --- record/replay state (mutable: const reads are traced too) ---
    TrialTrace *recording_ = nullptr;
    std::uint64_t recordDraws0_ = 0;
    const TrialTrace *replayTrace_ = nullptr;
    const Snapshot *replayBase_ = nullptr;
    ReplayTolerance replayTolerance_;
    mutable std::size_t replayPos_ = 0;
    mutable bool replayDiverged_ = false;
    /** (op index, substituted mix) pairs of the active replay. */
    mutable std::vector<std::pair<std::size_t, std::uint64_t>>
        replaySubs_;
    std::size_t lastReplaySubs_ = 0;
    std::size_t lastReplayMatched_ = 0;

    // --- execution internals ---
    RunResult realRun(ContextId ctx, const DecodedProgram &decoded,
                      std::uint64_t program_id,
                      const std::vector<std::pair<RegId, std::int64_t>>
                          &initial_regs,
                      Cycle max_cycles);
    RunResult realCoRun(const TraceOp::RunSpec &spec);
    RunResult replayRun(ContextId ctx, Program &program,
                        std::vector<std::pair<ContextId, Program *>>
                            *extras,
                        const std::vector<std::pair<RegId, std::int64_t>>
                            &initial_regs,
                        Cycle max_cycles);
    void applyReseed(std::uint64_t mix);
    void markOpaque();

    /**
     * Whether two program ids are interchangeable for @p decoded given
     * the replay base state: every branch pc holds the same predictor
     * counter under both ids.
     */
    bool idsEquivalent(const DecodedProgram &decoded, std::uint64_t a,
                       std::uint64_t b) const;

    /**
     * Leave replay mode at the current position: restore the base
     * snapshot, re-execute the matched prefix for real, and continue
     * scalar. Const because divergence can be triggered from const
     * reads (peek/probeLevel/now); the machine is logically mutable
     * here by design.
     */
    void divergeReplay() const;
    void divergeReplayImpl();

    /** Next trace op if it matches @p kind, else diverge and null. */
    const TraceOp *replayExpect(TraceOp::Kind kind) const;
};

} // namespace hr

#endif // HR_SIM_MACHINE_HH
