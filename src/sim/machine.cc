#include "sim/machine.hh"

#include <atomic>
#include <cstring>
#include <limits>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/log.hh"

namespace hr
{

namespace
{

std::uint64_t
nextMachineSerial()
{
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/**
 * Logical-run bookkeeping at the public run/coRun boundary: every
 * execution tier (real or replayed) funnels through here exactly
 * once per logical run, so these metrics are --jobs/tier invariant.
 * Reads only raw RunResult fields — never traced Machine ops, which
 * would append TraceOps to recordings and break replay byte-identity.
 */
void
noteMachineRun(ContextId ctx, const RunResult &result)
{
    metrics().machineRuns.add();
    metrics().machineRunInstrs.observe(result.counters.committedInstrs);
    HR_TRACE_COUNTER("sim", "sim.cycles", ctx, result.endCycle);
}

} // namespace

MachineConfig
MachineConfig::defaultProfile()
{
    return MachineConfig{};
}

MachineConfig
MachineConfig::effectiveWindowProfile()
{
    MachineConfig config;
    config.core.robSize = 64;
    return config;
}

MachineConfig
MachineConfig::noisyProfile(std::uint64_t seed)
{
    MachineConfig config;
    config.memory.l3Jitter = 8;
    config.memory.memJitter = 30;
    config.memory.rngSeed = seed;
    return config;
}

MachineConfig
MachineConfig::plruProfile()
{
    MachineConfig config;
    config.memory.l1.numSets = 128;
    config.memory.l1.assoc = 4;
    config.memory.l1.policy = PolicyKind::TreePlru;
    return config;
}

MachineConfig
MachineConfig::randomL1Profile(std::uint64_t seed)
{
    MachineConfig config;
    config.memory.l1.numSets = 64;
    config.memory.l1.assoc = 8;
    config.memory.l1.policy = PolicyKind::Random;
    config.memory.l1.rngSeed = seed;
    config.memory.l1Mshrs = 16;
    return config;
}

MachineConfig &
MachineConfig::withInterrupts(double interval_ms)
{
    core.interruptInterval =
        static_cast<Cycle>(interval_ms * 1e6 * ghz);
    return *this;
}

MachineConfig &
MachineConfig::withContexts(int n)
{
    contexts = n;
    return *this;
}

namespace
{

/** Propagate MachineConfig::contexts into the hierarchy's config. */
MachineConfig
normalized(MachineConfig config)
{
    fatalIf(config.contexts < 1, "MachineConfig: contexts must be >= 1");
    config.memory.contexts = config.contexts;
    return config;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

struct Fingerprinter
{
    std::uint64_t hash = kFnvOffset;

    void
    mix(std::uint64_t value)
    {
        hash ^= value;
        hash *= kFnvPrime;
    }

    void
    mix(double value)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &value, sizeof(bits));
        mix(bits);
    }

    void
    mix(const FuConfig &fu)
    {
        mix(static_cast<std::uint64_t>(fu.count));
        mix(fu.latency);
        mix(fu.initInterval);
    }

    void
    mix(const CacheConfig &cache)
    {
        mix(static_cast<std::uint64_t>(cache.numSets));
        mix(static_cast<std::uint64_t>(cache.assoc));
        mix(static_cast<std::uint64_t>(cache.lineBytes));
        mix(static_cast<std::uint64_t>(cache.policy));
        mix(cache.rngSeed);
    }
};

} // namespace

std::uint64_t
machineConfigFingerprint(const MachineConfig &config)
{
    Fingerprinter fp;
    const CoreConfig &core = config.core;
    fp.mix(static_cast<std::uint64_t>(core.fetchWidth));
    fp.mix(static_cast<std::uint64_t>(core.issueWidth));
    fp.mix(static_cast<std::uint64_t>(core.commitWidth));
    fp.mix(static_cast<std::uint64_t>(core.robSize));
    fp.mix(static_cast<std::uint64_t>(core.iqSize));
    fp.mix(core.intAlu);
    fp.mix(core.intMul);
    fp.mix(core.fpDiv);
    fp.mix(core.memRead);
    fp.mix(core.memWrite);
    fp.mix(core.branchU);
    fp.mix(core.mispredictPenalty);
    fp.mix(std::uint64_t{core.readyOrderIssue ? 1u : 0u});
    fp.mix(std::uint64_t{core.delayOnMiss ? 1u : 0u});
    fp.mix(core.interruptInterval);
    fp.mix(core.interruptOverhead);

    const HierarchyConfig &mem = config.memory;
    fp.mix(mem.l1);
    fp.mix(mem.l2);
    fp.mix(mem.l3);
    fp.mix(mem.l1Latency);
    fp.mix(mem.l2Latency);
    fp.mix(mem.l3Latency);
    fp.mix(mem.memLatency);
    fp.mix(mem.l3Jitter);
    fp.mix(mem.memJitter);
    fp.mix(static_cast<std::uint64_t>(mem.l1Mshrs));
    fp.mix(std::uint64_t{mem.inclusiveL3 ? 1u : 0u});
    fp.mix(mem.rngSeed);
    fp.mix(static_cast<std::uint64_t>(mem.contexts));

    fp.mix(config.ghz);
    fp.mix(static_cast<std::uint64_t>(config.contexts));
    return fp.hash;
}

Machine::Machine(const MachineConfig &config)
    : config_(normalized(config)), serial_(nextMachineSerial()),
      fingerprint_(machineConfigFingerprint(config_)),
      hierarchy_(config_.memory)
{
    core_ = std::make_unique<OooCore>(config_.core, hierarchy_, memory_,
                                      predictor_, config_.contexts);
    decodeCache_ = std::make_shared<DecodeCache>(fingerprint_);
}

double
Machine::toNs(Cycle cycles) const
{
    return static_cast<double>(cycles) / config_.ghz;
}

Machine::Snapshot
Machine::snapshot()
{
    if (replayTrace_)
        divergeReplayImpl();
    if (recording_)
        markOpaque();
    Snapshot snap;
    snap.hierarchy = hierarchy_.snapshot();
    snap.core = core_->snapshot();
    snap.predictor = predictor_;
    snap.memory = memory_;
    return snap;
}

void
Machine::restore(const Snapshot &snap)
{
    if (replayTrace_)
        divergeReplayImpl();
    if (recording_)
        markOpaque();
    hierarchy_.restore(snap.hierarchy);
    core_->restore(snap.core);
    predictor_ = snap.predictor;
    memory_ = snap.memory;
}

std::shared_ptr<const DecodedProgram>
Machine::decodeProgram(Program &program)
{
    return decodeCache_->acquire(program);
}

void
Machine::shareDecodeCache(const std::shared_ptr<DecodeCache> &cache)
{
    fatalIf(cache == nullptr, "Machine::shareDecodeCache: null cache");
    fatalIf(cache->configFingerprint() != fingerprint_,
            "Machine::shareDecodeCache: cache was built for a machine "
            "with a different configuration fingerprint");
    decodeCache_ = cache;
}

RunResult
Machine::run(Program &program,
             const std::vector<std::pair<RegId, std::int64_t>>
                 &initial_regs,
             Cycle max_cycles)
{
    return run(0, program, initial_regs, max_cycles);
}

RunResult
Machine::run(ContextId ctx, Program &program,
             const std::vector<std::pair<RegId, std::int64_t>>
                 &initial_regs,
             Cycle max_cycles)
{
    fatalIf(ctx >= static_cast<ContextId>(config_.contexts),
            "Machine::run: context out of range");
    if (replayTrace_) {
        const RunResult result =
            replayRun(ctx, program, nullptr, initial_regs, max_cycles);
        noteMachineRun(ctx, result);
        return result;
    }

    auto decoded = decodeCache_->acquire(program);
    RunResult result =
        realRun(ctx, *decoded, program.id, initial_regs, max_cycles);
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::Run;
        op.run.ctx = ctx;
        op.run.decoded = std::move(decoded);
        op.run.programId = program.id;
        op.run.initialRegs = initial_regs;
        op.run.maxCycles = max_cycles;
        op.result = result;
        recording_->ops.push_back(std::move(op));
    }
    noteMachineRun(ctx, result);
    return result;
}

RunResult
Machine::realRun(ContextId ctx, const DecodedProgram &decoded,
                 std::uint64_t program_id,
                 const std::vector<std::pair<RegId, std::int64_t>>
                     &initial_regs,
                 Cycle max_cycles)
{
    if (backgrounds_.empty()) {
        // Fast path, and the exact legacy single-context code path.
        if (ctx == 0)
            return core_->run(decoded, program_id, initial_regs,
                              max_cycles);
        return core_->runOn(ctx, decoded, program_id, initial_regs,
                            max_cycles);
    }

    ContextProgram primary;
    primary.ctx = ctx;
    primary.decoded = &decoded;
    primary.programId = program_id;
    primary.initialRegs = initial_regs;

    // Registered backgrounds fill in every other context; each run
    // restarts them from the top.
    std::vector<ContextProgram> others;
    for (auto &[bg_ctx, bg] : backgrounds_) {
        if (bg_ctx == ctx)
            continue;
        ContextProgram spec;
        spec.ctx = bg_ctx;
        spec.decoded = bg.decoded.get();
        spec.programId = bg.program.id;
        others.push_back(std::move(spec));
    }
    return core_->coRun(primary, others, max_cycles);
}

RunResult
Machine::coRun(ContextId ctx, Program &program,
               std::vector<std::pair<ContextId, Program *>> extras,
               const std::vector<std::pair<RegId, std::int64_t>>
                   &initial_regs,
               Cycle max_cycles)
{
    fatalIf(ctx >= static_cast<ContextId>(config_.contexts),
            "Machine::run: context out of range");
    if (replayTrace_) {
        const RunResult result =
            replayRun(ctx, program, &extras, initial_regs, max_cycles);
        noteMachineRun(ctx, result);
        return result;
    }

    TraceOp::RunSpec spec;
    spec.ctx = ctx;
    spec.decoded = decodeCache_->acquire(program);
    spec.programId = program.id;
    spec.initialRegs = initial_regs;
    spec.maxCycles = max_cycles;
    for (auto &[extra_ctx, extra_prog] : extras) {
        fatalIf(extra_ctx >= static_cast<ContextId>(config_.contexts),
                "Machine::coRun: co-runner context out of range");
        fatalIf(extra_ctx == ctx,
                "Machine::coRun: co-runner on the primary context");
        for (const TraceOp::Extra &other : spec.extras)
            fatalIf(other.ctx == extra_ctx,
                    "Machine::coRun: two co-runners on one context");
        TraceOp::Extra extra;
        extra.ctx = extra_ctx;
        extra.decoded = decodeCache_->acquire(*extra_prog);
        extra.programId = extra_prog->id;
        spec.extras.push_back(std::move(extra));
    }

    RunResult result = realCoRun(spec);
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::Run;
        op.run = std::move(spec);
        op.result = result;
        recording_->ops.push_back(std::move(op));
    }
    noteMachineRun(ctx, result);
    return result;
}

RunResult
Machine::realCoRun(const TraceOp::RunSpec &spec)
{
    ContextProgram primary;
    primary.ctx = spec.ctx;
    primary.decoded = spec.decoded.get();
    primary.programId = spec.programId;
    primary.initialRegs = spec.initialRegs;

    std::vector<ContextProgram> others;
    for (const TraceOp::Extra &extra : spec.extras) {
        ContextProgram cp;
        cp.ctx = extra.ctx;
        cp.decoded = extra.decoded.get();
        cp.programId = extra.programId;
        others.push_back(std::move(cp));
    }
    // Registered backgrounds fill in every context no explicit
    // co-runner claimed; each run restarts them from the top.
    for (auto &[bg_ctx, bg] : backgrounds_) {
        if (bg_ctx == spec.ctx)
            continue;
        bool taken = false;
        for (const ContextProgram &other : others)
            taken |= other.ctx == bg_ctx;
        if (taken)
            continue;
        ContextProgram cp;
        cp.ctx = bg_ctx;
        cp.decoded = bg.decoded.get();
        cp.programId = bg.program.id;
        others.push_back(std::move(cp));
    }
    return core_->coRun(primary, others, spec.maxCycles);
}

RunResult
Machine::replayRun(ContextId ctx, Program &program,
                   std::vector<std::pair<ContextId, Program *>> *extras,
                   const std::vector<std::pair<RegId, std::int64_t>>
                       &initial_regs,
                   Cycle max_cycles)
{
    const TraceOp *op = replayExpect(TraceOp::Kind::Run);
    bool match = op != nullptr;

    // Match one trial program against its recorded counterpart, and on
    // success REBIND it to the recorded id so a later divergence
    // replays the prefix consistently.
    //
    // A program already carrying an id resolves through the cache (the
    // shared cache content-aliases identical programs to one image, so
    // pointer equality is exact content equality). A program built
    // fresh this trial (id 0 — the common rebuild-per-trial gadget
    // pattern) is compared against the recorded image directly, with
    // no cache traffic at all: acquiring it would allocate an id and
    // insert an alias entry per follower trial, growing the cache
    // without bound for entries that are immediately superseded by the
    // rebind. Either way the id swap is only legal when the two ids
    // are interchangeable — same predictor counters on every branch pc
    // in the base state (id 0 stands for "any never-trained id": no
    // program ever executes with id 0).
    auto matchAndRebind =
        [&](Program &prog,
            const std::shared_ptr<const DecodedProgram> &recorded,
            std::uint64_t recorded_id) {
            if (prog.id != 0) {
                auto decoded = decodeCache_->acquire(prog);
                if (decoded.get() != recorded.get())
                    return false;
                if (prog.id == recorded_id)
                    return true;
                if (!idsEquivalent(*decoded, prog.id, recorded_id))
                    return false;
            } else {
                if (prog.numRegs != recorded->numRegs ||
                    !sameCode(recorded->code, prog.code)) {
                    return false;
                }
                if (!idsEquivalent(*recorded, 0, recorded_id))
                    return false;
            }
            prog.id = recorded_id;
            return true;
        };

    if (match) {
        const TraceOp::RunSpec &spec = op->run;
        const std::size_t n_extras = extras ? extras->size() : 0;
        match = spec.ctx == ctx && spec.maxCycles == max_cycles &&
                spec.initialRegs == initial_regs &&
                spec.extras.size() == n_extras &&
                matchAndRebind(program, spec.decoded, spec.programId);
        if (match && extras) {
            for (std::size_t i = 0; match && i < n_extras; ++i) {
                auto &[extra_ctx, extra_prog] = (*extras)[i];
                const TraceOp::Extra &rec = spec.extras[i];
                match = extra_ctx == rec.ctx &&
                        matchAndRebind(*extra_prog, rec.decoded,
                                       rec.programId);
            }
        }
    }
    if (!match) {
        divergeReplayImpl();
        if (extras)
            return coRun(ctx, program, std::move(*extras), initial_regs,
                         max_cycles);
        return run(ctx, program, initial_regs, max_cycles);
    }
    ++replayPos_;
    return op->result;
}

bool
Machine::idsEquivalent(const DecodedProgram &decoded, std::uint64_t a,
                       std::uint64_t b) const
{
    if (a == b)
        return true;
    // Predictor keys are injective per (id, pc) for the id range a
    // process can allocate, so the counters under these keys are the
    // only way an id's value can reach simulated behaviour.
    const BranchPredictor &base = replayBase_->predictor;
    for (std::int32_t pc : decoded.branchPcs) {
        if (base.peek(BranchPredictor::makeKey(a, pc)) !=
            base.peek(BranchPredictor::makeKey(b, pc))) {
            return false;
        }
    }
    return true;
}

void
Machine::setBackground(ContextId ctx, Program program)
{
    fatalIf(ctx == 0, "Machine::setBackground: context 0 is the "
                      "primary context");
    fatalIf(ctx >= static_cast<ContextId>(config_.contexts),
            "Machine::setBackground: context out of range (configure "
            "MachineConfig::contexts)");
    if (replayTrace_)
        divergeReplayImpl();
    if (recording_)
        markOpaque();
    // The registered copy gets its own fresh (cold-predictor) id even
    // if the caller's program already ran elsewhere: backgrounds are
    // machine configuration and never share predictor state with the
    // foreground instance of the same code.
    Background bg;
    bg.program = std::move(program);
    bg.program.id = 0;
    bg.decoded = decodeCache_->acquire(bg.program);
    backgrounds_.insert_or_assign(ctx, std::move(bg));
}

void
Machine::clearBackground(ContextId ctx)
{
    if (replayTrace_)
        divergeReplayImpl();
    if (recording_)
        markOpaque();
    backgrounds_.erase(ctx);
}

void
Machine::clearBackgrounds()
{
    if (replayTrace_)
        divergeReplayImpl();
    if (recording_)
        markOpaque();
    backgrounds_.clear();
}

// ---- traced harness operations ----------------------------------------

void
Machine::poke(Addr addr, std::int64_t value)
{
    if (replayTrace_) {
        const TraceOp *op = replayExpect(TraceOp::Kind::Poke);
        if (op && op->addr == addr && op->value == value) {
            ++replayPos_;
            return;
        }
        divergeReplayImpl();
    }
    memory_.write(addr, value);
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::Poke;
        op.addr = addr;
        op.value = value;
        recording_->ops.push_back(std::move(op));
    }
}

std::int64_t
Machine::peek(Addr addr) const
{
    if (replayTrace_) {
        const TraceOp *op = replayExpect(TraceOp::Kind::Peek);
        if (op && op->addr == addr) {
            ++replayPos_;
            return op->value;
        }
        divergeReplay();
    }
    const std::int64_t value = memory_.read(addr);
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::Peek;
        op.addr = addr;
        op.value = value;
        recording_->ops.push_back(std::move(op));
    }
    return value;
}

void
Machine::flushLine(Addr addr)
{
    if (replayTrace_) {
        const TraceOp *op = replayExpect(TraceOp::Kind::FlushLine);
        if (op && op->addr == addr) {
            ++replayPos_;
            return;
        }
        divergeReplayImpl();
    }
    hierarchy_.flushLine(addr);
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::FlushLine;
        op.addr = addr;
        recording_->ops.push_back(std::move(op));
    }
}

void
Machine::flushAllCaches()
{
    if (replayTrace_) {
        const TraceOp *op = replayExpect(TraceOp::Kind::FlushAll);
        if (op) {
            ++replayPos_;
            return;
        }
        divergeReplayImpl();
    }
    hierarchy_.flushAll();
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::FlushAll;
        recording_->ops.push_back(std::move(op));
    }
}

void
Machine::warm(Addr addr, int upto_level)
{
    if (replayTrace_) {
        const TraceOp *op = replayExpect(TraceOp::Kind::Warm);
        if (op && op->addr == addr && op->level == upto_level) {
            ++replayPos_;
            return;
        }
        divergeReplayImpl();
    }
    hierarchy_.warm(addr, upto_level);
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::Warm;
        op.addr = addr;
        op.level = upto_level;
        recording_->ops.push_back(std::move(op));
    }
}

int
Machine::probeLevel(Addr addr) const
{
    if (replayTrace_) {
        const TraceOp *op = replayExpect(TraceOp::Kind::ProbeLevel);
        if (op && op->addr == addr) {
            ++replayPos_;
            return op->level;
        }
        divergeReplay();
    }
    const int level = hierarchy_.probeLevel(addr);
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::ProbeLevel;
        op.addr = addr;
        op.level = level;
        recording_->ops.push_back(std::move(op));
    }
    return level;
}

void
Machine::settle()
{
    if (replayTrace_) {
        const TraceOp *op = replayExpect(TraceOp::Kind::Settle);
        if (op) {
            ++replayPos_;
            return;
        }
        divergeReplayImpl();
    }
    hierarchy_.drainAllFills();
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::Settle;
        recording_->ops.push_back(std::move(op));
    }
}

Cycle
Machine::now() const
{
    if (replayTrace_) {
        const TraceOp *op = replayExpect(TraceOp::Kind::Now);
        if (op) {
            ++replayPos_;
            return op->nowCycle;
        }
        divergeReplay();
    }
    const Cycle cycle = core_->cycle();
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::Now;
        op.nowCycle = cycle;
        recording_->ops.push_back(std::move(op));
    }
    return cycle;
}

ContextAccessStats
Machine::contextStats(ContextId ctx) const
{
    if (replayTrace_) {
        const TraceOp *op = replayExpect(TraceOp::Kind::CtxStats);
        if (op && op->level == static_cast<int>(ctx)) {
            ++replayPos_;
            return op->ctxStats;
        }
        divergeReplay();
    }
    const ContextAccessStats stats = hierarchy_.contextStats(ctx);
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::CtxStats;
        op.level = static_cast<int>(ctx);
        op.ctxStats = stats;
        recording_->ops.push_back(std::move(op));
    }
    return stats;
}

std::uint64_t
Machine::cacheMisses(int level) const
{
    if (replayTrace_) {
        const TraceOp *op = replayExpect(TraceOp::Kind::CacheMisses);
        if (op && op->level == level) {
            ++replayPos_;
            return static_cast<std::uint64_t>(op->value);
        }
        divergeReplay();
    }
    std::uint64_t misses = 0;
    switch (level) {
      case 1:
        misses = hierarchy_.l1().stats().misses;
        break;
      case 2:
        misses = hierarchy_.l2().stats().misses;
        break;
      case 3:
        misses = hierarchy_.l3().stats().misses;
        break;
      default:
        fatal("Machine::cacheMisses: level must be 1-3");
    }
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::CacheMisses;
        op.level = level;
        op.value = static_cast<std::int64_t>(misses);
        recording_->ops.push_back(std::move(op));
    }
    return misses;
}

void
Machine::reseedNoise(std::uint64_t mix)
{
    // Logical-op count: once per public reseed under every tier
    // (replay-matched, dead-substituted, diverged, and real).
    metrics().machineReseeds.add();
    if (replayTrace_) {
        const TraceOp *op = replayExpect(TraceOp::Kind::Reseed);
        if (op && op->mix == mix) {
            ++replayPos_;
            return;
        }
        // Dead-reseed substitution (group-stepped tier): the trace
        // consumed zero noise-stream draws, so no recorded result can
        // depend on the seeds this reseed installs — a different mix
        // is behaviorally inert and the replay stays exact. Remember
        // the substitution so a later divergence re-materializes the
        // prefix with THIS lane's mix, not the leader's.
        if (op && replayTolerance_.substituteDeadReseeds &&
            replayTrace_->rngDraws == 0) {
            replaySubs_.emplace_back(replayPos_, mix);
            ++replayPos_;
            return;
        }
        divergeReplayImpl();
    }
    applyReseed(mix);
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::Reseed;
        op.mix = mix;
        recording_->ops.push_back(std::move(op));
    }
}

void
Machine::applyReseed(std::uint64_t mix)
{
    hierarchy_.reseed(config_.memory.rngSeed ^ mix,
                      config_.memory.l1.rngSeed ^ mix,
                      config_.memory.l2.rngSeed ^ mix,
                      config_.memory.l3.rngSeed ^ mix);
}

// ---- record/replay ----------------------------------------------------

void
Machine::beginRecord(TrialTrace &trace)
{
    panicIf(recording_ != nullptr || replayTrace_ != nullptr,
            "Machine::beginRecord: already tracing");
    recording_ = &trace;
    recordDraws0_ = hierarchy_.rngDraws();
}

void
Machine::endRecord()
{
    panicIf(recording_ == nullptr,
            "Machine::endRecord: not recording");
    // Saturate rather than wrap: restore() rolls the hierarchy's draw
    // counters back (and marks the trace opaque anyway), and a bogus
    // huge count must never read as the zero that licenses dead-reseed
    // substitution.
    const std::uint64_t draws = hierarchy_.rngDraws();
    recording_->rngDraws =
        draws >= recordDraws0_
            ? draws - recordDraws0_
            : std::numeric_limits<std::uint64_t>::max();
    metrics().machineRecords.add();
    if (draws >= recordDraws0_)
        metrics().machineRecordRngDraws.add(draws - recordDraws0_);
    HR_TRACE_INSTANT2("machine", "machine.record", "ops",
                      recording_->ops.size(), "rng_draws",
                      recording_->rngDraws);
    recording_ = nullptr;
}

void
Machine::beginReplay(const TrialTrace &trace, const Snapshot &base,
                     ReplayTolerance tolerance)
{
    panicIf(recording_ != nullptr || replayTrace_ != nullptr,
            "Machine::beginReplay: already tracing");
    fatalIf(trace.opaque,
            "Machine::beginReplay: trace is opaque (the leader used "
            "snapshot/restore or changed backgrounds)");
    replayTrace_ = &trace;
    replayBase_ = &base;
    replayTolerance_ = tolerance;
    replayPos_ = 0;
    replayDiverged_ = false;
    replaySubs_.clear();
}

bool
Machine::endReplay()
{
    // Divergence already cleared replayTrace_ mid-trial; a clean
    // replay still holds it here. A trial that made fewer ops than
    // the trace is still clean: every answer it received is what real
    // execution from the base state would have produced.
    panicIf(replayTrace_ == nullptr && !replayDiverged_,
            "Machine::endReplay: not replaying");
    replayTrace_ = nullptr;
    replayBase_ = nullptr;
    lastReplayMatched_ = replayPos_;
    replayPos_ = 0;
    lastReplaySubs_ = replaySubs_.size();
    replaySubs_.clear();
    const bool clean = !replayDiverged_;
    replayDiverged_ = false;
    if (clean)
        metrics().machineReplaysClean.add();
    else
        metrics().machineReplaysDiverged.add();
    HR_TRACE_INSTANT2("machine", "machine.replay_end", "matched",
                      lastReplayMatched_, "clean",
                      static_cast<std::uint64_t>(clean));
    return clean;
}

void
Machine::markOpaque()
{
    recording_->opaque = true;
    HR_TRACE_INSTANT("machine", "machine.trace_opaque");
}

const TraceOp *
Machine::replayExpect(TraceOp::Kind kind) const
{
    if (replayPos_ >= replayTrace_->ops.size())
        return nullptr;
    const TraceOp &op = replayTrace_->ops[replayPos_];
    return op.kind == kind ? &op : nullptr;
}

void
Machine::divergeReplay() const
{
    // Divergence can be triggered from const reads (peek, probeLevel,
    // now); re-materializing state is logically a mutation.
    const_cast<Machine *>(this)->divergeReplayImpl();
}

void
Machine::divergeReplayImpl()
{
    if (replayTrace_ == nullptr)
        return;
    const TrialTrace &trace = *replayTrace_;
    const Snapshot &base = *replayBase_;
    const std::size_t prefix = replayPos_;
    const auto subs = std::move(replaySubs_);

    // Leave replay mode before touching state so everything below —
    // and everything the trial does from here on — executes for real.
    replayTrace_ = nullptr;
    replayBase_ = nullptr;
    replayDiverged_ = true;
    replaySubs_.clear();

    HR_TRACE_INSTANT1("machine", "machine.replay_diverge",
                      "prefix_ops", prefix);

    // Re-materialize: the trial logically executed the matched prefix
    // from the base state; do exactly that, for real. Determinism
    // makes the re-execution reproduce every recorded result.
    restore(base);
    std::size_t next_sub = 0;
    for (std::size_t i = 0; i < prefix; ++i) {
        const TraceOp &op = trace.ops[i];
        // A reseed the replay tolerated by substitution re-executes
        // with the substituted (this trial's) mix, not the leader's:
        // the prefix being re-materialized is THIS trial's logical
        // history. (Being dead — zero draws before the divergence
        // point — either mix reproduces the recorded results; the
        // substituted one also leaves the post-divergence noise
        // streams seeded the way this trial asked for.)
        std::uint64_t reseed_mix = op.mix;
        if (next_sub < subs.size() && subs[next_sub].first == i) {
            reseed_mix = subs[next_sub].second;
            ++next_sub;
        }
        switch (op.kind) {
          case TraceOp::Kind::Run:
            realCoRun(op.run);
            break;
          case TraceOp::Kind::Poke:
            memory_.write(op.addr, op.value);
            break;
          case TraceOp::Kind::FlushLine:
            hierarchy_.flushLine(op.addr);
            break;
          case TraceOp::Kind::FlushAll:
            hierarchy_.flushAll();
            break;
          case TraceOp::Kind::Warm:
            hierarchy_.warm(op.addr, op.level);
            break;
          case TraceOp::Kind::Settle:
            hierarchy_.drainAllFills();
            break;
          case TraceOp::Kind::Reseed:
            applyReseed(reseed_mix);
            break;
          case TraceOp::Kind::Peek:
          case TraceOp::Kind::ProbeLevel:
          case TraceOp::Kind::Now:
          case TraceOp::Kind::CtxStats:
          case TraceOp::Kind::CacheMisses:
            break; // pure reads leave no state to re-materialize
        }
    }
}

} // namespace hr
