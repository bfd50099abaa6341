#include "gadgets/sources.hh"

#include <utility>

#include "gadgets/arbitrary_magnifier.hh"
#include "gadgets/arith_magnifier.hh"
#include "gadgets/gadget_registry.hh"
#include "gadgets/hacky_timer.hh"
#include "gadgets/plru_magnifier.hh"
#include "gadgets/plru_pattern.hh"
#include "gadgets/racing.hh"
#include "gadgets/repetition.hh"
#include "util/log.hh"

namespace hr
{

namespace
{

// ---------------------------------------------------------------------
// coarse_timer: the bare browser clock (why magnification is needed).
// ---------------------------------------------------------------------

class CoarseTimerSource final : public TimingSource
{
  public:
    std::string name() const override { return "coarse_timer"; }

    std::string
    describe() const override
    {
        return "the bare quantized clock timing an op chain directly "
               "— at 5 us resolution the bit is invisible";
    }

    void
    configure(const ParamSet &params) override
    {
        cfg_.resolutionNs =
            params.getDouble("resolution_ns", cfg_.resolutionNs);
        cfg_.jitterNs = params.getDouble("jitter_ns", cfg_.jitterNs);
        cfg_.targetOp = opcodeParam(params, "op", cfg_.targetOp);
        cfg_.slowOps =
            static_cast<int>(params.getInt("slow_ops", cfg_.slowOps));
        cfg_.fastOps =
            static_cast<int>(params.getInt("fast_ops", cfg_.fastOps));
        binding_ = {};
        calibration_.reset();
    }

    void
    calibrate(Machine &machine) override
    {
        ensure(machine);
        // Lenient: failing to separate the states is this source's
        // expected behaviour at browser resolutions.
        calibration_.set(calibrateThresholdLenient([&](bool slow) {
                             return observeNs(machine, slow);
                         }),
                         machine);
    }

    TimingSample
    sample(Machine &machine, bool secret) override
    {
        ensure(machine);
        const Cycle t0 = machine.now();
        const double ns = observeNs(machine, secret);
        TimingSample s;
        s.cycles = machine.now() - t0;
        s.ns = ns;
        s.bit = calibration_.isSlow(machine, ns);
        return s;
    }

    std::unique_ptr<TimingSource>
    clone() const override
    {
        auto copy = std::make_unique<CoarseTimerSource>();
        copy->cfg_ = cfg_;
        return copy;
    }

  private:
    struct Config
    {
        double resolutionNs = 5000;
        double jitterNs = 0;
        Opcode targetOp = Opcode::Add;
        int slowOps = 400;
        int fastOps = 10;
    };

    Config cfg_;
    MachineBinding binding_;
    std::unique_ptr<CoarseTimer> clock_;
    MachineCalibration calibration_;

    void
    ensure(Machine &machine)
    {
        if (binding_.boundTo(machine))
            return;
        TimerConfig config;
        config.ghz = machine.config().ghz;
        config.resolutionNs = cfg_.resolutionNs;
        config.jitterNs = cfg_.jitterNs;
        clock_ = std::make_unique<CoarseTimer>(config);
        binding_.bind(machine);
    }

    double
    observeNs(Machine &machine, bool slow)
    {
        ProgramBuilder builder("coarse_probe");
        RegId r = builder.movImm(1);
        builder.opChain(cfg_.targetOp,
                        static_cast<std::size_t>(slow ? cfg_.slowOps
                                                      : cfg_.fastOps),
                        r, 1);
        builder.halt();
        Program program = builder.take();
        const Cycle t0 = machine.now();
        machine.run(program);
        return clock_->elapsedNs(t0, machine.now());
    }
};

} // namespace

// ---------------------------------------------------------------------
// Pipeline.
// ---------------------------------------------------------------------

Pipeline &
Pipeline::then(std::unique_ptr<TimingSource> stage)
{
    stages_.push_back(std::move(stage));
    return *this;
}

std::string
Pipeline::name() const
{
    if (!name_.empty())
        return name_;
    std::string joined;
    for (const auto &stage : stages_)
        joined += (joined.empty() ? "" : "|") + stage->name();
    return "pipeline(" + joined + ")";
}

std::string
Pipeline::describe() const
{
    std::string joined;
    for (const auto &stage : stages_)
        joined += (joined.empty() ? "" : " -> ") + stage->name();
    return "composed stack: " + joined + ", read with the coarse clock";
}

void
Pipeline::configure(const ParamSet &params)
{
    rounds_ = static_cast<int>(params.getInt("rounds", rounds_));
    fatalIf(rounds_ < 1, "pipeline: rounds must be >= 1");
    timerConfig_.resolutionNs =
        params.getDouble("resolution_ns", timerConfig_.resolutionNs);
    timerConfig_.jitterNs =
        params.getDouble("jitter_ns", timerConfig_.jitterNs);
    // Reconfiguration invalidates both the clock and any threshold
    // calibrated against the old configuration.
    clock_.reset();
    calibration_.reset();
    for (auto &stage : stages_)
        stage->configure(params);
}

bool
Pipeline::compatible(const Machine &machine) const
{
    if (stages_.empty() || !stages_.back()->isAmplifier())
        return false;
    for (std::size_t i = 0; i + 1 < stages_.size(); ++i)
        if (!stages_[i]->isEncoder())
            return false;
    for (const auto &stage : stages_)
        if (!stage->compatible(machine))
            return false;
    return true;
}

TimingSource &
Pipeline::amplifier() const
{
    fatalIf(stages_.empty(), "pipeline: no stages (use then())");
    TimingSource &amp = *stages_.back();
    fatalIf(!amp.isAmplifier(),
            "pipeline: final stage " + amp.name() + " is not an "
            "amplifier");
    return amp;
}

void
Pipeline::ensureClock(Machine &machine)
{
    if (!clock_ || timerConfig_.ghz != machine.config().ghz) {
        timerConfig_.ghz = machine.config().ghz;
        clock_ = std::make_unique<CoarseTimer>(timerConfig_);
    }
}

double
Pipeline::observeNs(Machine &machine, bool present)
{
    ensureClock(machine);
    TimingSource &amp = amplifier();
    const auto lines = amp.inputLines(machine);
    for (std::size_t i = 0; i + 1 < stages_.size(); ++i) {
        TimingSource &encoder = *stages_[i];
        fatalIf(!encoder.isEncoder(), "pipeline: stage " +
                                          encoder.name() +
                                          " is not an encoder");
        encoder.bindTarget(machine, lines.first, lines.second);
        encoder.primeEncoder(machine, present);
    }
    amp.prepare(machine);
    for (std::size_t i = 0; i + 1 < stages_.size(); ++i)
        stages_[i]->transmit(machine, present);
    const Cycle t0 = machine.now();
    const double begin = clock_->nowNs(t0);
    amp.amplify(machine);
    return clock_->nowNs(machine.now()) - begin;
}

void
Pipeline::calibrate(Machine &machine)
{
    TimingSource &amp = amplifier();
    ensureClock(machine);
    const auto observe = [&](bool slow) {
        double ns = 0;
        for (int round = 0; round < rounds_; ++round) {
            amp.prepare(machine);
            amp.forceInput(machine, slow);
            const double begin = clock_->nowNs(machine.now());
            amp.amplify(machine);
            ns += clock_->nowNs(machine.now()) - begin;
        }
        return ns;
    };
    calibration_.set(calibrateThreshold(observe, name() + "::calibrate"),
                     machine);
}

TimingSample
Pipeline::sample(Machine &machine, bool secret)
{
    TimingSource &amp = amplifier();
    // Uniform polarity: secret == true must read slow, whatever the
    // amplifier's input convention.
    const bool present = secret == amp.presentMeansSlow();
    TimingSample s;
    const Cycle t0 = machine.now();
    for (int round = 0; round < rounds_; ++round)
        s.ns += observeNs(machine, present);
    s.cycles = machine.now() - t0;
    s.bit = calibration_.isSlow(machine, s.ns);
    return s;
}

std::unique_ptr<TimingSource>
Pipeline::clone() const
{
    auto copy = std::make_unique<Pipeline>(name_);
    for (const auto &stage : stages_)
        copy->then(stage->clone());
    copy->rounds_ = rounds_;
    copy->timerConfig_ = timerConfig_;
    return copy;
}

// ---------------------------------------------------------------------
// smt_contention: SMT port-pressure progress timer. Instead of reading
// any clock, the attacker co-runs a counting thread on a sibling
// hardware context; how far the counter progressed while the measured
// work ran IS the time reading. Needs contexts >= 2.
// ---------------------------------------------------------------------

class SmtContentionSource final : public TimingSource
{
  public:
    std::string name() const override { return "smt_contention"; }

    std::string
    describe() const override
    {
        return "SMT port-pressure timer: a sibling context's counting "
               "progress measures the primary's duration — no clock "
               "API at all";
    }

    void
    configure(const ParamSet &params) override
    {
        cfg_.targetOp = opcodeParam(params, "op", cfg_.targetOp);
        cfg_.slowOps =
            static_cast<int>(params.getInt("slow_ops", cfg_.slowOps));
        cfg_.fastOps =
            static_cast<int>(params.getInt("fast_ops", cfg_.fastOps));
        cfg_.counterUnroll = static_cast<int>(
            params.getInt("counter_unroll", cfg_.counterUnroll));
        fatalIf(cfg_.counterUnroll < 1, "counter_unroll must be >= 1");
        binding_ = {};
        calibration_.reset();
    }

    bool
    compatible(const Machine &machine) const override
    {
        return machine.contexts() >= 2;
    }

    void
    calibrate(Machine &machine) override
    {
        ensure(machine);
        calibration_.set(
            calibrateThreshold(
                [&](bool slow) { return observeCount(machine, slow); },
                "smt_contention::calibrate"),
            machine);
    }

    TimingSample
    sample(Machine &machine, bool secret) override
    {
        ensure(machine);
        const Cycle t0 = machine.now();
        const double count = observeCount(machine, secret);
        TimingSample s;
        s.cycles = machine.now() - t0;
        s.ns = count; // the attacker's only reading is the count
        s.aux.emplace_back("count", count);
        s.bit = calibration_.isSlow(machine, count);
        return s;
    }

    std::unique_ptr<TimingSource>
    clone() const override
    {
        auto copy = std::make_unique<SmtContentionSource>();
        copy->cfg_ = cfg_;
        return copy;
    }

  private:
    struct Config
    {
        Opcode targetOp = Opcode::Mul;
        int slowOps = 48;
        int fastOps = 16;
        int counterUnroll = 8;
    };

    Config cfg_;
    MachineBinding binding_;
    std::unique_ptr<Program> measured_[2]; ///< [fast, slow]
    std::unique_ptr<Program> counter_;
    MachineCalibration calibration_;

    void
    ensure(Machine &machine)
    {
        fatalIf(machine.contexts() < 2,
                "smt_contention needs a machine with >= 2 contexts "
                "(use an smt profile)");
        if (binding_.boundTo(machine))
            return;
        for (int slow = 0; slow < 2; ++slow) {
            ProgramBuilder builder(slow ? "smt_measured_slow"
                                        : "smt_measured_fast");
            RegId r = builder.movImm(3);
            builder.opChain(cfg_.targetOp,
                            static_cast<std::size_t>(
                                slow ? cfg_.slowOps : cfg_.fastOps),
                            r, 1);
            builder.halt();
            measured_[slow] =
                std::make_unique<Program>(builder.take());
        }
        // The counter: an endless dependent chain on the same
        // functional-unit class, so its progress rate is set by the
        // shared port the measured chain also occupies.
        ProgramBuilder builder("smt_counter");
        RegId r = builder.movImm(1);
        const std::int32_t loop = builder.newLabel();
        builder.bind(loop);
        for (int i = 0; i < cfg_.counterUnroll; ++i)
            builder.chainOpImm(cfg_.targetOp, r, 1);
        builder.jump(loop);
        counter_ = std::make_unique<Program>(builder.take());
        calibration_.reset();
        binding_.bind(machine);
    }

    double
    observeCount(Machine &machine, bool slow)
    {
        const ContextId counter_ctx =
            static_cast<ContextId>(machine.contexts() - 1);
        const PerfCounters before =
            machine.core().contextCounters(counter_ctx);
        machine.coRun(0, *measured_[slow ? 1 : 0],
                      {{counter_ctx, counter_.get()}});
        const PerfCounters after =
            machine.core().contextCounters(counter_ctx);
        return static_cast<double>(
            (after - before).committedInstrs);
    }
};

// ---------------------------------------------------------------------
// l1_contention: L1 set-occupancy timer. A sibling context keeps one
// L1 set resident and counts its own (attributed) misses; the primary
// either evicts that set or leaves it alone, so the sibling's miss
// count reads out the secret. Needs contexts >= 2.
// ---------------------------------------------------------------------

class L1ContentionSource final : public TimingSource
{
  public:
    std::string name() const override { return "l1_contention"; }

    std::string
    describe() const override
    {
        return "L1 occupancy timer: a sibling context's attributed "
               "miss count over one co-run reads whether the primary "
               "touched the shared set";
    }

    void
    configure(const ParamSet &params) override
    {
        cfg_.set = static_cast<int>(params.getInt("set", cfg_.set));
        cfg_.evictLines = static_cast<int>(
            params.getInt("evict_lines", cfg_.evictLines));
        cfg_.repeats =
            static_cast<int>(params.getInt("repeats", cfg_.repeats));
        cfg_.windowOps = static_cast<int>(
            params.getInt("window_ops", cfg_.windowOps));
        fatalIf(cfg_.repeats < 1, "repeats must be >= 1");
        fatalIf(cfg_.evictLines < 0,
                "evict_lines must be >= 0 (0 = L1 associativity)");
        binding_ = {};
        calibration_.reset();
    }

    bool
    compatible(const Machine &machine) const override
    {
        const auto &l1 = machine.hierarchy().l1().config();
        return machine.contexts() >= 2 && cfg_.set < l1.numSets;
    }

    void
    calibrate(Machine &machine) override
    {
        ensure(machine);
        calibration_.set(
            calibrateThreshold(
                [&](bool slow) { return observeMisses(machine, slow); },
                "l1_contention::calibrate"),
            machine);
    }

    TimingSample
    sample(Machine &machine, bool secret) override
    {
        ensure(machine);
        const Cycle t0 = machine.now();
        const double misses = observeMisses(machine, secret);
        TimingSample s;
        s.cycles = machine.now() - t0;
        s.ns = misses; // the attacker's reading is the miss count
        s.aux.emplace_back("count", misses);
        s.bit = calibration_.isSlow(machine, misses);
        return s;
    }

    std::unique_ptr<TimingSource>
    clone() const override
    {
        auto copy = std::make_unique<L1ContentionSource>();
        copy->cfg_ = cfg_;
        return copy;
    }

  private:
    struct Config
    {
        int set = 5;
        int evictLines = 0; ///< 0 = the L1's associativity
        int repeats = 4;
        int windowOps = 200;
    };

    Config cfg_;
    MachineBinding binding_;
    std::unique_ptr<Program> primary_[2]; ///< [fast, slow]
    std::unique_ptr<Program> probe_;
    MachineCalibration calibration_;

    /** Line address of (set, tag) in the machine's L1 geometry. */
    static Addr
    lineFor(const Machine &machine, int set, int tag)
    {
        const auto &l1 = machine.hierarchy().l1().config();
        return (static_cast<Addr>(tag) *
                    static_cast<Addr>(l1.numSets) +
                static_cast<Addr>(set)) *
               static_cast<Addr>(l1.lineBytes);
    }

    void
    ensure(Machine &machine)
    {
        fatalIf(machine.contexts() < 2,
                "l1_contention needs a machine with >= 2 contexts "
                "(use an smt profile)");
        const auto &l1 = machine.hierarchy().l1().config();
        fatalIf(cfg_.set >= l1.numSets,
                "l1_contention: set out of range for this L1");
        if (binding_.boundTo(machine))
            return;
        const int evict =
            cfg_.evictLines > 0 ? cfg_.evictLines : l1.assoc;

        // The probe: endlessly re-touch the target set `assoc` deep;
        // all hits while the set is undisturbed, misses after the
        // primary evicts it.
        {
            ProgramBuilder builder("l1_probe");
            RegId r = builder.movImm(0);
            const std::int32_t loop = builder.newLabel();
            builder.bind(loop);
            for (int way = 0; way < l1.assoc; ++way)
                builder.loadOrderedInto(
                    r, lineFor(machine, cfg_.set, 100 + way));
            builder.jump(loop);
            probe_ = std::make_unique<Program>(builder.take());
        }

        // Primary variants: identical shape, but the slow one walks
        // conflicting tags in the probe's set while the fast one walks
        // a neighboring set. window_ops of ALU padding per repeat give
        // the probe time to observe the damage.
        for (int slow = 0; slow < 2; ++slow) {
            ProgramBuilder builder(slow ? "l1_evict_slow"
                                        : "l1_evict_fast");
            RegId r = builder.movImm(0);
            RegId pad = builder.movImm(1);
            const int set =
                slow ? cfg_.set : (cfg_.set + 1) % l1.numSets;
            for (int rep = 0; rep < cfg_.repeats; ++rep) {
                for (int i = 0; i < evict; ++i)
                    builder.loadOrderedInto(
                        r, lineFor(machine, set, 300 + i));
                builder.opChain(Opcode::Add,
                                static_cast<std::size_t>(cfg_.windowOps),
                                pad, 1);
            }
            builder.halt();
            primary_[slow] = std::make_unique<Program>(builder.take());
        }

        // First-touch warmup: stage every evictor line in the L2 so
        // the first observation's primary runs at the same speed as
        // every later one (otherwise its cold DRAM misses stretch the
        // window and the probe double-counts during calibration).
        for (int slow = 0; slow < 2; ++slow) {
            const int set =
                slow ? cfg_.set : (cfg_.set + 1) % l1.numSets;
            for (int i = 0; i < evict; ++i)
                machine.warm(lineFor(machine, set, 300 + i), 2);
        }
        calibration_.reset();
        binding_.bind(machine);
    }

    double
    observeMisses(Machine &machine, bool slow)
    {
        const ContextId probe_ctx =
            static_cast<ContextId>(machine.contexts() - 1);
        // Start each observation with the probe's set resident, so a
        // previous slow observation's evictions cannot bleed into this
        // reading (the real attacker's probe loop has warmed the set
        // long before the measured window opens).
        const int assoc = machine.hierarchy().l1().config().assoc;
        for (int way = 0; way < assoc; ++way)
            machine.warm(lineFor(machine, cfg_.set, 100 + way), 1);
        const ContextAccessStats before = machine.contextStats(probe_ctx);
        machine.coRun(0, *primary_[slow ? 1 : 0],
                      {{probe_ctx, probe_.get()}});
        const ContextAccessStats after = machine.contextStats(probe_ctx);
        return static_cast<double>((after - before).misses);
    }
};

// ---------------------------------------------------------------------
// Registration.
// ---------------------------------------------------------------------

void
registerBuiltinSources(GadgetRegistry &registry)
{
    auto add = [&](std::string name, std::string kind, std::string params,
                   std::string description,
                   std::function<std::unique_ptr<TimingSource>()> make) {
        GadgetInfo info;
        info.name = std::move(name);
        info.kind = std::move(kind);
        info.params = std::move(params);
        info.description = std::move(description);
        info.factory = std::move(make);
        registry.add(std::move(info));
    };

    add("pa_race", "encoder",
        "ref_op,ref_ops,op,slow_ops,fast_ops,train_rounds",
        "transient presence/absence racing gadget (section 5.1)",
        [] { return std::make_unique<PaRace>(); });
    add("reorder_race", "encoder",
        "ref_op,ref_ops,op,slow_ops,fast_ops,set,tag_base,"
        "readout_repeats",
        "non-transient reorder racing gadget (section 5.2)",
        [] { return std::make_unique<ReorderRace>(); });
    add("plru_pa_magnifier", "amplifier", "set,repeats,tag_base",
        "W=4 tree-PLRU magnifier, presence/absence input (section 6.1)",
        [] {
            return std::make_unique<PlruMagnifier>(
                PlruVariant::PresenceAbsence);
        });
    add("plru_reorder_magnifier", "amplifier", "set,repeats,tag_base",
        "W=4 tree-PLRU magnifier, reorder input (section 6.2)",
        [] {
            return std::make_unique<PlruMagnifier>(PlruVariant::Reorder);
        });
    add("plru_pin_magnifier", "amplifier", "set,repeats,tag_base,max_len",
        "search-derived tree-PLRU pin pattern, any 2^k ways (section 9)",
        [] { return std::make_unique<PlruPinMagnifier>(); });
    add("arbitrary_magnifier", "amplifier",
        "num_sets,seq_len,par_len,dist,repeats,prefetch,chain_pad,slack",
        "replacement-policy-agnostic chain-reaction magnifier "
        "(section 6.3)",
        [] { return std::make_unique<ArbitraryMagnifier>(); });
    add("arith_magnifier", "amplifier",
        "stages,div_chain,par_divs,add_buffer",
        "arithmetic-only divider-contention magnifier (section 6.4)",
        [] { return std::make_unique<ArithMagnifier>(); });
    add("repetition", "composite", "rounds,racing,envelope_ops",
        "flush+reload repetition harness (section 7.1, Fig. 7)",
        [] { return std::make_unique<Repetition>(); });
    add("hacky_timer", "composite",
        "ref_op,ref_ops,repeats,set,tag_base,resolution_ns,jitter_ns",
        "the paper's composed stealthy fine-grained timer (section 7)",
        [] { return std::make_unique<HackyTimer>(); });
    add("coarse_timer", "timer",
        "resolution_ns,jitter_ns,op,slow_ops,fast_ops",
        "the bare quantized browser clock (the threat-model baseline)",
        [] { return std::make_unique<CoarseTimerSource>(); });
    add("smt_contention", "timer",
        "op,slow_ops,fast_ops,counter_unroll",
        "SMT port-pressure timer: sibling-context counting progress as "
        "the clock (needs an smt profile)",
        [] { return std::make_unique<SmtContentionSource>(); });
    add("l1_contention", "timer",
        "set,evict_lines,repeats,window_ops",
        "L1 occupancy timer: sibling-context attributed misses as the "
        "clock (needs an smt profile)",
        [] { return std::make_unique<L1ContentionSource>(); });
    add("hacky_pipeline", "composite",
        "rounds,resolution_ns,jitter_ns,ref_op,ref_ops,op,slow_ops,"
        "fast_ops,train_rounds,set,repeats,tag_base",
        "Pipeline: pa_race -> plru_pa_magnifier, coarse-clock readout",
        [] {
            auto pipeline =
                std::make_unique<Pipeline>("hacky_pipeline");
            pipeline->then(std::make_unique<PaRace>())
                .then(std::make_unique<PlruMagnifier>(
                    PlruVariant::PresenceAbsence));
            // Span several coarse-clock ticks so a tick-boundary
            // phase cannot flip the decision (cf. HackyTimer's
            // autoRepeats sizing).
            ParamSet defaults;
            defaults.set("repeats", "2000");
            pipeline->configure(defaults);
            return pipeline;
        });
    add("reorder_pipeline", "composite",
        "rounds,resolution_ns,jitter_ns,ref_op,ref_ops,op,slow_ops,"
        "fast_ops,set,tag_base,readout_repeats,repeats",
        "Pipeline: reorder_race -> plru_reorder_magnifier, "
        "coarse-clock readout",
        [] {
            auto pipeline =
                std::make_unique<Pipeline>("reorder_pipeline");
            pipeline->then(std::make_unique<ReorderRace>())
                .then(std::make_unique<PlruMagnifier>(PlruVariant::Reorder));
            ParamSet defaults;
            defaults.set("repeats", "2000");
            pipeline->configure(defaults);
            return pipeline;
        });
}

} // namespace hr
