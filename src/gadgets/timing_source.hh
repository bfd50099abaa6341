/**
 * @file
 * TimingSource: the one interface every timing primitive speaks.
 *
 * The paper's contribution is a *family* of interchangeable gadgets —
 * racing gadgets that encode "was this slower than the reference?"
 * into microarchitectural state, magnifiers that stretch that state
 * into coarse-clock-visible durations, repetition harnesses, and the
 * composed hacky timers. Each paper gadget is exactly one class
 * derived from TimingSource, defined in its own file:
 *
 *   pa_race, reorder_race        PaRace, ReorderRace     racing.hh
 *   plru_pa_magnifier,           PlruMagnifier           plru_magnifier.hh
 *     plru_reorder_magnifier
 *   plru_pin_magnifier           PlruPinMagnifier        plru_pattern.hh
 *   arbitrary_magnifier          ArbitraryMagnifier      arbitrary_magnifier.hh
 *   arith_magnifier              ArithMagnifier          arith_magnifier.hh
 *   repetition                   Repetition              repetition.hh
 *   hacky_timer                  HackyTimer              hacky_timer.hh
 *
 * The sources with no gadget file (the coarse clock, the two SMT
 * contention timers, and the Pipeline composer) live in sources.cc.
 * A gadget class owns its one config struct and the ParamSet mapping
 * onto it, and binds lazily to whatever Machine it is handed: its
 * per-machine state (programs, line addresses) is rebuilt when the
 * machine changes. Its surface:
 *
 *   - configure(params): apply string-keyed construction overrides
 *     (what GadgetRegistry::make and `hr_bench sweep` feed in);
 *   - calibrate(machine): establish decision thresholds from the two
 *     known input states;
 *   - sample(machine, secret): one complete observation of a secret
 *     bit, returning a TimingSample. The polarity convention is
 *     uniform: secret == true is the state that reads *slow*, so a
 *     working source satisfies sample(m, true) slower than
 *     sample(m, false) and, once calibrated, bit == secret;
 *   - clone(): a fresh instance with the same configuration but no
 *     machine binding or calibration (so clones are independent);
 *   - describe(): one line of human documentation.
 *
 * Sources that can participate in composed attack pipelines
 * additionally implement the encoder/amplifier hooks (see Pipeline in
 * gadgets/sources.hh): an encoder writes the bit into cache state as
 * the presence/absence (or insertion order) of the amplifier's input
 * line(s); an amplifier primes its state, amplifies it into a long
 * duration, and can force either input state for calibration.
 */

#ifndef HR_GADGETS_TIMING_SOURCE_HH
#define HR_GADGETS_TIMING_SOURCE_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/machine.hh"
#include "timer/calibration.hh"
#include "util/params.hh"

namespace hr
{

/** One observation produced by a TimingSource. */
struct TimingSample
{
    Cycle cycles = 0;  ///< raw duration of the observation
    double ns = 0.0;   ///< duration as the source's clock reports it
    bool bit = false;  ///< decoded secret guess (valid after calibrate)

    /** Source-specific extras, e.g. per-stage cycle breakdowns. */
    std::vector<std::pair<std::string, double>> aux;

    double auxValue(const std::string &key, double def = 0.0) const;
};

/** A sequence of observations (one per transmitted bit). */
using Trace = std::vector<TimingSample>;

/**
 * Fast/slow polarity measurement summary (see measurePolarities):
 * per-trial means of the raw cycle cost and of the source's own
 * reading (ns for clock-based sources, counts for contention timers),
 * plus the decoded-bit accuracy over all 2 x trials samples.
 */
struct PolarityStats
{
    double fastCycles = 0;  ///< mean sample cycles, secret == false
    double slowCycles = 0;  ///< mean sample cycles, secret == true
    double fastReading = 0; ///< mean TimingSample::ns, secret == false
    double slowReading = 0; ///< mean TimingSample::ns, secret == true
    int correct = 0;        ///< samples whose bit matched the secret
    int trials = 0;         ///< trials per polarity

    double
    accuracy() const
    {
        return trials > 0
                   ? static_cast<double>(correct) / (2.0 * trials)
                   : 0.0;
    }
};

class TimingSource;

/**
 * The standard accuracy protocol shared by `hr_bench sweep` and the
 * accuracy scenarios: @p trials rounds of one fast (secret == false)
 * then one slow (secret == true) observation on @p machine, against a
 * source that has already been configured and calibrated.
 */
PolarityStats measurePolarities(TimingSource &source, Machine &machine,
                                int trials);

/** The unified gadget abstraction. */
class TimingSource
{
  public:
    virtual ~TimingSource() = default;

    /** Registry-stable identifier, e.g. "plru_pa_magnifier". */
    virtual std::string name() const = 0;

    /** One-line human description of what this source measures. */
    virtual std::string describe() const = 0;

    /** Apply string-keyed parameter overrides (before first use). */
    virtual void configure(const ParamSet &params) { (void)params; }

    /** True if the source can run on this machine's configuration. */
    virtual bool compatible(const Machine &machine) const
    {
        (void)machine;
        return true;
    }

    /** Establish decision thresholds. Default: nothing to calibrate. */
    virtual void calibrate(Machine &machine) { (void)machine; }

    /** One complete observation of @p secret (true = slow state). */
    virtual TimingSample sample(Machine &machine, bool secret) = 0;

    /**
     * Fresh instance with identical configuration and no shared
     * state: clones calibrate and bind to machines independently.
     */
    virtual std::unique_ptr<TimingSource> clone() const = 0;

    /** Observe a whole bit sequence (one sample per element). */
    Trace trace(Machine &machine, const std::vector<bool> &secrets);

    // ---- pipeline composition hooks -------------------------------
    //
    // Defaults refuse: a source advertises a role by overriding the
    // corresponding is*() predicate together with its hooks. One
    // pipeline observation runs, per round:
    //
    //   encoder.primeEncoder()   (training; may pollute the target)
    //   amplifier.prepare()      (prime the magnifier state)
    //   encoder.transmit()       (the attack run: write the bit)
    //   amplifier.amplify()      (stretch the state, read the clock)
    //
    // The bit travels as the presence/absence (or, for order-encoded
    // amplifiers, primary-before-secondary insertion order) of the
    // amplifier's input line(s): transmit(m, true) makes the primary
    // line present / first.

    /** True if this source can encode a bit into cache state. */
    virtual bool isEncoder() const { return false; }

    /** True if this source can amplify cache state into a duration. */
    virtual bool isAmplifier() const { return false; }

    /**
     * Encoder: target the amplifier's input line(s). @p primary is the
     * line whose presence/order carries the bit; @p secondary is the
     * counterpart line for order-encoded amplifiers (0 if unused).
     */
    virtual void bindTarget(Machine &machine, Addr primary,
                            Addr secondary);

    /**
     * Encoder: per-observation training for the @p present polarity
     * (runs before the amplifier primes, because training may pollute
     * the target line).
     */
    virtual void primeEncoder(Machine &machine, bool present);

    /**
     * Encoder: the attack run. @p present selects the target state to
     * write: primary line present (or inserted first).
     */
    virtual void transmit(Machine &machine, bool present);

    /** Amplifier: prime the magnifier state (before each transmit). */
    virtual void prepare(Machine &machine);

    /** Amplifier: the input line(s) an encoder should target. */
    virtual std::pair<Addr, Addr> inputLines(Machine &machine);

    /** Amplifier: does a *present* (or first-inserted) input read slow? */
    virtual bool presentMeansSlow() const { return true; }

    /** Amplifier: directly force the slow/fast input state. */
    virtual void forceInput(Machine &machine, bool slow);

    /** Amplifier: stretch the current state into a duration. */
    virtual Cycle amplify(Machine &machine);
};

// ---- plumbing shared by the sources ----------------------------------

/**
 * Which machine a lazily-bound source last built its state for. A
 * source checks boundTo() before use, rebuilds if it is false, and
 * bind()s only once the rebuild succeeded, so a failed build is
 * retried rather than left half-bound.
 */
struct MachineBinding
{
    Machine *machine = nullptr;
    std::uint64_t serial = 0;

    /** True iff the state was built for this very Machine. */
    bool
    boundTo(const Machine &m) const
    {
        return machine == &m && serial == m.serial();
    }

    void
    bind(Machine &m)
    {
        machine = &m;
        serial = m.serial();
    }
};

/**
 * A decision threshold and the machine it was calibrated against. The
 * threshold only means something on that machine; on any other one
 * isSlow() reads as uncalibrated (false), never as a stale decode.
 */
class MachineCalibration
{
  public:
    void
    set(const Calibration &calibration, const Machine &machine)
    {
        calibration_ = calibration;
        valid_ = true;
        serial_ = machine.serial();
    }

    void reset() { valid_ = false; }

    bool
    isSlow(const Machine &machine, double reading) const
    {
        return valid_ && serial_ == machine.serial() &&
               calibration_.isSlow(reading);
    }

  private:
    Calibration calibration_;
    bool valid_ = false;
    std::uint64_t serial_ = 0;
};

/**
 * Base of the magnifiers: calibrate() and sample() expressed over the
 * amplifier hooks (prepare, forceInput, amplify).
 */
class AmplifierSource : public TimingSource
{
  public:
    bool isAmplifier() const override { return true; }
    void calibrate(Machine &machine) override;
    TimingSample sample(Machine &machine, bool secret) override;

  protected:
    MachineCalibration calibration_;
};

/** True iff the machine has the paper's 4-way tree-PLRU L1. */
bool hasPlruL1(const Machine &machine);

/** Parse an opcode parameter ("add", "mul", "div", "lea", "sub"). */
Opcode opcodeParam(const ParamSet &params, const std::string &key,
                   Opcode def);

} // namespace hr

#endif // HR_GADGETS_TIMING_SOURCE_HH
