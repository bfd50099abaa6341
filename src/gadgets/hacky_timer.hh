/**
 * @file
 * HackyTimer (`hacky_timer`): the end-to-end stealthy fine-grained
 * timer.
 *
 * Composes the full pipeline of the paper: a transient P/A racing
 * program (section 5.1) converts "is the expression slower than the
 * reference path?" into presence/absence of one line; the PLRU
 * magnifier (section 6.1) stretches that into a duration readable with
 * a 5 microsecond browser clock. The only primitives used are loads,
 * arithmetic, a branch, and the coarse timer — exactly the threat
 * model's allowance.
 */

#ifndef HR_GADGETS_HACKY_TIMER_HH
#define HR_GADGETS_HACKY_TIMER_HH

#include <memory>

#include "gadgets/plru_magnifier.hh"
#include "gadgets/racing.hh"
#include "timer/coarse_timer.hh"

namespace hr
{

/** HackyTimer configuration. */
struct HackyTimerConfig
{
    TimerConfig timer;          ///< the coarse clock (ghz: the machine's)
    Opcode refOp = Opcode::Mul; ///< reference path operation
    int refOps = 12;            ///< reference path length (threshold)
    int magnifierRepeats = 0;   ///< 0 = auto from timer resolution
    int plruSet = 3;            ///< L1 set used by the magnifier
    int plruTagBase = 600;      ///< tag space for the magnifier lines
    Addr syncAddr = 0x100'0000;
    Addr trainAddr = 0x320'0000; ///< dummy timed address for training
    int trainRounds = 2;
};

/** Statistics a timer accumulates (for bit-rate style reporting). */
struct HackyTimerStats
{
    std::uint64_t queries = 0;
    Cycle cyclesSpent = 0;
};

/**
 * A one-shot comparator: "did this load take longer than the reference
 * path?" — which, with a suitable refOps, distinguishes an L1 hit from
 * an LLC hit or miss. Requires a machine with a 4-way tree-PLRU L1.
 *
 * As a TimingSource, sample() times a scratch line that is cold
 * (secret) or L1-resident, calibrating first if needed.
 */
class HackyTimer final : public TimingSource
{
  public:
    HackyTimer() = default;
    explicit HackyTimer(const HackyTimerConfig &config) : cfg_(config) {}

    const HackyTimerStats &stats() const { return stats_; }

    std::string name() const override { return "hacky_timer"; }
    std::string describe() const override;
    void configure(const ParamSet &params) override;
    bool compatible(const Machine &machine) const override;

    /**
     * Calibrate the coarse-time decision threshold by timing the
     * magnifier in both known states (attacker-feasible: they control
     * a scratch line's cache state).
     */
    void calibrate(Machine &machine) override;
    TimingSample sample(Machine &machine, bool secret) override;
    std::unique_ptr<TimingSource> clone() const override;

    /** Threshold (ns of magnifier time); negative until calibrated. */
    double thresholdNs() const { return thresholdNs_; }

    /**
     * Measure: is loading @p target slower than the reference path?
     * Trains, primes, races, magnifies, and reads the coarse clock.
     * The target line is warmed as a side effect (the measurement
     * loads it), as with any timed reload.
     */
    bool loadIsSlow(Machine &machine, Addr target);

    /**
     * Same measurement but for an arbitrary expression baked into its
     * own racing program (trains the new program's branch each call).
     */
    bool exprIsSlow(Machine &machine, const TargetExpr &expr);

  private:
    HackyTimerConfig cfg_;
    MachineBinding binding_;
    std::unique_ptr<CoarseTimer> clock_;
    PlruMagnifier magnifier_{PlruVariant::PresenceAbsence};
    std::unique_ptr<PaRaceProgram> race_;
    double thresholdNs_ = -1.0;
    HackyTimerStats stats_;

    void ensure(Machine &machine);
    PaRaceConfig raceConfig(Machine &machine);
    double magnifyAndTime(Machine &machine);
    bool decide(double observed_ns) const;
};

} // namespace hr

#endif // HR_GADGETS_HACKY_TIMER_HH
