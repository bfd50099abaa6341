/**
 * @file
 * The repetition gadget (paper sections 2.3 and 7.1).
 *
 * A repetition gadget runs a staged attack many times, accumulating the
 * per-stage timing so the total becomes visible to a coarse timer. The
 * paper shows this can fail: a stage whose timing anti-correlates with
 * the signal (e.g. the victim-load stage of flush+reload) cancels the
 * accumulated difference. Wrapping that stage in a racing gadget whose
 * baseline outlasts it makes the stage constant-time and restores the
 * signal (Fig. 7).
 */

#ifndef HR_GADGETS_REPETITION_HH
#define HR_GADGETS_REPETITION_HH

#include <functional>
#include <string>
#include <vector>

#include "gadgets/path.hh"
#include "gadgets/timing_source.hh"

namespace hr
{

/** Per-stage accumulated cycles over all rounds. */
struct StageBreakdown
{
    std::vector<std::string> names;
    std::vector<Cycle> cycles;

    Cycle total() const;
    /** Stage share of the total, in percent. */
    double percent(std::size_t stage) const;
};

/** One stage of a repetition round. */
struct RepetitionStage
{
    std::string name;
    Program program;
    std::function<void(Machine &)> setup; ///< run before each round
};

/**
 * Run @p stages round-robin for @p rounds rounds (each stage's setup
 * hook, if any, then its program), accumulating per-stage cycles.
 */
StageBreakdown runStages(Machine &machine,
                         std::vector<RepetitionStage> &stages, int rounds);

/**
 * Wrap a payload expression in a constant-time racing envelope: the
 * payload races a baseline path longer than the payload's worst case,
 * so the envelope's duration is the baseline's regardless of the
 * payload's cache behaviour (section 7.1's fix).
 */
Program makeConstantTimeStage(const TargetExpr &payload, Opcode ref_op,
                              int ref_ops, Addr sync_addr,
                              const std::string &name = "const_stage");

/** Configuration of the flush+reload round (section 7.1, Fig. 7). */
struct RepetitionConfig
{
    int rounds = 200;            ///< rounds accumulated per observation
    bool racing = true;          ///< hide the load stage in an envelope
    Addr probeAddr = 0x600'0000; ///< the shared line being probed
    Addr otherAddr = 0x608'0000; ///< victim's alternative (kept warm)
    Addr syncAddr = 0x100'0000;  ///< for the racing envelope
    int envelopeOps = 260;       ///< baseline > worst-case load time
};

/**
 * `repetition`: the evict / victim-load / reload repetition gadget of
 * Fig. 7. secret == false: the victim loads the probe line itself;
 * secret == true: it loads a different line, so every reload misses.
 * A sample's cycles are the total over all rounds and its aux carries
 * the per-stage breakdown ("evict", "load", "reload"). With racing off
 * the load stage's anti-correlated timing cancels the signal (the
 * paper's failure case); with racing on it is constant-time.
 */
class Repetition final : public TimingSource
{
  public:
    Repetition() = default;
    explicit Repetition(const RepetitionConfig &config) : cfg_(config) {}

    std::string name() const override { return "repetition"; }
    std::string describe() const override;
    void configure(const ParamSet &params) override;
    void calibrate(Machine &machine) override;
    TimingSample sample(Machine &machine, bool secret) override;
    std::unique_ptr<TimingSource> clone() const override;

  private:
    RepetitionConfig cfg_;
    MachineCalibration calibration_;

    TimingSample observe(Machine &machine, bool secret);
    std::vector<RepetitionStage> stages(bool same_addr) const;
};

} // namespace hr

#endif // HR_GADGETS_REPETITION_HH
