/**
 * @file
 * The sources with no gadget file of their own, the Pipeline composer,
 * and the registration of every built-in source with GadgetRegistry.
 *
 * Registered by name (each paper gadget is one class, in its own file;
 * see timing_source.hh for the class and file of each):
 *
 *   pa_race                transient presence/absence racing gadget
 *   reorder_race           non-transient reorder racing gadget
 *   plru_pa_magnifier      W=4 tree-PLRU magnifier, P/A input
 *   plru_reorder_magnifier W=4 tree-PLRU magnifier, reorder input
 *   plru_pin_magnifier     search-derived pin pattern, any 2^k ways
 *   arbitrary_magnifier    replacement-policy-agnostic magnifier
 *   arith_magnifier        arithmetic-only (divider) magnifier
 *   repetition             flush+reload repetition harness
 *   hacky_timer            the paper's composed stealthy timer
 *   coarse_timer           the bare 5 us browser clock (the baseline)
 *   smt_contention         SMT port-pressure progress timer (contexts >= 2)
 *   l1_contention          L1 set-occupancy miss-count timer (contexts >= 2)
 *   hacky_pipeline         Pipeline: pa_race -> plru_pa_magnifier
 *   reorder_pipeline       Pipeline: reorder_race -> plru_reorder_magnifier
 *
 * The last five are defined in sources.cc; only Pipeline is exposed
 * here. Compose your own stacks with Pipeline::then() — any encoder
 * source can feed any amplifier source whose input is a cache line.
 */

#ifndef HR_GADGETS_SOURCES_HH
#define HR_GADGETS_SOURCES_HH

#include <memory>
#include <string>
#include <vector>

#include "gadgets/timing_source.hh"
#include "timer/calibration.hh"
#include "timer/coarse_timer.hh"

namespace hr
{

class GadgetRegistry;

/**
 * A composed attack stack: zero or more encoder stages feeding one
 * final amplifier stage, read with the coarse browser clock — the way
 * the paper stacks racing gadgets, repetition, and magnifiers in
 * Figs. 7-11.
 *
 * Parameters (configure): `rounds` repetition count per observation
 * (accumulates the amplified duration across rounds, the repetition
 * composition of section 7.1); `resolution_ns` / `jitter_ns` for the
 * coarse clock. Remaining parameters are forwarded to every stage.
 */
class Pipeline : public TimingSource
{
  public:
    Pipeline() = default;
    explicit Pipeline(std::string name) : name_(std::move(name)) {}

    /** Append a stage; all but the last must be encoders. */
    Pipeline &then(std::unique_ptr<TimingSource> stage);

    std::string name() const override;
    std::string describe() const override;
    void configure(const ParamSet &params) override;
    bool compatible(const Machine &machine) const override;
    void calibrate(Machine &machine) override;
    TimingSample sample(Machine &machine, bool secret) override;
    std::unique_ptr<TimingSource> clone() const override;

  private:
    std::string name_;
    std::vector<std::unique_ptr<TimingSource>> stages_;
    int rounds_ = 1;
    TimerConfig timerConfig_;
    std::unique_ptr<CoarseTimer> clock_;
    MachineCalibration calibration_;

    TimingSource &amplifier() const;
    void ensureClock(Machine &machine);
    double observeNs(Machine &machine, bool present);
};

/**
 * Register the built-in sources above. Called exactly once from
 * GadgetRegistry::instance() — an explicit anchor, so a static-archive
 * link can never drop the registrations.
 */
void registerBuiltinSources(GadgetRegistry &registry);

} // namespace hr

#endif // HR_GADGETS_SOURCES_HH
