/**
 * @file
 * Racing gadgets (paper section 5): differential timing of a
 * measurement path against a constant-time baseline path.
 *
 * Two flavours, one TimingSource each:
 *  - PaRace (`pa_race`, 5.1): the baseline path is the body of a
 *    mispredicted branch whose condition is the measurement path's
 *    terminator. If the measurement path outlasts the baseline, a
 *    transient probe access escapes before the squash (presence);
 *    otherwise it does not (absence).
 *  - ReorderRace (`reorder_race`, 5.2): no speculation at all. Both
 *    paths end in a memory access; the completion order of the paths
 *    becomes the relative order of the two accesses, recorded in
 *    replacement state.
 */

#ifndef HR_GADGETS_RACING_HH
#define HR_GADGETS_RACING_HH

#include <memory>

#include "gadgets/path.hh"
#include "gadgets/plru_magnifier.hh"
#include "gadgets/timing_source.hh"

namespace hr
{

/** Configuration of the transient presence/absence racing gadget. */
struct PaRaceConfig
{
    Addr syncAddr = 0x100'0000;    ///< synchronizing line (kept cold)
    Addr probeAddr = 0x200'0000;   ///< transient probe target "A"
    Opcode refOp = Opcode::Add;    ///< baseline path operation
    int refOps = 20;               ///< baseline path length (threshold T')
    Opcode targetOp = Opcode::Add; ///< measured op chain's operation
    int slowOps = 60;              ///< chain length sampled as secret = 1
    int fastOps = 5;               ///< chain length sampled as secret = 0
    int trainRounds = 4;           ///< predictor training executions
};

/**
 * The section 5.1 race program for one expression,
 *     if (path_m(expr, x)) { path_b(); access[probe]; }
 * trained with x = 0 and attacked with x = 1. A value, not a gadget:
 * PaRace keeps one per polarity, and HackyTimer builds one for every
 * expression it is asked to time. The Program's identity keys the
 * branch predictor, so reusing one value keeps its training.
 */
class PaRaceProgram
{
  public:
    PaRaceProgram(const PaRaceConfig &config, const TargetExpr &expr);

    /**
     * Register carrying a runtime argument into the target expression
     * (always register 1 of the program; see TargetExpr::loadIndirect).
     * Passing the timed address as *data* lets training runs use a
     * harmless dummy address so they never touch the attack target.
     */
    static constexpr RegId kArgReg = 1;

    /** Train the branch predictor (x = 0; cleans probe pollution). */
    void train(Machine &machine, std::int64_t arg = 0);

    /**
     * One attack execution (x = 1). Leaves the presence/absence state
     * in the cache for a magnifier; does not read it.
     */
    RunResult runAttack(Machine &machine, std::int64_t arg = 0);

    /**
     * Attack, then directly inspect the cache (characterization mode —
     * a real attacker would use a magnifier + coarse timer instead).
     * @return true if the probe line was transiently fetched, i.e.
     *         Time(expr) > Time(baseline).
     */
    bool attackAndProbe(Machine &machine, std::int64_t arg = 0);

  private:
    PaRaceConfig config_;
    Program program_;
    RegId xReg_ = kNoReg;
};

/**
 * `pa_race`: the transient P/A racing gadget. sample() races a
 * `targetOp` chain of slowOps (secret) or fastOps ops against the
 * baseline and reads the probe directly; as a pipeline encoder it
 * races the same two chains against the amplifier's input line.
 */
class PaRace final : public TimingSource
{
  public:
    PaRace() = default;
    explicit PaRace(const PaRaceConfig &config) : cfg_(config) {}

    std::string name() const override { return "pa_race"; }
    std::string describe() const override;
    void configure(const ParamSet &params) override;
    TimingSample sample(Machine &machine, bool secret) override;
    std::unique_ptr<TimingSource> clone() const override;

    bool isEncoder() const override { return true; }
    void bindTarget(Machine &machine, Addr primary,
                    Addr secondary) override;
    void primeEncoder(Machine &machine, bool present) override;
    void transmit(Machine &machine, bool present) override;

  private:
    PaRaceConfig cfg_;
    MachineBinding binding_;
    Addr boundProbe_ = 0;
    std::unique_ptr<PaRaceProgram> slowRace_;
    std::unique_ptr<PaRaceProgram> fastRace_;

    PaRaceProgram &race(bool present);
};

/** Configuration of the non-transient reorder racing gadget. */
struct ReorderRaceConfig
{
    Addr syncAddr = 0x100'0000;    ///< synchronizing line (kept cold)
    Opcode refOp = Opcode::Add;    ///< baseline path operation
    int refOps = 60;               ///< baseline path length
    Opcode targetOp = Opcode::Add; ///< measured op chain's operation
    int slowOps = 150;             ///< chain that loses: B first
    int fastOps = 5;               ///< chain that wins: A first
    int set = 5;                   ///< standalone readout's L1 set
    int tagBase = 700;             ///< standalone readout's tags
    int readoutRepeats = 64;       ///< standalone readout's length
};

/**
 * `reorder_race`: the non-transient reorder racing gadget, with no
 * misspeculation anywhere:
 *
 *     path_m(expr) -> access[A];
 *     path_b()     -> access[B];
 *
 * Both paths hang off the same cache-missing load and race; the
 * relative order in which A's fill and B's touch reach the L1
 * replacement state encodes the race result. Standalone, it reads the
 * order out through a short reorder magnifier on its own set; as a
 * pipeline encoder, A and B are the amplifier's input lines.
 */
class ReorderRace final : public TimingSource
{
  public:
    ReorderRace();
    explicit ReorderRace(const ReorderRaceConfig &config);

    std::string name() const override { return "reorder_race"; }
    std::string describe() const override;
    void configure(const ParamSet &params) override;
    bool compatible(const Machine &machine) const override;
    void calibrate(Machine &machine) override;
    TimingSample sample(Machine &machine, bool secret) override;
    std::unique_ptr<TimingSource> clone() const override;

    bool isEncoder() const override { return true; }
    void bindTarget(Machine &machine, Addr primary,
                    Addr secondary) override;
    void primeEncoder(Machine &machine, bool present) override;
    /** Run the fast chain (@p present: A first) or the slow one. */
    void transmit(Machine &machine, bool present) override;

  private:
    ReorderRaceConfig cfg_;
    PlruMagnifier readout_;
    MachineBinding binding_;      ///< the standalone readout's lines
    MachineBinding bindingRaces_; ///< the race programs' lines
    Addr addrA_ = 0, addrB_ = 0;
    std::unique_ptr<Program> aFirstRace_;
    std::unique_ptr<Program> bFirstRace_;
    MachineCalibration calibration_;

    void ensure(Machine &machine);
    Program build(Addr a, Addr b, int target_ops) const;
};

} // namespace hr

#endif // HR_GADGETS_RACING_HH
