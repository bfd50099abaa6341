/**
 * @file
 * Tree-PLRU magnifier gadgets (paper sections 6.1 and 6.2):
 * `plru_pa_magnifier` and `plru_reorder_magnifier`, one class.
 *
 * Both exploit the same property of tree-PLRU (Fig. 3): if the line A
 * is resident (P/A variant) or was inserted before B (reorder variant),
 * a fixed cyclic access pattern misses every other access forever while
 * never evicting A; in the opposite state the pattern quickly reaches
 * all-hits. Repeating the pattern converts a one-shot microarchitectural
 * state difference into an arbitrarily large timing difference.
 */

#ifndef HR_GADGETS_PLRU_MAGNIFIER_HH
#define HR_GADGETS_PLRU_MAGNIFIER_HH

#include <vector>

#include "gadgets/timing_source.hh"

namespace hr
{

/** Which magnifier input format is being amplified. */
enum class PlruVariant
{
    PresenceAbsence, ///< section 6.1: pattern (B,C,E,C,D,C)
    Reorder,         ///< section 6.2: pattern (C,E,C,D,C,B)
};

/** Configuration: five distinct lines A..E mapping to one L1 set. */
struct PlruMagnifierConfig
{
    int set = 3;       ///< the L1 set the five lines map to
    int repeats = 500; ///< pattern periods per traversal
    int tagBase = 16;  ///< tag of line A; B..E take the next four
};

/** Result of one magnified observation. */
struct MagnifierResult
{
    Cycle cycles = 0;          ///< traversal duration
    std::uint64_t l1Misses = 0; ///< L1 misses during the traversal
};

/**
 * The PLRU magnifier. Requires a 4-way tree-PLRU L1 (the paper's W = 4
 * example, e.g. the `plru` profile); PlruPinMagnifier covers other
 * associativities. Its input line(s) are A (P/A), or A then B (reorder).
 */
class PlruMagnifier final : public AmplifierSource
{
  public:
    explicit PlruMagnifier(PlruVariant variant,
                           const PlruMagnifierConfig &config = {})
        : variant_(variant), cfg_(config)
    {
    }

    const PlruMagnifierConfig &config() const { return cfg_; }

    std::string name() const override;
    std::string describe() const override;
    void configure(const ParamSet &params) override;
    bool compatible(const Machine &machine) const override;
    std::unique_ptr<TimingSource> clone() const override;

    /**
     * Establish the Fig. 3(1) initial state: the set holds {B,C,D,E}
     * with the tree pointing at B; A is staged in L2 (so the racing
     * gadget's access to it resolves quickly and deterministically).
     * Uses instant warm() calls — see primeProgram() for the
     * attacker-realistic equivalent.
     */
    void prepare(Machine &machine) override;
    std::pair<Addr, Addr> inputLines(Machine &machine) override;
    void forceInput(Machine &machine, bool slow) override;
    Cycle amplify(Machine &machine) override;

    /** Lines A..E on @p machine. */
    const std::vector<Addr> &lines(Machine &machine);

    /** Run the access pattern `repeats` times and time it. */
    MagnifierResult traverse(Machine &machine);

    /** The per-period access pattern (addresses). */
    std::vector<Addr> pattern(Machine &machine);

    /** Load-based priming program (what real attacker code runs). */
    Program primeProgram(Machine &machine);

    /**
     * Pick `count` distinct line addresses mapping to L1 set
     * `set_index`, with tags starting at `tag_base`.
     */
    static std::vector<Addr> sameSetLines(const Machine &machine,
                                          int set_index, int count,
                                          int tag_base = 16);

  private:
    PlruVariant variant_;
    PlruMagnifierConfig cfg_;
    MachineBinding binding_;
    std::vector<Addr> lines_; ///< A, B, C, D, E
    Program traverse_;

    void ensure(Machine &machine);
    std::vector<Addr> period() const;
};

} // namespace hr

#endif // HR_GADGETS_PLRU_MAGNIFIER_HH
