/**
 * @file
 * LLC eviction-set generation without SharedArrayBuffer (paper
 * section 7.4).
 *
 * The group-testing reduction of Vila et al. (as used by Purnal et
 * al.'s Prime+Scope profiling) builds a minimal last-level-cache
 * eviction set for a target address. The only clock it uses is a
 * HackyTimer — transient P/A race + PLRU magnifier + 5 microsecond
 * browser clock — demonstrating that Hacky Racers are a drop-in
 * replacement for the removed SharedArrayBuffer timers.
 */

#ifndef HR_ATTACKS_EVSET_HH
#define HR_ATTACKS_EVSET_HH

#include <optional>
#include <vector>

#include "gadgets/hacky_timer.hh"

namespace hr
{

/** Eviction-set generator configuration. */
struct EvSetConfig
{
    EvSetConfig()
    {
        // The reload classifier must separate an LLC hit (target still
        // resident) from a full miss (target evicted): a ~30-MUL
        // reference path sits between the two.
        timer.refOps = 30;
    }

    HackyTimerConfig timer;

    Addr poolBase = 0x4000'0000; ///< attacker buffer (page-aligned)
    int poolPages = 0;           ///< 0 = auto (2x assoc x classes)
    std::uint64_t seed = 42;     ///< pool shuffling
};

/** Outcome of one eviction-set construction. */
struct EvSetResult
{
    bool success = false;
    std::vector<Addr> set;           ///< the minimal eviction set
    std::uint64_t timerQueries = 0;  ///< HackyTimer invocations
    std::uint64_t traversedLoads = 0;
    Cycle cycles = 0;                ///< total simulated time
    bool groundTruthCongruent = false; ///< all lines share the L3 set
};

/** The generator. Requires a 4-way PLRU L1 machine (HackyTimer). */
class EvictionSetGenerator
{
  public:
    EvictionSetGenerator(Machine &machine, const EvSetConfig &config);

    const EvSetConfig &config() const { return config_; }

    /**
     * Build a minimal eviction set for @p target: candidates share the
     * target's page offset (all an attacker knows under virtual
     * addressing); reduction keeps only W congruent lines.
     */
    EvSetResult build(Addr target);

    /** The test primitive: does traversing S evict target from the LLC? */
    bool evicts(const std::vector<Addr> &candidate_set, Addr target);

  private:
    Machine &machine_;
    EvSetConfig config_;
    std::unique_ptr<HackyTimer> timer_;
    std::uint64_t traversedLoads_ = 0;

    std::vector<Addr> makePool(Addr target) const;
    void setupTimer(Addr target);
    void traverse(const std::vector<Addr> &lines);
};

} // namespace hr

#endif // HR_ATTACKS_EVSET_HH
