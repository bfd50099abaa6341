/**
 * @file
 * Arbitrary-replacement-policy magnifier gadget (paper section 6.3).
 *
 * Two racing load paths traverse disjoint groups of L1 sets. PathA also
 * fetches eviction-set lines (PAR) into the sets PathB is about to
 * read. When the paths are aligned, PAR fills land after PathB has
 * already read its (cached) SEQ lines — no interference. When PathB
 * starts late (the magnifier's presence/absence input), PAR evictions
 * land first, PathB misses, falls further behind, and the delay
 * cascades. Self-prefetching (section 6.3.1) restores consumed sets a
 * fixed distance ahead so the chain reaction can run indefinitely over
 * a finite cache.
 *
 * Works for any per-set replacement policy — that is the point.
 * ArbitraryMagnifier is the `arbitrary_magnifier` TimingSource.
 */

#ifndef HR_GADGETS_ARBITRARY_MAGNIFIER_HH
#define HR_GADGETS_ARBITRARY_MAGNIFIER_HH

#include "gadgets/timing_source.hh"

namespace hr
{

/** Configuration of the arbitrary-replacement magnifier. */
struct ArbitraryMagnifierConfig
{
    int numSets = 32;  ///< N: L1 sets used per iteration (even)
    int seqLen = 6;    ///< SEQ lines per set (three quarters of assoc)
    int parLen = 5;    ///< PAR (evicting) lines per set
    int dist = 22;     ///< prefetch distance in set-steps (even)
    int repeats = 100; ///< full iterations over the N sets
    bool prefetch = true;
    /**
     * Chained 1-cycle ops added to both paths per set-step. These keep
     * the dependence chains — not the background PAR/prefetch miss
     * machinery — on the critical path, so a phase offset between the
     * paths persists instead of self-healing (an attacker calibrates
     * this against the target machine).
     */
    int chainPadOps = 6;
    /**
     * Extra 1-cycle ops chained into PathA only. Skews PathA slightly
     * slower so that, when aligned, PathB drifts toward the safe side
     * of the interference threshold.
     */
    int pathASlackOps = 3;

    Addr syncAddr = 0x100'0000;   ///< synchronizing cold line
    Addr inputAddr = 0x300'0000;  ///< PathB's head: present = aligned
    Addr alignAddrA = 0x310'0000; ///< PathA's head: always present
    int seqTagBase = 64;          ///< tag space for SEQ lines
    int parTagBase = 4096;        ///< tag space for PAR lines
};

/**
 * The magnifier. Requires numSets <= the L1 set count. Its input line
 * is PathB's head: present = aligned = fast, so an absent input (the
 * delayed path) reads slow.
 */
class ArbitraryMagnifier final : public AmplifierSource
{
  public:
    ArbitraryMagnifier() = default;
    explicit ArbitraryMagnifier(const ArbitraryMagnifierConfig &config)
        : cfg_(config)
    {
    }

    std::string name() const override { return "arbitrary_magnifier"; }
    std::string describe() const override;
    void configure(const ParamSet &params) override;
    bool compatible(const Machine &machine) const override;
    std::unique_ptr<TimingSource> clone() const override;

    bool presentMeansSlow() const override { return false; }
    /** Establish the initial cache state (PAR staged, SEQ resident). */
    void prepare(Machine &machine) override;
    std::pair<Addr, Addr> inputLines(Machine &machine) override;
    void forceInput(Machine &machine, bool slow) override;
    /** Re-chill the sync line, then run the traversal. */
    Cycle amplify(Machine &machine) override;

    /**
     * One magnified observation: primes the initial cache state, sets
     * the input line present or absent, runs the traversal.
     * @return traversal duration in cycles.
     */
    Cycle run(Machine &machine, bool input_present);

    /** Cycle delta between absent and present inputs. */
    Cycle measureDelta(Machine &machine);

  private:
    ArbitraryMagnifierConfig cfg_;
    MachineBinding binding_;
    Program program_;
    Addr lineBytes_ = 0; ///< L1 line size on the bound machine
    Addr stride_ = 0;    ///< bytes between two tags of one L1 set

    void ensure(Machine &machine);
    /** Address of SEQ line k of set-step position s. */
    Addr seqAddr(int set, int k) const;
    Addr parAddrOffset(int set, int j) const;
};

} // namespace hr

#endif // HR_GADGETS_ARBITRARY_MAGNIFIER_HH
