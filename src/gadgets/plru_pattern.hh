/**
 * @file
 * Search-based generalization of the PLRU magnifier pattern.
 *
 * The paper gives the W = 4 pin pattern (B,C,E,C,D,C) by hand. This
 * module derives such patterns automatically for any power-of-two
 * associativity up to 16 by breadth-first search over (contents,
 * tree-bits) states: find a cyclic access sequence over the non-pinned
 * lines that (a) never evicts the pinned line, (b) returns the set to
 * its starting state, and (c) misses at least once per period. This
 * supports the paper's argument (section 9) that removing W = 4 PLRU
 * caches "will only cause the attacker to change strategy".
 * PlruPinMagnifier (`plru_pin_magnifier`, and the `rs2_plru_pin`
 * channel on top of it) is the magnifier built on such a pattern.
 *
 * The search is the source of truth for every pattern: there is no
 * table of known answers. It is a pure function of (assoc, max_len),
 * so findPinPattern() runs it once per pair per process and hands the
 * memoized result to every later caller.
 */

#ifndef HR_GADGETS_PLRU_PATTERN_HH
#define HR_GADGETS_PLRU_PATTERN_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "gadgets/timing_source.hh"

namespace hr
{

/**
 * A miniature one-set PLRU cache model used for searching and for the
 * Fig. 3/4 walkthrough benches. Lines are small integer ids; -1 means
 * an invalid way.
 */
class PlruSetModel
{
  public:
    explicit PlruSetModel(int assoc);

    int assoc() const { return assoc_; }

    /** Access a line: touch on hit, victim-fill on miss.
     * @return true if the access missed. */
    bool access(int line);

    /** True if the line is resident. */
    bool contains(int line) const;

    /** Way holding the line, or -1. */
    int wayOf(int line) const;

    /** Line id the tree currently points at (eviction candidate). */
    int evictionCandidate() const;

    /** Contents by way, e.g. "[A C D B]" with ids mapped to letters. */
    std::string render() const;

    const std::vector<int> &contents() const { return contents_; }
    const std::vector<std::uint8_t> &bits() const { return plru_.bits(); }

    bool operator==(const PlruSetModel &other) const;

    /** Widest set pack() can hold. */
    static constexpr int kMaxPackedAssoc = 16;

    /** Contents (line id + 1, 5 bits per way, so ids up to 30) and
     * tree bits in two words; unpack() restores a model of the same
     * associativity. */
    using Packed = std::array<std::uint64_t, 2>;
    Packed pack() const;
    void unpack(const Packed &state);

  private:
    int assoc_;
    std::vector<int> contents_;
    TreePlruPolicy plru_;
};

/** A discovered pin pattern. */
struct PinPattern
{
    /**
     * Accesses bringing the post-insertion state onto the cycle (may be
     * empty). The W = 4 pattern of Fig. 3 needs no lead-in.
     */
    std::vector<int> leadIn;
    /** Line ids to access, in order, per period (pinned line is id 0). */
    std::vector<int> accesses;
    /** Misses per period while the pinned line is resident. */
    int missesPerPeriod = 0;
};

/**
 * Find a cyclic pin pattern for a W-way tree-PLRU set. Each
 * (assoc, max_len) is searched once per process; concurrent first
 * callers wait for the one search in flight.
 *
 * Starting state: lines 1..W fill the set in way order, line W gets an
 * extra touch, then line 0 (the pinned line, "A") is inserted — the
 * generalization of Fig. 3(1) -> 3(2).
 *
 * @param assoc    power-of-two associativity (2 .. kMaxPackedAssoc)
 * @param max_len  maximum period length to search
 * @return a pattern, or nullopt if none exists within max_len.
 */
std::optional<PinPattern> findPinPattern(int assoc, int max_len = 16);

/**
 * Validate a pattern: starting from the canonical post-insertion state,
 * repeating it `periods` times must (a) keep the pinned line resident
 * the whole time with >= 1 miss per period, and (b) starting from the
 * counterpart state where the pinned line is absent, reach a state with
 * zero misses per period.
 */
bool validatePinPattern(int assoc, const PinPattern &pattern,
                        int periods = 50);

/** Configuration of the pin-pattern magnifier. */
struct PlruPinMagnifierConfig
{
    int set = 3;       ///< the L1 set the W + 2 lines map to
    int repeats = 500; ///< pattern periods per traversal
    int tagBase = 16;  ///< tag of the pinned line; the rest follow
    int maxLen = 16;   ///< longest period findPinPattern may try
};

/**
 * `plru_pin_magnifier`: the tree-PLRU magnifier generalized to any
 * power-of-two associativity >= 4 through a findPinPattern() pattern.
 * Its input is the pinned line (line 0): present reads slow.
 */
class PlruPinMagnifier final : public AmplifierSource
{
  public:
    PlruPinMagnifier() = default;
    explicit PlruPinMagnifier(const PlruPinMagnifierConfig &config)
        : cfg_(config)
    {
    }

    std::string name() const override { return "plru_pin_magnifier"; }
    std::string describe() const override;
    void configure(const ParamSet &params) override;
    bool compatible(const Machine &machine) const override;
    std::unique_ptr<TimingSource> clone() const override;

    void prepare(Machine &machine) override;
    std::pair<Addr, Addr> inputLines(Machine &machine) override;
    void forceInput(Machine &machine, bool slow) override;
    Cycle amplify(Machine &machine) override;

  private:
    PlruPinMagnifierConfig cfg_;
    MachineBinding binding_;
    std::vector<Addr> lines_;
    Program program_;

    void ensure(Machine &machine);
};

} // namespace hr

#endif // HR_GADGETS_PLRU_PATTERN_HH
