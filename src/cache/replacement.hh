/**
 * @file
 * Per-set cache replacement policies.
 *
 * The paper's magnifier gadgets are defined purely in terms of
 * replacement-state transitions (tree-PLRU for sections 6.1/6.2, random
 * for 6.3), so policies are first-class, inspectable objects here.
 */

#ifndef HR_CACHE_REPLACEMENT_HH
#define HR_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace hr
{

/** Replacement policy selector. */
enum class PolicyKind : std::uint8_t
{
    TreePlru, ///< Tree-based pseudo-LRU (Fig. 3/4 semantics)
    Lru,      ///< True least-recently-used
    Random,   ///< Uniform random victim
    Nru,      ///< Not-recently-used (reference bit)
    Srrip,    ///< Static RRIP with 2-bit re-reference predictions
};

/** Parse/emit policy names ("plru", "lru", "random", "nru", "srrip"). */
PolicyKind policyKindFromName(const std::string &name);
std::string policyKindName(PolicyKind kind);

/**
 * Replacement state for one cache set.
 *
 * The cache calls touch() on every hit and on every fill (after
 * installing the line in the returned victim way), and victim() when it
 * needs to evict. Policies are deterministic given their Rng stream.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Associativity this instance was built for. */
    int assoc() const { return assoc_; }

    /** Record an access (hit or fill) to a way. */
    virtual void touch(int way) = 0;

    /** Choose the eviction candidate among valid ways. */
    virtual int victim() = 0;

    /** Forget any state attached to a way (invalidation). */
    virtual void invalidate(int way) = 0;

    /** Compact state rendering for walkthrough output and tests. */
    virtual std::string stateString() const = 0;

    /** Deep copy (used by search utilities exploring state spaces). */
    virtual std::unique_ptr<ReplacementPolicy> clone() const = 0;

    /**
     * Copy replacement state from another instance of the same concrete
     * type and associativity, without allocating (the snapshot-restore
     * fast path). panics on a type or associativity mismatch.
     */
    virtual void copyFrom(const ReplacementPolicy &other) = 0;

    /**
     * Re-seed internal randomness as if freshly built via
     * makePolicy(kind, assoc, seed).
     * @return true if the call changed any state (only Random does).
     */
    virtual bool reseed(std::uint64_t seed)
    {
        (void)seed;
        return false;
    }

    /**
     * Canonical behavioral signature of the current replacement
     * state: two observations of the *same instance* with equal
     * signatures are guaranteed to make identical future
     * touch/victim decisions. Representations that drift without
     * behavioral effect (LRU's monotone stamps) are canonicalized
     * (rank order), so a steady-state loop re-touching the same ways
     * in the same order reports a stable signature.
     */
    virtual std::uint64_t stateSig() const = 0;

    /** Random values consumed so far (only Random draws any). */
    virtual std::uint64_t rngDraws() const { return 0; }

  protected:
    explicit ReplacementPolicy(int assoc) : assoc_(assoc) {}

    int assoc_;
};

/**
 * Tree-based pseudo-LRU.
 *
 * Nodes form an implicit binary heap; bit 0 points left, 1 points right.
 * victim() follows the pointers from the root; touch(w) flips every node
 * on the root-to-w path to point away from w. This matches the arrow
 * semantics of the paper's Figure 3 exactly (verified in unit tests).
 */
class TreePlruPolicy : public ReplacementPolicy
{
  public:
    explicit TreePlruPolicy(int assoc);

    void touch(int way) override;
    int victim() override;
    void invalidate(int way) override;
    std::string stateString() const override;
    std::unique_ptr<ReplacementPolicy> clone() const override;
    void copyFrom(const ReplacementPolicy &other) override;
    std::uint64_t stateSig() const override;

    /** Direct bit access for tests and the pin-pattern search. */
    const std::vector<std::uint8_t> &bits() const { return bits_; }
    void setBits(const std::vector<std::uint8_t> &bits);
    /** Node i takes bit i of @p bits (no allocation). */
    void setPackedBits(std::uint64_t bits);

  private:
    std::vector<std::uint8_t> bits_; // assoc-1 nodes, heap order
};

/** True LRU via monotonically increasing access stamps. */
class LruPolicy : public ReplacementPolicy
{
  public:
    explicit LruPolicy(int assoc);

    void touch(int way) override;
    int victim() override;
    void invalidate(int way) override;
    std::string stateString() const override;
    std::unique_ptr<ReplacementPolicy> clone() const override;
    void copyFrom(const ReplacementPolicy &other) override;
    std::uint64_t stateSig() const override;

  private:
    std::vector<std::uint64_t> stamp_;
    std::uint64_t clock_ = 0;
};

/** Uniform random victim selection. */
class RandomPolicy : public ReplacementPolicy
{
  public:
    RandomPolicy(int assoc, Rng rng);

    void touch(int way) override;
    int victim() override;
    void invalidate(int way) override;
    std::string stateString() const override;
    std::unique_ptr<ReplacementPolicy> clone() const override;
    void copyFrom(const ReplacementPolicy &other) override;
    bool reseed(std::uint64_t seed) override;
    std::uint64_t stateSig() const override;
    std::uint64_t rngDraws() const override;

  private:
    Rng rng_;
};

/** Not-recently-used: one reference bit per way. */
class NruPolicy : public ReplacementPolicy
{
  public:
    explicit NruPolicy(int assoc);

    void touch(int way) override;
    int victim() override;
    void invalidate(int way) override;
    std::string stateString() const override;
    std::unique_ptr<ReplacementPolicy> clone() const override;
    void copyFrom(const ReplacementPolicy &other) override;
    std::uint64_t stateSig() const override;

  private:
    std::vector<std::uint8_t> ref_;
};

/** Static RRIP with 2-bit RRPVs (insert at 2, promote to 0 on hit). */
class SrripPolicy : public ReplacementPolicy
{
  public:
    explicit SrripPolicy(int assoc);

    void touch(int way) override;
    int victim() override;
    void invalidate(int way) override;
    std::string stateString() const override;
    std::unique_ptr<ReplacementPolicy> clone() const override;
    void copyFrom(const ReplacementPolicy &other) override;
    std::uint64_t stateSig() const override;

  private:
    static constexpr std::uint8_t kMax = 3;
    std::vector<std::uint8_t> rrpv_;
    std::vector<std::uint8_t> filled_;
};

/** Factory. The rng seed only matters for Random. */
std::unique_ptr<ReplacementPolicy>
makePolicy(PolicyKind kind, int assoc, std::uint64_t rng_seed = 1);

} // namespace hr

#endif // HR_CACHE_REPLACEMENT_HH
