/**
 * @file
 * Arithmetic-operation-only magnifier gadget (paper section 6.4).
 *
 * Uses no memory beyond two head loads: two paths of chained arithmetic
 * race through repeated stages. PathA's racing stage is a chain of MULs
 * sized to take exactly as long as PathB's chain of DIVs; PathA then
 * issues a burst of independent DIVs. Aligned, the burst lands in a gap
 * and nobody waits. Misaligned, the burst occupies the (not fully
 * pipelined) divider exactly when PathB's dependent DIVs need it,
 * pushing PathB later every stage — a cache-free chain reaction that no
 * cache defence can touch. ArithMagnifier is the `arith_magnifier`
 * TimingSource.
 */

#ifndef HR_GADGETS_ARITH_MAGNIFIER_HH
#define HR_GADGETS_ARITH_MAGNIFIER_HH

#include "gadgets/timing_source.hh"

namespace hr
{

/** Configuration of the arithmetic-only magnifier. */
struct ArithMagnifierConfig
{
    int stages = 1000; ///< racing stages (the gadget's repeat count)
    int divChain = 8;  ///< PathB: dependent DIVs per stage
    int parDivs = 4;   ///< PathA: independent DIV burst per stage
    /**
     * ADD buffer per stage (both paths). 0 = auto: sized so the aligned
     * case has no divider contention (parDivs * initiation interval
     * plus margin).
     */
    int addBuffer = 0;

    Addr syncAddr = 0x100'0000;
    Addr inputAddr = 0x300'0000;  ///< PathB head: present = aligned
    Addr alignAddrA = 0x310'0000; ///< PathA head: always present
};

/**
 * The magnifier. The MUL chain length (divChain * latDiv / latMul) is
 * derived from the bound machine's FU latencies. Its input line is
 * PathB's head: present = aligned = fast.
 */
class ArithMagnifier final : public AmplifierSource
{
  public:
    ArithMagnifier() = default;
    explicit ArithMagnifier(const ArithMagnifierConfig &config)
        : cfg_(config)
    {
    }

    std::string name() const override { return "arith_magnifier"; }
    std::string describe() const override;
    void configure(const ParamSet &params) override;
    std::unique_ptr<TimingSource> clone() const override;

    bool presentMeansSlow() const override { return false; }
    /** Warm PathA's head, chill the sync line (input-preserving). */
    void prepare(Machine &machine) override;
    std::pair<Addr, Addr> inputLines(Machine &machine) override;
    void forceInput(Machine &machine, bool slow) override;
    /** Re-chill the sync line, then run the racing stages. */
    Cycle amplify(Machine &machine) override;

    /** The racing-stage program for @p machine. */
    const Program &program(Machine &machine);

  private:
    ArithMagnifierConfig cfg_;
    MachineBinding binding_;
    Program program_;

    void ensure(Machine &machine);
};

} // namespace hr

#endif // HR_GADGETS_ARITH_MAGNIFIER_HH
