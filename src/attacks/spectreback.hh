/**
 * @file
 * SpectreBack (paper section 7.3): a backwards-in-time Spectre V1
 * variant.
 *
 * A bounds-check-bypassing transient load touches one of two cold
 * "accelerator" lines depending on a secret bit. Two pointer chases
 * *earlier in program order* each stall on one of those lines; the
 * secret therefore decides which chase finishes first, converting the
 * transient leak into the relative order of two final accesses (A vs
 * B) — the input format of the PLRU reorder magnifier (section 6.2),
 * readable with a coarse clock. The secret is transmitted to state
 * created *before* the misspeculation is squashed, which defeats
 * rollback-style Spectre defences.
 */

#ifndef HR_ATTACKS_SPECTREBACK_HH
#define HR_ATTACKS_SPECTREBACK_HH

#include <cstdint>
#include <vector>

#include "gadgets/plru_magnifier.hh"
#include "timer/coarse_timer.hh"

namespace hr
{

/** SpectreBack configuration. */
struct SpectreBackConfig
{
    TimerConfig timer;

    Addr arrayBase = 0x40'0000;  ///< in-bounds array (word-addressed)
    int arrayWords = 256;        ///< bounds; secrets live past the end
    Addr offset1 = 0x50'0000;    ///< accelerator line for chain 1 ("A")
    Addr offset2 = 0x50'4000;    ///< accelerator line for chain 2 ("B")
    Addr sizeAddr = 0x52'0000;   ///< bounds word (kept cold: the window)
    Addr chainHead1 = 0x54'0000; ///< chain 1 entry pointer
    Addr chainHead2 = 0x54'4000; ///< chain 2 entry pointer

    int plruSet = 9;          ///< L1 set for the reorder magnifier
    int plruTagBase = 900;
    int magnifierRepeats = 400;
    int trainRounds = 2;
};

/** Result of leaking a buffer. */
struct SpectreBackResult
{
    std::vector<std::uint8_t> leaked;
    double accuracy = 0.0;       ///< fraction of correct bits
    double kilobitsPerSecond = 0.0; ///< leak rate over simulated time
    std::uint64_t trials = 0;
};

/**
 * The SpectreBack attack. Requires a Machine with a 4-way tree-PLRU L1
 * (MachineConfig::plruProfile()).
 */
class SpectreBack
{
  public:
    SpectreBack(Machine &machine, const SpectreBackConfig &config);

    const SpectreBackConfig &config() const { return config_; }

    /** Calibrate the coarse-clock decision threshold. */
    void calibrate();

    /** Leak one bit of the word at out-of-bounds word index. */
    bool leakBit(std::int64_t oob_word_index, int bit);

    /** Leak a whole byte (8 leakBit calls). */
    std::uint8_t leakByte(std::int64_t oob_word_index, int bit_base = 0);

    /**
     * Leak `count` secret bytes placed immediately after the array and
     * compare against ground truth.
     */
    SpectreBackResult leakSecret(const std::vector<std::uint8_t> &secret);

  private:
    Machine &machine_;
    SpectreBackConfig config_;
    CoarseTimer coarse_;
    PlruMagnifier magnifier_;
    Program program_;
    RegId xReg_ = kNoReg;
    RegId shiftReg_ = kNoReg;
    double thresholdNs_ = -1.0;

    void build();
    void layoutMemory();
    void train();
    void primeTrial();
    double runTrialAndTime(std::int64_t x, std::int64_t shift);
};

} // namespace hr

#endif // HR_ATTACKS_SPECTREBACK_HH
