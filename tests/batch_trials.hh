/**
 * @file
 * Shared trial shapes for the BatchRunner tests.
 *
 * A load/branch/store workload in two variants, the observation a
 * batched trial may legally make (run results plus the traced harness
 * reads), and the two loops every test compares: the scalar
 * restore-per-trial pool loop and a BatchRunner over the same trials.
 */

#ifndef HR_TESTS_BATCH_TRIALS_HH
#define HR_TESTS_BATCH_TRIALS_HH

#include <functional>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "exp/batch.hh"
#include "exp/machine_pool.hh"
#include "isa/program.hh"
#include "sim/machine.hh"
#include "sim/profiles.hh"

namespace hr
{

inline std::vector<Addr>
workloadAddrs()
{
    std::vector<Addr> addrs;
    for (int i = 0; i < 16; ++i)
        addrs.push_back(0x40000 + static_cast<Addr>(i) * 0x1040);
    return addrs;
}

/** Load/branch/store mix; `variant` flips the branch direction. */
inline Program
makeWorkload(int variant)
{
    ProgramBuilder builder("batch_wl" + std::to_string(variant));
    RegId x = builder.movImm(variant);
    RegId acc = builder.movImm(1);
    for (Addr addr : workloadAddrs()) {
        RegId v = builder.loadAbsolute(addr);
        acc = builder.binop(Opcode::Add, acc, v);
    }
    const std::int32_t skip = builder.newLabel();
    builder.branch(x, skip);
    acc = builder.binopImm(Opcode::Xor, acc, 0x5a);
    builder.bind(skip);
    builder.storeOrdered(0x90000, acc, acc);
    builder.halt();
    return builder.take();
}

/**
 * Everything a batched trial may legally observe: the run result plus
 * traced harness reads. (Raw hierarchy() stats reads would bypass the
 * trace and are exactly what this surface replaces.)
 */
struct TrialObservation
{
    Cycle now = 0;
    Cycle runCycles = 0;
    std::uint64_t committed = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t ctxMisses = 0;
    std::vector<int> levels;
    std::int64_t storedWord = 0;

    bool
    operator==(const TrialObservation &o) const
    {
        return now == o.now && runCycles == o.runCycles &&
               committed == o.committed &&
               mispredicts == o.mispredicts &&
               l1Misses == o.l1Misses && ctxMisses == o.ctxMisses &&
               levels == o.levels && storedWord == o.storedWord;
    }
    bool operator!=(const TrialObservation &o) const
    {
        return !(*this == o);
    }
};

/** One trial: run the indexed workload variant, observe via the
 *  traced surface only. */
inline TrialObservation
trialBody(Machine &machine, int variant)
{
    Program w = makeWorkload(variant);
    const RunResult result = machine.run(w);
    TrialObservation obs;
    obs.runCycles = result.cycles();
    obs.committed = result.counters.committedInstrs;
    obs.mispredicts = result.counters.mispredicts;
    obs.now = machine.now();
    obs.l1Misses = machine.cacheMisses(1);
    obs.ctxMisses = machine.contextStats(0).misses;
    for (Addr addr : workloadAddrs())
        obs.levels.push_back(machine.probeLevel(addr));
    obs.storedWord = machine.peek(0x90000);
    return obs;
}

/**
 * The decorrelation-scenario trial shape: reseed the noise streams
 * with a per-trial mix, then run the trial body.
 */
inline TrialObservation
reseededTrial(Machine &machine, int index, int variant)
{
    machine.reseedNoise(0x9000 +
                        static_cast<std::uint64_t>(index) * 7);
    return trialBody(machine, variant);
}

/** One trial as the helpers below run it. */
inline TrialObservation
anyTrial(Machine &machine, int index, int variant, bool reseed)
{
    return reseed ? reseededTrial(machine, index, variant)
                  : trialBody(machine, variant);
}

/** The scalar reference: restore-per-trial over a pool lease. */
inline std::vector<TrialObservation>
scalarTrials(MachinePool &pool, int count,
             const std::function<int(int)> &variantOf,
             bool reseed = false)
{
    std::vector<TrialObservation> out;
    for (int i = 0; i < count; ++i) {
        auto lease = pool.lease();
        out.push_back(anyTrial(lease.machine(), i, variantOf(i), reseed));
    }
    return out;
}

inline std::vector<TrialObservation>
batchedTrials(MachinePool &pool, int count,
              const std::function<int(int)> &variantOf, int width,
              BatchRunner::Stats *stats_out = nullptr,
              bool reseed = false, bool group = true)
{
    BatchRunner::Options options;
    options.width = width;
    options.group = group;
    BatchRunner batch(pool, {}, options);
    std::vector<TrialObservation> out(
        static_cast<std::size_t>(count));
    batch.forEach(static_cast<std::size_t>(count),
                  [&](Machine &machine, std::size_t i) {
                      const int index = static_cast<int>(i);
                      out[i] = anyTrial(machine, index,
                                        variantOf(index), reseed);
                  });
    if (stats_out != nullptr)
        *stats_out = batch.stats();
    return out;
}

struct Combo
{
    std::string profile;
    PolicyKind policy;
};

inline std::vector<Combo>
allCombos()
{
    const PolicyKind kinds[] = {PolicyKind::TreePlru, PolicyKind::Lru,
                                PolicyKind::Random, PolicyKind::Nru,
                                PolicyKind::Srrip};
    std::vector<Combo> combos;
    for (const MachineProfile &profile : machineProfiles())
        for (PolicyKind kind : kinds)
            combos.push_back({profile.name, kind});
    return combos;
}

inline MachineConfig
configFor(const Combo &combo)
{
    MachineConfig config = machineConfigForProfile(combo.profile);
    config.memory.l1.policy = combo.policy;
    return config;
}

} // namespace hr

#endif // HR_TESTS_BATCH_TRIALS_HH
