/** Section 7.2 scenario: minimal racing-gadget granularity. */

#include <algorithm>

#include "exp/machine_pool.hh"
#include "exp/registry.hh"
#include "gadgets/racing.hh"
#include "util/table.hh"

namespace hr
{
namespace
{

int
thresholdRefOps(MachinePool &pool, Opcode target_op, int target_ops,
                Opcode ref_op)
{
    int lo = 1, hi = 60, found = -1;
    while (lo <= hi) {
        const int mid = (lo + hi) / 2;
        auto lease = pool.lease();
        Machine &machine = lease.machine();
        PaRaceConfig config;
        config.refOp = ref_op;
        config.refOps = mid;
        PaRaceProgram race(config,
                           TargetExpr::opChain(target_op, target_ops));
        race.train(machine);
        if (!race.attackAndProbe(machine)) {
            found = mid;
            hi = mid - 1;
        } else {
            lo = mid + 1;
        }
    }
    return found;
}

/** Longest run of target sizes mapping to the same threshold. */
int
longestRun(const std::vector<int> &thresholds)
{
    int longest = 0, run = 0, last = -2;
    for (int threshold : thresholds) {
        if (threshold == last) {
            ++run;
        } else {
            run = 1;
            last = threshold;
        }
        longest = std::max(longest, run);
    }
    return longest;
}

class TabGranularitySummary : public Scenario
{
  public:
    std::string
    name() const override
    {
        return "tab_granularity_summary";
    }

    std::string
    title() const override
    {
        return "Section 7.2: racing-gadget granularity summary";
    }

    std::string
    paperClaim() const override
    {
        return "ADD reference: 1-3 ops for 1-cycle targets, 1-2 for MUL "
               "targets => minimal granularity 1-6 cycles (0.5-3 ns)";
    }

    std::string defaultProfile() const override
    {
        return "effective_window";
    }

    ResultTable
    run(ScenarioContext &ctx) override
    {
        MachinePool pool(ctx.machineConfig());

        struct Case
        {
            Opcode target;
            Opcode ref;
            int lat;
            int max_n;
        };
        std::vector<Case> cases = {
            {Opcode::Add, Opcode::Add, 1, 36},
            {Opcode::Lea, Opcode::Add, 1, 36},
            {Opcode::Mul, Opcode::Add, 3, 16},
            {Opcode::Add, Opcode::Mul, 1, 40},
            {Opcode::Div, Opcode::Mul, 12, 4},
        };
        if (ctx.quick())
            for (Case &c : cases)
                c.max_n = std::min(c.max_n, 4);

        // Flatten every (case, target size) pair into one parallel
        // sweep, then group thresholds back per case.
        std::vector<std::pair<int, int>> units; // (case index, n)
        for (std::size_t c = 0; c < cases.size(); ++c)
            for (int n = 1; n <= cases[c].max_n; ++n)
                units.emplace_back(static_cast<int>(c), n);
        const std::vector<int> thresholds = ctx.parallelMap(
            static_cast<int>(units.size()), [&](int i, Rng &) {
                const auto &[c, n] = units[static_cast<std::size_t>(i)];
                const Case &cs = cases[static_cast<std::size_t>(c)];
                return thresholdRefOps(pool, cs.target, n, cs.ref);
            });

        Table table({"target op", "ref op", "granularity (target ops)",
                     "cycles/target-op"});
        int worst_cycles = 0;
        for (std::size_t c = 0; c < cases.size(); ++c) {
            std::vector<int> per_case;
            for (std::size_t u = 0; u < units.size(); ++u)
                if (units[u].first == static_cast<int>(c))
                    per_case.push_back(thresholds[u]);
            const int g = longestRun(per_case);
            table.addRow({opcodeName(cases[c].target),
                          opcodeName(cases[c].ref), Table::integer(g),
                          Table::integer(g * cases[c].lat)});
            if (cases[c].ref == Opcode::Add)
                worst_cycles = std::max(worst_cycles, g * cases[c].lat);
        }

        ResultTable result;
        result.addTable("", std::move(table));
        result.addMetric("minimal granularity with ADD reference (cycles)",
                         worst_cycles, "1-6 cycles");
        result.addMetric("minimal granularity (ns at 2 GHz)",
                         worst_cycles / 2.0);
        if (!ctx.quick())
            result.addCheck(
                "granularity within the paper's 1-6 cycle band",
                worst_cycles >= 1 && worst_cycles <= 6);
        return result;
    }
};

HR_REGISTER_SCENARIO(TabGranularitySummary);

} // namespace
} // namespace hr
