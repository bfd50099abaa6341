/** Design-ablation scenario: magnifier strength across policies. */

#include "exp/registry.hh"
#include "gadgets/arbitrary_magnifier.hh"
#include "util/table.hh"

namespace hr
{
namespace
{

class TabPolicyAblation : public Scenario
{
  public:
    std::string name() const override { return "tab_policy_ablation"; }

    std::string
    title() const override
    {
        return "Ablation: arbitrary-replacement magnifier vs L1 policy";
    }

    std::string
    paperClaim() const override
    {
        return "the chain reaction is policy-independent (section 6.3); "
               "random replacement is noise-bounded in this model "
               "because restoring prefetch fills evict already-restored "
               "lines";
    }

    std::string defaultProfile() const override { return "random_l1"; }

    ResultTable
    run(ScenarioContext &ctx) override
    {
        const std::vector<PolicyKind> policies = {
            PolicyKind::Lru, PolicyKind::Nru, PolicyKind::Srrip,
            PolicyKind::Random};
        const std::vector<int> repeat_values =
            ctx.quick() ? std::vector<int>{10, 40}
                        : std::vector<int>{40, 160};

        // One magnifier run per (policy, repeats) pair, all independent.
        std::vector<std::pair<std::size_t, int>> units;
        for (std::size_t p = 0; p < policies.size(); ++p)
            for (int repeats : repeat_values)
                units.emplace_back(p, repeats);
        const std::vector<double> deltas = ctx.parallelMap(
            static_cast<int>(units.size()), [&](int i, Rng &) {
                const auto &[p, repeats] =
                    units[static_cast<std::size_t>(i)];
                MachineConfig mc = ctx.machineConfig();
                mc.memory.l1.policy = policies[p];
                Machine machine(mc);
                ArbitraryMagnifierConfig config;
                config.repeats = repeats;
                ArbitraryMagnifier magnifier(config);
                return machine.toUs(magnifier.measureDelta(machine));
            });

        Table table({"policy",
                     "delta @" + std::to_string(repeat_values[0]) +
                         " reps (us)",
                     "delta @" + std::to_string(repeat_values[1]) +
                         " reps (us)",
                     "growth"});
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const double d_low = deltas[p * 2];
            const double d_high = deltas[p * 2 + 1];
            table.addRow({policyKindName(policies[p]),
                          Table::num(d_low, 2), Table::num(d_high, 2),
                          d_high > 2.5 * d_low ? "sustained" : "bounded"});
        }

        ResultTable result;
        result.addTable("", std::move(table));
        return result;
    }
};

HR_REGISTER_SCENARIO(TabPolicyAblation);

} // namespace
} // namespace hr
