/** Section 8 scenario: which defences stop which gadget. */

#include "exp/registry.hh"
#include "gadgets/racing.hh"
#include "util/table.hh"

namespace hr
{
namespace
{

/** Does the transient P/A gadget distinguish slow/fast exprs? */
bool
transientPaWorks(MachineConfig mc, bool delay_on_miss)
{
    mc.core.delayOnMiss = delay_on_miss;
    Machine machine(mc);
    PaRaceConfig config;
    config.refOps = 20;
    PaRaceProgram slow(config, TargetExpr::opChain(Opcode::Add, 80));
    slow.train(machine);
    const bool slow_present = slow.attackAndProbe(machine);
    PaRaceProgram fast(config, TargetExpr::opChain(Opcode::Add, 5));
    fast.train(machine);
    const bool fast_present = fast.attackAndProbe(machine);
    return slow_present && !fast_present;
}

/** Does the reorder gadget + magnifier distinguish slow/fast exprs? */
bool
reorderWorks(bool delay_on_miss)
{
    MachineConfig mc = MachineConfig::plruProfile();
    mc.core.delayOnMiss = delay_on_miss;
    Machine machine(mc);
    ReorderRaceConfig config;
    config.set = 3;
    config.tagBase = 16;
    config.readoutRepeats = 400;
    config.refOps = 60;
    config.fastOps = 5;
    config.slowOps = 150;
    ReorderRace race(config);
    // The fast expression inserts A first, which the magnifier pins.
    const Cycle a_first = race.sample(machine, true).cycles;
    const Cycle b_first = race.sample(machine, false).cycles;
    return a_first > b_first + 10000;
}

class TabCountermeasures : public Scenario
{
  public:
    std::string name() const override { return "tab_countermeasures"; }

    std::string
    title() const override
    {
        return "Section 8: Spectre defences vs Hacky Racers";
    }

    std::string
    paperClaim() const override
    {
        return "delay-on-miss (and kin) guard transient execution only: "
               "the transient P/A gadget dies, the non-transient reorder "
               "gadget does not care";
    }

    ResultTable
    run(ScenarioContext &ctx) override
    {
        // Four independent (gadget, core) evaluations. The transient
        // P/A race runs on the selected profile; the reorder leg needs
        // the 4-way PLRU L1 its magnifier is defined on, so it always
        // uses the plru configuration.
        const std::vector<char> outcome =
            ctx.parallelMap(4, [&](int i, Rng &) -> char {
                const bool delayed = (i % 2) != 0;
                return (i < 2 ? transientPaWorks(ctx.machineConfig(),
                                                 delayed)
                              : reorderWorks(delayed))
                           ? 1
                           : 0;
            });
        const bool pa_base = outcome[0], pa_delay = outcome[1];
        const bool reorder_base = outcome[2], reorder_delay = outcome[3];

        Table table({"gadget", "baseline core", "delay-on-miss core"});
        auto cell = [](bool works) {
            return std::string(works ? "WORKS" : "defeated");
        };
        table.addRow({"transient P/A race (5.1)", cell(pa_base),
                      cell(pa_delay)});
        table.addRow({"reorder race + magnifier (5.2/6.2)",
                      cell(reorder_base), cell(reorder_delay)});

        ResultTable result;
        result.addTable("", std::move(table));
        result.addNote(
            "paper's conclusion: \"Spectre defences treat transient "
            "execution as the dangerous part ... they do not seek to "
            "hide channels caused via instruction-level parallelism.\"");
        result.addCheck("transient P/A works on the baseline core",
                        pa_base);
        result.addCheck("delay-on-miss defeats the transient P/A race",
                        !pa_delay);
        result.addCheck("reorder gadget works on the baseline core",
                        reorder_base);
        result.addCheck("reorder gadget survives delay-on-miss",
                        reorder_delay);
        return result;
    }
};

HR_REGISTER_SCENARIO(TabCountermeasures);

} // namespace
} // namespace hr
