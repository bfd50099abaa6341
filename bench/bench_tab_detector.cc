/** Section 8 scenario: hardware-counter detectability of the gadgets. */

#include "detect/detector.hh"
#include "exp/registry.hh"
#include "gadgets/arith_magnifier.hh"
#include "gadgets/plru_magnifier.hh"
#include "util/table.hh"

namespace hr
{
namespace
{

Program
benignArithmetic()
{
    ProgramBuilder builder("benign_arith");
    RegId r = builder.movImm(3);
    for (int i = 0; i < 400; ++i) {
        builder.chainOpImm(Opcode::Add, r, 7);
        builder.chainOpImm(Opcode::Mul, r, 3);
    }
    builder.halt();
    return builder.take();
}

Program
benignStreaming(Machine &machine)
{
    // A streaming kernel: one cache line in, a dozen ops of work on
    // it — the usual compute-to-traffic ratio of benign array code.
    ProgramBuilder builder("benign_stream");
    RegId r = builder.movImm(0);
    RegId acc = builder.movImm(1);
    for (int i = 0; i < 400; ++i) {
        const Addr addr = 0x90'0000 + static_cast<Addr>(i) * 64;
        machine.warm(addr, 2);
        builder.loadOrderedInto(r, addr);
        for (int k = 0; k < 12; ++k)
            builder.chainOpImm(Opcode::Add, acc, 3);
    }
    builder.halt();
    return builder.take();
}

struct WorkloadReport
{
    std::string name;
    DetectorFeatures features;
    bool suspicious = false;
    bool is_gadget = false;
};

class TabDetector : public Scenario
{
  public:
    std::string name() const override { return "tab_detector"; }

    std::string
    title() const override
    {
        return "Section 8: counter-based detection of magnifier gadgets";
    }

    std::string
    paperClaim() const override
    {
        return "L1-miss storms flag the cache magnifiers; backend-bound "
               "divider chains with no mispredicts flag the arithmetic "
               "one — both only as weak classifiers";
    }

    ResultTable
    run(ScenarioContext &ctx) override
    {
        const std::vector<WorkloadReport> reports =
            ctx.parallelMap(4, [&](int i, Rng &) {
                Detector detector;
                WorkloadReport report;
                switch (i) {
                  case 0: {
                    report.name = "benign arithmetic";
                    Machine machine(ctx.machineConfig());
                    Program prog = benignArithmetic();
                    report.features = Detector::profile(machine, prog);
                    break;
                  }
                  case 1: {
                    report.name = "benign streaming";
                    Machine machine(ctx.machineConfig());
                    Program prog = benignStreaming(machine);
                    report.features = Detector::profile(machine, prog);
                    break;
                  }
                  case 2: {
                    // The PLRU magnifier is defined on a 4-way
                    // tree-PLRU L1, so this workload always runs on
                    // the plru configuration.
                    report.name = "PLRU magnifier";
                    report.is_gadget = true;
                    Machine machine(MachineConfig::plruProfile());
                    PlruMagnifier magnifier(PlruVariant::PresenceAbsence,
                                            {3, 800});
                    magnifier.prepare(machine);
                    magnifier.forceInput(machine, true); // A present
                    const std::vector<Addr> period =
                        magnifier.pattern(machine);
                    ProgramBuilder builder("plru_storm");
                    RegId r = builder.movImm(0);
                    for (int rep = 0; rep < 800; ++rep)
                        for (Addr addr : period)
                            builder.loadOrderedInto(r, addr);
                    builder.halt();
                    Program prog = builder.take();
                    report.features = Detector::profile(machine, prog);
                    break;
                  }
                  default: {
                    report.name = "arithmetic magnifier";
                    report.is_gadget = true;
                    Machine machine(ctx.machineConfig());
                    ArithMagnifierConfig config;
                    config.stages = 2000;
                    ArithMagnifier magnifier(config);
                    machine.warm(config.alignAddrA, 1);
                    machine.flushLine(config.inputAddr);
                    machine.flushLine(config.syncAddr);
                    Program prog = magnifier.program(machine);
                    report.features = Detector::profile(machine, prog);
                    break;
                  }
                }
                report.suspicious =
                    detector.classify(report.features).suspicious;
                return report;
            });

        Table table({"workload", "L1 miss/kinst", "backend-bound",
                     "div share", "verdict"});
        bool benign_flagged = false, gadgets_missed = false;
        for (const WorkloadReport &report : reports) {
            table.addRow(
                {report.name,
                 Table::num(report.features.l1MissesPerKiloInstr, 1),
                 Table::num(report.features.backendBoundRatio, 2),
                 Table::num(report.features.divIssueShare, 3),
                 report.suspicious ? "SUSPICIOUS" : "benign"});
            if (report.is_gadget)
                gadgets_missed |= !report.suspicious;
            else
                benign_flagged |= report.suspicious;
        }

        ResultTable result;
        result.addTable("", std::move(table));
        result.addCheck("no benign workload flagged", !benign_flagged);
        result.addCheck("no gadget missed", !gadgets_missed);
        return result;
    }
};

HR_REGISTER_SCENARIO(TabDetector);

} // namespace
} // namespace hr
