#include "gadgets/timing_source.hh"

#include "util/log.hh"

namespace hr
{

double
TimingSample::auxValue(const std::string &key, double def) const
{
    for (const auto &[name, value] : aux)
        if (name == key)
            return value;
    return def;
}

Trace
TimingSource::trace(Machine &machine, const std::vector<bool> &secrets)
{
    Trace samples;
    samples.reserve(secrets.size());
    for (bool secret : secrets)
        samples.push_back(sample(machine, secret));
    return samples;
}

void
TimingSource::bindTarget(Machine &, Addr, Addr)
{
    fatal(name() + " is not an encoder (bindTarget unsupported)");
}

void
TimingSource::primeEncoder(Machine &, bool)
{
    fatal(name() + " is not an encoder (primeEncoder unsupported)");
}

void
TimingSource::transmit(Machine &, bool)
{
    fatal(name() + " is not an encoder (transmit unsupported)");
}

void
TimingSource::prepare(Machine &)
{
    fatal(name() + " is not an amplifier (prepare unsupported)");
}

std::pair<Addr, Addr>
TimingSource::inputLines(Machine &)
{
    fatal(name() + " is not an amplifier (inputLines unsupported)");
}

void
TimingSource::forceInput(Machine &, bool)
{
    fatal(name() + " is not an amplifier (forceInput unsupported)");
}

Cycle
TimingSource::amplify(Machine &)
{
    fatal(name() + " is not an amplifier (amplify unsupported)");
}

void
AmplifierSource::calibrate(Machine &machine)
{
    calibration_.set(calibrateThreshold(
                         [&](bool slow) {
                             prepare(machine);
                             forceInput(machine, slow);
                             return machine.toNs(amplify(machine));
                         },
                         name() + "::calibrate"),
                     machine);
}

TimingSample
AmplifierSource::sample(Machine &machine, bool secret)
{
    prepare(machine);
    forceInput(machine, secret);
    TimingSample s;
    s.cycles = amplify(machine);
    s.ns = machine.toNs(s.cycles);
    s.bit = calibration_.isSlow(machine, s.ns);
    return s;
}

bool
hasPlruL1(const Machine &machine)
{
    const auto &l1 = machine.hierarchy().l1().config();
    return l1.assoc == 4 && l1.policy == PolicyKind::TreePlru;
}

Opcode
opcodeParam(const ParamSet &params, const std::string &key, Opcode def)
{
    const std::string v = params.get(key, "");
    if (v.empty())
        return def;
    if (v == "add")
        return Opcode::Add;
    if (v == "sub")
        return Opcode::Sub;
    if (v == "mul")
        return Opcode::Mul;
    if (v == "div")
        return Opcode::Div;
    if (v == "lea")
        return Opcode::Lea;
    fatal("parameter " + key + ": unknown opcode '" + v +
          "' (use add, sub, mul, div, or lea)");
}

PolarityStats
measurePolarities(TimingSource &source, Machine &machine, int trials)
{
    PolarityStats stats;
    stats.trials = trials;
    double fast_cycles = 0, slow_cycles = 0;
    double fast_reading = 0, slow_reading = 0;
    for (int t = 0; t < trials; ++t) {
        for (bool secret : {false, true}) {
            const TimingSample s = source.sample(machine, secret);
            (secret ? slow_cycles : fast_cycles) +=
                static_cast<double>(s.cycles);
            (secret ? slow_reading : fast_reading) += s.ns;
            stats.correct += s.bit == secret ? 1 : 0;
        }
    }
    if (trials > 0) {
        stats.fastCycles = fast_cycles / trials;
        stats.slowCycles = slow_cycles / trials;
        stats.fastReading = fast_reading / trials;
        stats.slowReading = slow_reading / trials;
    }
    return stats;
}

} // namespace hr
