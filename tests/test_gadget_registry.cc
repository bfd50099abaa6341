/**
 * @file
 * Unified TimingSource API tests: registry round-trip over every
 * registered gadget (construct by name on a compatible profile,
 * calibrate, transmit one bit each way), clone() independence, the
 * pipeline determinism contract (same configuration and seed produce
 * identical TimingSamples), sweep output that is byte-identical at
 * any --jobs value, and golden digests of gadget samples and of one
 * sweep.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include "digest.hh"
#include "exp/sweep.hh"
#include "gadgets/gadget_registry.hh"
#include "gadgets/sources.hh"
#include "sim/profiles.hh"

namespace hr
{
namespace
{

/** Small parameter overrides so the round-trip stays test-sized. */
ParamSet
quickParams(const std::string &gadget)
{
    ParamSet params;
    if (gadget == "repetition")
        params.set("rounds", "50");
    if (gadget == "arith_magnifier")
        params.set("stages", "1000");
    if (gadget == "arbitrary_magnifier")
        params.set("repeats", "40");
    if (gadget == "hacky_pipeline" || gadget == "reorder_pipeline")
        params.set("repeats", "2000");
    return params;
}

/** First registered machine profile the source is compatible with. */
std::unique_ptr<Machine>
compatibleMachine(TimingSource &source)
{
    for (const MachineProfile &profile : machineProfiles()) {
        auto machine = std::make_unique<Machine>(profile.make());
        if (source.compatible(*machine))
            return machine;
    }
    return nullptr;
}

TEST(GadgetRegistry, ListsTheWholeFamily)
{
    std::set<std::string> names;
    for (const GadgetInfo *info : GadgetRegistry::instance().all()) {
        EXPECT_FALSE(info->name.empty());
        EXPECT_FALSE(info->description.empty());
        EXPECT_TRUE(info->factory != nullptr);
        names.insert(info->name);
    }
    // All eight gadget classes plus the coarse timer, by stable name.
    for (const char *required :
         {"pa_race", "reorder_race", "plru_pa_magnifier",
          "plru_reorder_magnifier", "plru_pin_magnifier",
          "arbitrary_magnifier", "arith_magnifier", "repetition",
          "hacky_timer", "coarse_timer", "hacky_pipeline",
          "reorder_pipeline"}) {
        EXPECT_TRUE(names.count(required)) << required;
    }
}

TEST(GadgetRegistry, ResolvesPrefixesAndRejectsUnknowns)
{
    EXPECT_EQ(GadgetRegistry::instance().resolve("arith").name,
              "arith_magnifier");
    EXPECT_EQ(GadgetRegistry::instance().resolve("pa_race").name,
              "pa_race");
    EXPECT_THROW(GadgetRegistry::instance().resolve("plru"),
                 std::runtime_error); // ambiguous
    EXPECT_THROW(GadgetRegistry::instance().resolve("nonsense"),
                 std::runtime_error);
}

TEST(GadgetRegistry, RoundTripEveryGadget)
{
    // Every registered source must construct by name, find at least
    // one compatible stock profile, calibrate, and transmit one bit
    // each way with the uniform polarity convention (secret == true
    // reads slow). The bare coarse clock is exempt from the decoding
    // check: failing to decode is its documented role.
    for (const GadgetInfo *info : GadgetRegistry::instance().all()) {
        SCOPED_TRACE(info->name);
        auto source = GadgetRegistry::instance().make(
            info->name, quickParams(info->name));
        ASSERT_TRUE(source != nullptr);
        EXPECT_EQ(source->name(), info->name);
        EXPECT_FALSE(source->describe().empty());

        auto machine = compatibleMachine(*source);
        ASSERT_TRUE(machine != nullptr)
            << "no stock profile runs " << info->name;

        source->calibrate(*machine);
        const TimingSample fast = source->sample(*machine, false);
        const TimingSample slow = source->sample(*machine, true);
        EXPECT_GT(slow.cycles, fast.cycles);
        if (info->name != "coarse_timer") {
            EXPECT_FALSE(fast.bit);
            EXPECT_TRUE(slow.bit);
        }
    }
}

/**
 * Golden samples: FNV-1a over the TimingSample fields (cycles, ns,
 * bit, aux) of calibrate + four alternating fast/slow samples of each
 * registered gadget, with quickParams, on its first compatible stock
 * profile. A change that moves an entry changes what the gadget
 * measures; it must update the entry and say why.
 */
const std::map<std::string, std::uint64_t> kSampleDigests = {
    {"arbitrary_magnifier", 0x5498f70eea52d565},
    {"arith_magnifier", 0x85ec530fe473e34d},
    {"coarse_timer", 0x8ccad5722ae9a999},
    {"hacky_pipeline", 0xc64713e97dd279a1},
    {"hacky_timer", 0xdbadf5e8736a309d},
    {"l1_contention", 0x0aff907a9611ef99},
    {"pa_race", 0x8d4311661841b9f8},
    {"plru_pa_magnifier", 0xfd14729a7a0289a5},
    {"plru_pin_magnifier", 0x2166c17835f01745},
    {"plru_reorder_magnifier", 0x3a5b1311490d444d},
    {"reorder_pipeline", 0x647b1c2931321738},
    {"reorder_race", 0xaab3159c42797211},
    {"repetition", 0xb3c836d37e738d05},
    {"smt_contention", 0x869ea6dc1b94c09d},
};

TEST(GadgetRegistry, GoldenSampleDigests)
{
    for (const GadgetInfo *info : GadgetRegistry::instance().all()) {
        SCOPED_TRACE(info->name);
        auto source = GadgetRegistry::instance().make(
            info->name, quickParams(info->name));
        auto machine = compatibleMachine(*source);
        ASSERT_TRUE(machine != nullptr);
        source->calibrate(*machine);
        Digest digest;
        for (bool secret : {false, true, false, true}) {
            const TimingSample s = source->sample(*machine, secret);
            digest.u64(s.cycles);
            digest.f64(s.ns);
            digest.u64(s.bit ? 1 : 0);
            for (const auto &[key, value] : s.aux) {
                digest.text(key);
                digest.f64(value);
            }
        }
        const auto golden = kSampleDigests.find(info->name);
        if (golden == kSampleDigests.end()) {
            ADD_FAILURE() << "no golden digest; add {\"" << info->name
                          << "\", " << hexDigest(digest.value()) << "}";
        } else {
            EXPECT_EQ(hexDigest(digest.value()),
                      hexDigest(golden->second));
        }
    }
    EXPECT_EQ(kSampleDigests.size(),
              GadgetRegistry::instance().all().size())
        << "golden table names a gadget that no longer exists";
}

TEST(GadgetRegistry, MakeAppliesParameters)
{
    Machine machine(machineConfigForProfile("plru"));
    ParamSet small, large;
    small.set("repeats", "100");
    large.set("repeats", "1000");
    auto short_mag =
        GadgetRegistry::instance().make("plru_pa_magnifier", small);
    auto long_mag =
        GadgetRegistry::instance().make("plru_pa_magnifier", large);
    const Cycle short_cycles =
        short_mag->sample(machine, true).cycles;
    const Cycle long_cycles = long_mag->sample(machine, true).cycles;
    EXPECT_GT(long_cycles, 5 * short_cycles);
}

TEST(TimingSource, CloneIsIndependent)
{
    // A clone carries the configuration but no machine binding or
    // calibration: used on its own machine it reproduces exactly what
    // a fresh instance produces, and using it does not disturb the
    // original.
    ParamSet params;
    params.set("repeats", "300");
    auto original =
        GadgetRegistry::instance().make("plru_pa_magnifier", params);

    Machine machine_a(machineConfigForProfile("plru"));
    original->calibrate(machine_a);
    const TimingSample before = original->sample(machine_a, true);

    auto clone = original->clone();
    EXPECT_EQ(clone->name(), original->name());
    Machine machine_b(machineConfigForProfile("plru"));
    clone->calibrate(machine_b);
    const TimingSample clone_sample = clone->sample(machine_b, true);

    // Same configuration, fresh identical machine: identical result.
    Machine machine_c(machineConfigForProfile("plru"));
    auto fresh =
        GadgetRegistry::instance().make("plru_pa_magnifier", params);
    fresh->calibrate(machine_c);
    const TimingSample fresh_sample = fresh->sample(machine_c, true);
    EXPECT_EQ(clone_sample.cycles, fresh_sample.cycles);
    EXPECT_EQ(clone_sample.bit, fresh_sample.bit);

    // The original still works and still reads the same machine.
    const TimingSample after = original->sample(machine_a, true);
    EXPECT_EQ(before.cycles, after.cycles);

    // Clones of every registered gadget construct and self-describe.
    for (const GadgetInfo *info : GadgetRegistry::instance().all()) {
        auto source = GadgetRegistry::instance().make(info->name);
        auto copy = source->clone();
        EXPECT_EQ(copy->name(), source->name()) << info->name;
    }
}

TEST(Pipeline, DeterministicTraces)
{
    // Same stages, same parameters, same machine configuration: the
    // full trace (quantized ns, raw cycles, decoded bits) must be
    // identical run over run.
    const std::vector<bool> secrets = {false, true, true, false, true};
    auto run_trace = [&] {
        Machine machine(machineConfigForProfile("plru"));
        auto pipeline =
            GadgetRegistry::instance().make("hacky_pipeline", {});
        pipeline->calibrate(machine);
        return pipeline->trace(machine, secrets);
    };
    const Trace first = run_trace();
    const Trace second = run_trace();
    ASSERT_EQ(first.size(), secrets.size());
    ASSERT_EQ(second.size(), secrets.size());
    for (std::size_t i = 0; i < secrets.size(); ++i) {
        EXPECT_EQ(first[i].cycles, second[i].cycles) << i;
        EXPECT_DOUBLE_EQ(first[i].ns, second[i].ns) << i;
        EXPECT_EQ(first[i].bit, second[i].bit) << i;
        EXPECT_EQ(first[i].bit, secrets[i]) << i;
    }
}

TEST(Pipeline, HandBuiltCompositionMatchesRegistry)
{
    // Pipeline::then() composes the same stack the registry ships.
    Machine machine(machineConfigForProfile("plru"));
    Pipeline custom("custom");
    custom.then(GadgetRegistry::instance().make("pa_race"))
        .then(GadgetRegistry::instance().make("plru_pa_magnifier"));
    ParamSet params;
    params.set("repeats", "2000");
    custom.configure(params);
    EXPECT_TRUE(custom.compatible(machine));
    custom.calibrate(machine);
    EXPECT_FALSE(custom.sample(machine, false).bit);
    EXPECT_TRUE(custom.sample(machine, true).bit);
}

TEST(Sweep, ByteIdenticalAcrossJobs)
{
    auto render = [](int jobs) {
        SweepOptions options;
        options.gadget = "arith_magnifier";
        options.profile = "default";
        options.trials = 1;
        options.jobs = jobs;
        options.grid.push_back(parseSweepAxis("stages=400,800"));
        options.grid.push_back(parseSweepAxis("par_divs=2:4"));
        return runSweep(options).render(Format::Json);
    };
    const std::string lone = render(1);
    EXPECT_EQ(lone, render(3));
    EXPECT_NE(lone.find("\"stages\""), std::string::npos);
}

/**
 * Golden sweep: FNV-1a of the JSON that CI's gadget sweep prints
 * (`sweep --gadget=arith_magnifier --profile=default --grid
 * stages=200,400 --trials=1 --format=json`) at --jobs 1. A change that
 * moves it changes the sweep's results; update it and say why.
 */
TEST(Sweep, GoldenDigest)
{
    SweepOptions options;
    options.gadget = "arith_magnifier";
    options.profile = "default";
    options.trials = 1;
    options.jobs = 1;
    options.grid.push_back(parseSweepAxis("stages=200,400"));
    Digest digest;
    digest.text(runSweep(options).render(Format::Json));
    EXPECT_EQ(hexDigest(digest.value()), "0xd9451f419c694f55");
}

TEST(Sweep, GridSyntaxAndIncompatibleRows)
{
    const SweepAxis list = parseSweepAxis("key=a,b,c");
    EXPECT_EQ(list.key, "key");
    EXPECT_EQ(list.values,
              (std::vector<std::string>{"a", "b", "c"}));
    const SweepAxis range = parseSweepAxis("n=2:8:3");
    EXPECT_EQ(range.values, (std::vector<std::string>{"2", "5", "8"}));
    EXPECT_THROW(parseSweepAxis("novalue"), std::runtime_error);
    EXPECT_THROW(parseSweepAxis("k=5:1"), std::runtime_error);
    EXPECT_THROW(parseSweepAxis("k=1:4x"), std::runtime_error);

    // A gadget/profile mismatch degrades to a status row, not a crash.
    SweepOptions options;
    options.gadget = "plru_pa_magnifier";
    options.profile = "random_l1";
    options.trials = 1;
    const std::string rendered =
        runSweep(options).render(Format::Csv);
    EXPECT_NE(rendered.find("incompatible"), std::string::npos);
}

TEST(Sweep, RangesAtTheEdgesOfLongLong)
{
    EXPECT_EQ(parseSweepAxis("n=-3:3:3").values,
              (std::vector<std::string>{"-3", "0", "3"}));
    EXPECT_EQ(parseSweepAxis("n=9223372036854775806:9223372036854775807")
                  .values,
              (std::vector<std::string>{"9223372036854775806",
                                        "9223372036854775807"}));
    EXPECT_THROW(
        parseSweepAxis("n=-9223372036854775807:9223372036854775807"),
        std::runtime_error);
}

} // namespace
} // namespace hr
