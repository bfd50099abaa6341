/**
 * @file
 * Experiment-engine tests: parameter parsing, registry round-trip
 * (every registered scenario is listable and runnable), and the
 * determinism contract — the same seed must produce bit-identical
 * ResultTables at any --jobs count.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "digest.hh"
#include "exp/registry.hh"
#include "exp/runner.hh"
#include "sim/profiles.hh"
#include "util/log.hh"
#include "util/params.hh"

namespace hr
{
namespace
{

RunOptions
quickOptions(int jobs)
{
    RunOptions options;
    options.jobs = jobs;
    options.trials = 2;
    options.seed = 42;
    options.params.set("quick", "1");
    return options;
}

TEST(ParamSet, TypedAccessors)
{
    ParamSet params;
    params.setFromArg("trials=250");
    params.set("ratio", "0.5");
    params.set("fast", "yes");
    EXPECT_TRUE(params.has("trials"));
    EXPECT_EQ(params.getInt("trials", 0), 250);
    EXPECT_DOUBLE_EQ(params.getDouble("ratio", 0.0), 0.5);
    EXPECT_TRUE(params.getBool("fast", false));
    EXPECT_EQ(params.getInt("absent", 7), 7);
    EXPECT_THROW(params.setFromArg("novalue"), std::runtime_error);
    params.set("bad", "zzz");
    EXPECT_THROW(params.getInt("bad", 0), std::runtime_error);
}

TEST(ParamSet, ParseIntegerTakesWholeTokensOnly)
{
    EXPECT_EQ(parseInteger("42", 10), 42);
    EXPECT_EQ(parseInteger("-3", 10), -3);
    EXPECT_EQ(parseInteger("0x10", 0), 16);
    EXPECT_EQ(parseInteger("4294967297", 10), 4294967297LL);
    EXPECT_EQ(parseInteger("1x", 10), std::nullopt);
    EXPECT_EQ(parseInteger("0x10", 10), std::nullopt);
    EXPECT_EQ(parseInteger("", 10), std::nullopt);
    EXPECT_EQ(parseInteger("99999999999999999999", 10), std::nullopt);
}

TEST(Profiles, RegistryKnowsAllProfiles)
{
    std::set<std::string> names;
    for (const MachineProfile &profile : machineProfiles())
        names.insert(profile.name);
    for (const char *required :
         {"default", "effective_window", "noisy", "plru", "noisy_plru",
          "random_l1", "small_llc"}) {
        EXPECT_TRUE(names.count(required)) << required;
        EXPECT_TRUE(hasMachineProfile(required));
        (void)machineConfigForProfile(required); // must not throw
    }
    EXPECT_THROW(machineConfigForProfile("nope"), std::runtime_error);
}

TEST(Registry, AllFormerBenchesRegistered)
{
    const char *expected[] = {
        "fig03_plru_walkthrough",  "fig04_plru_eviction",
        "fig07_repetition_stack",  "fig08_granularity_add",
        "fig09_granularity_mul",   "fig10_reorder_distribution",
        "fig11_arbitrary_replacement", "fig12_arithmetic_only",
        "tab_countermeasures",     "tab_detector",
        "tab_evset",               "tab_granularity_summary",
        "tab_miss_probability",    "tab_policy_ablation",
        "tab_spectreback",
    };
    std::set<std::string> names;
    for (Scenario *scenario : ScenarioRegistry::instance().all())
        names.insert(scenario->name());
    for (const char *name : expected)
        EXPECT_TRUE(names.count(name)) << name;
    EXPECT_GE(names.size(), 15u);
}

TEST(Registry, ResolvesUniquePrefixes)
{
    auto &registry = ScenarioRegistry::instance();
    EXPECT_EQ(registry.resolve("fig04").name(), "fig04_plru_eviction");
    EXPECT_EQ(registry.resolve("tab_miss_probability").name(),
              "tab_miss_probability");
    EXPECT_THROW(registry.resolve("fig0"), std::runtime_error);
    EXPECT_THROW(registry.resolve("does_not_exist"), std::runtime_error);
}

/**
 * Golden quick-mode output: FNV-1a of each scenario's JSON rendering
 * at seed 42, trials 2. A change that moves an entry changes that
 * scenario's results; it must update the entry and say why.
 */
const std::map<std::string, std::uint64_t> kQuickDigests = {
    {"fig03_plru_walkthrough", 0x217cf74ca18e71dc},
    {"fig04_plru_eviction", 0x5593010d04ec38bd},
    {"fig07_repetition_stack", 0xa47784eb72be3615},
    {"fig08_granularity_add", 0xbe0ea57449ff86e7},
    {"fig09_granularity_mul", 0x9451d2c6934e1120},
    {"fig10_reorder_distribution", 0x7d38b3aaf98c912b},
    {"fig11_arbitrary_replacement", 0xc91874495471c3f1},
    {"fig12_arithmetic_only", 0xefba53d46e5f52b5},
    {"fig_capacity_bound_vs_measured", 0x195d9e2d8a9644e6},
    {"fig_channel_ber_vs_noise", 0xe34703f9d9ba6257},
    {"fig_static_vs_dynamic", 0xd7c421e75547f502},
    {"tab_channel_capacity", 0xea3540e4a07c0a12},
    {"tab_channel_detector", 0xb28ce4347196404d},
    {"tab_contention_granularity", 0x6df28e211ec9e6de},
    {"tab_countermeasures", 0xac9a6402b11d155a},
    {"tab_detector", 0xa9d90a0c0ab86e4b},
    {"tab_evset", 0xc3fc2cd239c27b5a},
    {"tab_granularity_summary", 0x26806be02718f0e9},
    {"tab_miss_probability", 0x6363f18e5638cc30},
    {"tab_noise_detector", 0xa91f06f0e4ab923f},
    {"tab_noise_robustness", 0x4bd82f43020c16ab},
    {"tab_policy_ablation", 0x8a80b84e590bc2fb},
    {"tab_spectreback", 0x51101b78a5502f55},
};

TEST(Registry, EveryScenarioRunsQuick)
{
    ExperimentRunner runner(quickOptions(2));
    for (Scenario *scenario : ScenarioRegistry::instance().all()) {
        SCOPED_TRACE(scenario->name());
        ResultTable result = runner.run(*scenario);
        EXPECT_EQ(result.scenarioName(), scenario->name());
        // Every former bench must produce renderable content in every
        // format, with no raw printf side channel.
        EXPECT_FALSE(result.render(Format::Table).empty());
        const std::string json = result.render(Format::Json);
        EXPECT_FALSE(json.empty());
        EXPECT_FALSE(result.render(Format::Csv).empty());

        Digest digest;
        digest.text(json);
        const auto golden = kQuickDigests.find(scenario->name());
        if (golden == kQuickDigests.end()) {
            ADD_FAILURE() << "no golden digest; add {\""
                          << scenario->name() << "\", "
                          << hexDigest(digest.value()) << "}";
        } else {
            EXPECT_EQ(hexDigest(digest.value()),
                      hexDigest(golden->second));
        }
    }
    EXPECT_EQ(kQuickDigests.size(),
              ScenarioRegistry::instance().all().size())
        << "golden table names a scenario that no longer exists";
}

/** Same seed => bit-identical results at any --jobs count. */
TEST(Runner, JobCountDoesNotChangeResults)
{
    const std::pair<const char *, int> cases[] = {
        {"tab_miss_probability", 2000},
        {"fig10_reorder_distribution", 12},
        {"tab_evset", 4},
    };
    for (const auto &[name, trials] : cases) {
        SCOPED_TRACE(name);
        Scenario &scenario = ScenarioRegistry::instance().resolve(name);

        RunOptions serial = quickOptions(1);
        serial.trials = trials;
        RunOptions wide = quickOptions(8);
        wide.trials = trials;

        ExperimentRunner runner1(serial);
        ExperimentRunner runner8(wide);
        const std::string render1 =
            runner1.run(scenario).render(Format::Json);
        const std::string render8 =
            runner8.run(scenario).render(Format::Json);
        EXPECT_EQ(render1, render8);
    }
}

/** Different base seeds reach different Monte-Carlo samples. */
TEST(Runner, SeedSelectsTheSampleStream)
{
    Scenario &scenario =
        ScenarioRegistry::instance().resolve("tab_miss_probability");
    RunOptions a = quickOptions(2);
    a.trials = 200;
    RunOptions b = a;
    b.seed = 777;
    const std::string render_a =
        ExperimentRunner(a).run(scenario).render(Format::Json);
    const std::string render_b =
        ExperimentRunner(b).run(scenario).render(Format::Json);
    EXPECT_NE(render_a, render_b);
}

TEST(Runner, ChecksGateThePassFlag)
{
    ResultTable result;
    EXPECT_TRUE(result.passed());
    result.addCheck("good", true);
    EXPECT_TRUE(result.passed());
    result.addCheck("bad", false);
    EXPECT_FALSE(result.passed());
}

TEST(Context, ParallelMapPreservesIndexOrder)
{
    ScenarioContext ctx(8, 4, 99, "default", {}, nullptr);
    const auto values = ctx.parallelMap(100, [](int i, Rng &rng) {
        (void)rng;
        return i * 3;
    });
    ASSERT_EQ(values.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(values[static_cast<std::size_t>(i)], i * 3);
}

TEST(Context, PerTrialRngIsSeedXorIndex)
{
    ScenarioContext ctx(4, 2, 1234, "default", {}, nullptr);
    EXPECT_EQ(ctx.indexSeed(0), 1234u);
    EXPECT_EQ(ctx.indexSeed(5), 1234u ^ 5u);
    // The derived streams must match a locally constructed Rng.
    const auto firsts = ctx.parallelMap(
        3, [](int, Rng &rng) { return rng.next(); });
    for (int i = 0; i < 3; ++i) {
        Rng expected(ctx.indexSeed(i));
        EXPECT_EQ(firsts[static_cast<std::size_t>(i)], expected.next());
    }
}

TEST(Context, ExceptionsPropagateFromWorkers)
{
    ScenarioContext ctx(4, 4, 1, "default", {}, nullptr);
    EXPECT_THROW(ctx.parallelMap(16,
                                 [](int i, Rng &) -> int {
                                     if (i == 7)
                                         fatal("boom");
                                     return i;
                                 }),
                 std::runtime_error);
}

} // namespace
} // namespace hr
