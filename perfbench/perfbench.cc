/**
 * @file
 * perfbench: the measuring binary of the end-to-end benchmark.
 *
 *   perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
 *             [--golden] [--disable batch|group|lockstep]... [--out DIR]
 *
 * Runs one named workload through the program's public entry points
 * (ExperimentRunner::run, runSweep, runAnalysis) and prints one JSON
 * line per repetition: the host wall and CPU time of the timed phase,
 * the peak RSS, the obs/metrics registry delta over exactly that phase,
 * and a digest per op. An op is one scenario cell, one sweep grid point
 * or one analysis target. With --seconds 0 (the default) it makes one
 * repetition; otherwise it repeats until S seconds have passed.
 *
 * Before the first call it prints a "ready" line with the monotonic
 * clock, so the caller can time process set-up. --golden makes one
 * untimed repetition of the seeded calls only, to compare with the
 * committed digests. With --trace 1 the flight recorder is on, the
 * binary emits a "bench.*" span around each call it makes, and each
 * repetition's recording is written as Perfetto JSON to DIR.
 *
 * This binary only measures. run.py builds it, starts one process per
 * repetition, checks the ops and counters, and reduces the lines to
 * the benchmark's metrics.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyze.hh"
#include "channel/channel_registry.hh"
#include "exp/machine_pool.hh"
#include "exp/registry.hh"
#include "exp/runner.hh"
#include "exp/sweep.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/noise.hh"
#include "util/log.hh"

namespace
{

using namespace hr;

/** One ring per recording thread; a repetition records a few
 * thousand events, so nothing wraps. */
constexpr std::size_t kTraceRing = std::size_t{1} << 16;

struct Op
{
    std::string name;
    bool ok = false;
    std::uint64_t digest = 0;
    bool seeded = true; //!< output depends on the workload seed
};

struct Tiers
{
    bool batch = true;
    bool group = true;
    bool lockstep = true;
};

/** One call into a public entry point. */
struct Call
{
    const char *span; //!< benchmark span name (string literal)
    bool seeded;      //!< takes the workload seed
    std::function<void(std::uint64_t seed, const Tiers &,
                       std::vector<Op> &)>
        run;
};

struct Workload
{
    int jobs = 1;
    std::vector<Call> calls;
};

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (const unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::string
jsonQuote(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> cells(1);
    bool quoted = false;
    for (const char c : line) {
        if (c == '"')
            quoted = !quoted;
        else if (c == ',' && !quoted)
            cells.emplace_back();
        else
            cells.back() += c;
    }
    return cells;
}

/**
 * One op per row of a sweep's results table: the row fails unless its
 * status is `ok` and every check of the sweep passed.
 */
void
sweepOps(const ResultTable &result, std::vector<Op> &ops)
{
    std::istringstream csv(result.render(Format::Csv));
    const std::size_t before = ops.size();
    std::string line;
    bool inResults = false;
    std::size_t statusCol = 0;
    bool haveHeader = false;
    while (std::getline(csv, line)) {
        if (line.rfind("# table:", 0) == 0) {
            inResults = line == "# table: results";
            haveHeader = false;
            continue;
        }
        if (!inResults || line.empty() || line[0] == '#')
            continue;
        const std::vector<std::string> cells = splitCsv(line);
        if (!haveHeader) {
            haveHeader = true;
            statusCol = cells.size();
            for (std::size_t i = 0; i < cells.size(); ++i)
                if (cells[i] == "status")
                    statusCol = i;
            continue;
        }
        std::string name = "point";
        for (std::size_t i = 0; i < statusCol && i < cells.size(); ++i)
            name += (i ? "," : ":") + cells[i];
        const bool ok = result.passed() && statusCol < cells.size() &&
                        cells[statusCol] == "ok";
        ops.push_back({name, ok, fnv1a(line), true});
    }
    if (ops.size() == before)
        ops.push_back({"sweep", false, 0, true});
}

ResultTable
runScenario(Scenario &scenario, int jobs, const ParamSet &params,
            std::uint64_t seed, const Tiers &tiers)
{
    RunOptions options;
    options.jobs = jobs;
    options.seed = seed;
    options.params = params;
    options.batch = tiers.batch;
    options.group = tiers.group;
    options.lockstep = tiers.lockstep;
    return ExperimentRunner(options).run(scenario);
}

Call
scenarioCall(const std::string &name, int jobs, ParamSet params)
{
    Scenario *scenario = &ScenarioRegistry::instance().resolve(name);
    return {"bench.run", true,
            [=](std::uint64_t seed, const Tiers &tiers,
                std::vector<Op> &ops) {
                const ResultTable result =
                    runScenario(*scenario, jobs, params, seed, tiers);
                ops.push_back({scenario->name(), result.passed(),
                               fnv1a(result.render(Format::Json)), true});
            }};
}

/**
 * The cells of `fig_channel_ber_vs_noise --param quick=1` as a
 * scenario of the benchmark's own: an order-encoded cache-state
 * channel and an arithmetic-only one, each against the idle and
 * pointer-chase rungs of the neighbour ladder on smt2_plru, with one
 * machine pool per rung whose warm-up installs the neighbour. A cell
 * sends one frame, not the figure's two, so that a repetition takes
 * about 2 s and a run samples many processes. Each cell is one op, checked for status and digest. The figure's
 * own monotonicity check compares noisy BER estimates and fails at
 * most seeds in quick mode, so it is not used here.
 */
class ChannelNoiseCells : public Scenario
{
  public:
    std::string name() const override { return "bench_channel_noise"; }

    std::string
    title() const override
    {
        return "channel BER cells under a co-resident neighbour ladder";
    }

    std::string
    paperClaim() const override
    {
        return "the cells of fig_channel_ber_vs_noise";
    }

    std::string defaultProfile() const override { return "smt2_plru"; }

    /** Trials = frames per transmission. */
    int defaultTrials() const override { return 1; }

    ResultTable
    run(ScenarioContext &ctx) override
    {
        struct Rung
        {
            const char *label;
            const char *noise;
            int lines;
        };
        static constexpr const char *kChannels[] = {"rs2_plru_reorder",
                                                    "ook_arith"};
        static constexpr Rung kLadder[] = {
            {"idle", "idle", 0},
            {"chase 1x sets", "pointer_chase", 128},
            {"chase 4x sets", "pointer_chase", 512},
            {"chase 8x sets", "pointer_chase", 1024},
        };
        constexpr int kRungs = static_cast<int>(std::size(kLadder));
        constexpr int kFrameBits = 8;

        const MachineConfig base = ctx.machineConfig();
        std::vector<std::unique_ptr<MachinePool>> pools;
        for (const Rung &rung : kLadder)
            pools.push_back(std::make_unique<MachinePool>(
                base, [rung](Machine &machine) {
                    ParamSet params;
                    if (rung.lines > 0)
                        params.set("noise_lines",
                                   std::to_string(rung.lines));
                    installNoise(machine, 1, rung.noise, params);
                }));

        cells_ = ctx.parallelMap(
            static_cast<int>(std::size(kChannels)) * kRungs,
            [&](int index, Rng &rng) {
                const char *channelName = kChannels[index / kRungs];
                const Rung &rung = kLadder[index % kRungs];
                Op cell{std::string("cell:") + channelName + "," +
                            rung.label,
                        false, 0, true};
                try {
                    auto lease = pools[static_cast<std::size_t>(
                                           index % kRungs)]
                                     ->lease();
                    Machine &machine = lease.machine();
                    ScenarioContext::reseedMachine(machine, base,
                                                   ctx.indexSeed(index));
                    ParamSet overrides;
                    overrides.set("ecc", "none");
                    overrides.set("frame_bits", std::to_string(kFrameBits));
                    Channel channel(ChannelRegistry::instance().makeConfig(
                        channelName, overrides));
                    if (!channel.compatible(machine))
                        return cell;
                    channel.prepare(machine);
                    std::vector<bool> payload;
                    for (int i = 0; i < ctx.trials() * kFrameBits; ++i)
                        payload.push_back(rng.chance(0.5));
                    const ChannelStats stats = channel.run(machine, payload);
                    char text[128];
                    std::snprintf(text, sizeof(text), "%d %d %d %d %llu",
                                  stats.framesSent, stats.framesSynced,
                                  stats.symbolsSent, stats.symbolErrors,
                                  static_cast<unsigned long long>(
                                      stats.cycles));
                    cell.ok = true;
                    cell.digest = fnv1a(text);
                } catch (const std::exception &e) {
                    HR_LOG(error, "perfbench: %s: %s\n", cell.name.c_str(),
                           e.what());
                }
                return cell;
            });
        return {};
    }

    const std::vector<Op> &cells() const { return cells_; }

  private:
    std::vector<Op> cells_;
};

Call
channelNoiseCall()
{
    auto scenario = std::make_shared<ChannelNoiseCells>();
    return {"bench.run", true,
            [scenario](std::uint64_t seed, const Tiers &tiers,
                       std::vector<Op> &ops) {
                runScenario(*scenario, 1, {}, seed, tiers);
                ops.insert(ops.end(), scenario->cells().begin(),
                           scenario->cells().end());
            }};
}

Call
sweepCall(const std::string &gadget,
          const std::vector<std::string> &grid, int trials)
{
    SweepOptions base;
    base.gadget = gadget;
    base.trials = trials;
    for (const std::string &axis : grid)
        base.grid.push_back(parseSweepAxis(axis));
    return {"bench.sweep", true,
            [base](std::uint64_t seed, const Tiers &tiers,
                   std::vector<Op> &ops) {
                SweepOptions options = base;
                options.seed = seed;
                options.batch = tiers.batch;
                options.group = tiers.group;
                options.lockstep = tiers.lockstep;
                sweepOps(runSweep(options), ops);
            }};
}

/** Every gadget, channel and demo program, cross-validated. The
 * analyzer takes no seed, so its digests hold for every seed. */
Call
analysisCall(int jobs)
{
    return {"bench.analysis", false,
            [jobs](std::uint64_t, const Tiers &, std::vector<Op> &ops) {
                AnalyzeOptions options;
                options.all = true;
                options.jobs = jobs;
                options.validate = true;
                for (const LeakageReport &report : runAnalysis(options)) {
                    std::ostringstream json;
                    printReportJson(json, {report});
                    const bool ok =
                        report.status.rfind("error:", 0) != 0 &&
                        (!report.validation.ran ||
                         report.validation.passed);
                    ops.push_back({"analyze:" + report.target, ok,
                                   fnv1a(json.str()), false});
                }
            }};
}

/** The workloads; README.md says why each was chosen. */
Workload
makeWorkload(const std::string &name)
{
    if (name == "channel_noise")
        return {1, {channelNoiseCall()}};
    if (name == "sweep_forwarded")
        return {1, {sweepCall("arith_magnifier",
                              {"stages=500:4000:500", "par_divs=2,4"},
                              16)}};
    if (name == "sweep_divergent")
        return {1, {sweepCall("arith_magnifier",
                              {"stages=1:16", "div_chain=1:8"}, 16)}};
    if (name == "parallel_capacity") {
        constexpr int kJobs = 4;
        ParamSet quick;
        quick.set("quick", "1");
        return {kJobs, {scenarioCall("tab_channel_capacity", kJobs, quick),
                        analysisCall(kJobs)}};
    }
    fatal("unknown workload '" + name + "'");
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/** Restart the kernel's peak-RSS mark (VmHWM), so each repetition
 * reports its own peak; where /proc does not allow it, the peak
 * stays the process's. */
void
resetPeakRss()
{
    if (std::FILE *file = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", file);
        std::fclose(file);
    }
}

/** Peak RSS in KiB since the last reset (else since process start). */
long
peakRssKb()
{
    std::FILE *file = std::fopen("/proc/self/status", "r");
    char line[256];
    long kb = -1;
    while (file != nullptr && std::fgets(line, sizeof(line), file))
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    if (file != nullptr)
        std::fclose(file);
    if (kb >= 0)
        return kb;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

std::uint64_t
monotonicNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * One repetition: reset the registry, run the calls (only the seeded
 * ones when @p seededOnly), and print the measurements as one line.
 * A call that throws fails as one op.
 */
void
runRep(const char *phase, const Workload &workload, bool seededOnly,
       std::uint64_t seed, const Tiers &tiers,
       const std::string &traceFile)
{
    const bool traced = !traceFile.empty();
    std::vector<Op> ops;
    resetPeakRss();
    metrics().resetAll();
    if (traced)
        TraceRecorder::enable(kTraceRing);
    const double cpu0 = cpuSeconds();
    const auto t0 = std::chrono::steady_clock::now();
    for (const Call &call : workload.calls) {
        if (seededOnly && !call.seeded)
            continue;
        const std::uint64_t spanStart =
            traced ? TraceRecorder::nowNs() : 0;
        try {
            call.run(seed, tiers, ops);
        } catch (const std::exception &e) {
            HR_LOG(error, "perfbench: %s: %s\n", call.span, e.what());
            ops.push_back({call.span, false, 0, call.seeded});
        }
        if (traced)
            TraceRecorder::emitComplete("bench", call.span, spanStart);
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    const double cpu = cpuSeconds() - cpu0;
    const long peakKb = peakRssKb();
    const std::vector<MetricSample> rows = metrics().snapshot();
    std::uint64_t dropped = 0;
    if (traced) {
        TraceRecorder::disable();
        dropped = TraceRecorder::droppedEvents();
        TraceRecorder::writeChromeTrace(traceFile);
        TraceRecorder::clear();
    }

    std::string line = "{\"kind\": \"rep\", \"phase\": \"";
    line += phase;
    line += "\", \"seed\": " + std::to_string(seed);
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  ", \"wall_s\": %.9f, \"cpu_s\": %.9f, \"peak_rss_kb\": %ld",
                  wall, cpu, peakKb);
    line += buf;
    line += ", \"trace_file\": " + jsonQuote(traceFile) +
            ", \"events_dropped\": " + std::to_string(dropped) +
            ", \"counters\": {";
    bool first = true;
    for (const MetricSample &row : rows) {
        const auto field = [&](const std::string &name,
                               std::uint64_t value) {
            line += (first ? "" : ", ") + jsonQuote(name) + ": " +
                    std::to_string(value);
            first = false;
        };
        if (row.kind == "histogram") {
            field(row.name + ".count", row.value);
            field(row.name + ".sum", row.sum);
        } else {
            field(row.name, row.value);
        }
    }
    line += "}, \"ops\": [";
    for (std::size_t i = 0; i < ops.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(ops[i].digest));
        line += (i ? ", [" : "[") + jsonQuote(ops[i].name) + ", " +
                (ops[i].ok ? "true" : "false") + ", \"" + buf + "\", " +
                (ops[i].seeded ? "true" : "false") + "]";
    }
    line += "]}\n";
    std::fputs(line.c_str(), stdout);
    std::fflush(stdout);
}

int
run(int argc, char **argv)
{
    std::string workloadName, outDir = ".";
    std::uint64_t seed = 1;
    bool golden = false, traced = false;
    double seconds = 0;
    Tiers tiers;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            fatalIf(i + 1 >= argc, arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            workloadName = value();
        } else if (arg == "--seed") {
            seed = std::stoull(value());
        } else if (arg == "--seconds") {
            seconds = std::stod(value());
        } else if (arg == "--trace") {
            traced = value() == "1";
        } else if (arg == "--golden") {
            golden = true;
        } else if (arg == "--out") {
            outDir = value();
        } else if (arg == "--disable") {
            const std::string tier = value();
            fatalIf(tier != "batch" && tier != "group" &&
                        tier != "lockstep",
                    "--disable takes batch, group or lockstep");
            (tier == "batch" ? tiers.batch
                             : tier == "group" ? tiers.group
                                               : tiers.lockstep) = false;
        } else {
            fatal("unknown argument '" + arg + "'");
        }
    }
    fatalIf(workloadName.empty(), "--workload is required");

    const Workload workload = makeWorkload(workloadName);
    std::printf("{\"kind\": \"ready\", \"mono_ns\": %llu, \"jobs\": %d}\n",
                static_cast<unsigned long long>(monotonicNs()),
                workload.jobs);
    std::fflush(stdout);

    if (golden) {
        runRep("golden", workload, true, seed, tiers, "");
        return 0;
    }
    const auto start = std::chrono::steady_clock::now();
    int rep = 0;
    do {
        runRep(traced ? "traced" : "timed", workload, false, seed, tiers,
               traced ? outDir + "/trace_" + workloadName + "_" +
                            std::to_string(getpid()) + "_" +
                            std::to_string(rep) + ".json"
                      : "");
        ++rep;
    } while (std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - start)
                 .count() < seconds);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
