#include "exp/batch.hh"

#include <algorithm>
#include <sstream>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/log.hh"

namespace hr
{

void
BatchRunner::Stats::add(const Stats &other)
{
    trials += other.trials;
    leaders += other.leaders;
    replayed += other.replayed;
    groupStepped += other.groupStepped;
    diverged += other.diverged;
    scalar += other.scalar;
}

std::string
BatchRunner::Stats::summary() const
{
    std::ostringstream out;
    out << "trials=" << trials << " leaders=" << leaders
        << " replayed=" << replayed << " group-stepped=" << groupStepped
        << " diverged=" << diverged << " scalar=" << scalar;
    return out.str();
}

BatchRunner::BatchRunner(MachinePool &pool, Setup setup, Options options)
    : lease_(pool.lease()), options_(options)
{
    fatalIf(options_.width < 1, "BatchRunner: width must be >= 1");
    if (setup)
        setup(lease_.machine());
    base_ = lease_.machine().snapshot();
}

namespace
{

bool
reseeds(const TrialTrace &trace)
{
    return std::any_of(trace.ops.begin(), trace.ops.end(),
                       [](const TraceOp &op) {
                           return op.kind == TraceOp::Kind::Reseed;
                       });
}

} // namespace

void
BatchRunner::forEach(std::size_t count, const TrialFn &fn)
{
    // Tier tallies also feed the global metrics registry directly, so
    // every runner shows up in the unified snapshot, including the
    // ones whose Stats object the caller drops.
    Metrics &met = metrics();
    Machine &m = lease_.machine();
    const std::size_t width = static_cast<std::size_t>(options_.width);
    Machine::ReplayTolerance tolerance;
    tolerance.substituteDeadReseeds = options_.group;
    std::size_t start = 0;
    while (start < count) {
        const std::size_t end = std::min(count, start + width);

        // Leader: full simulation, recorded.
        TrialTrace trace;
        {
            HR_TRACE_SCOPE("batch", "batch.leader");
            if (dirty_)
                m.restore(base_);
            m.beginRecord(trace);
            fn(m, start);
            m.endRecord();
        }
        dirty_ = true;
        ++stats_.leaders;
        ++stats_.trials;
        met.batchLeaders.add();
        met.batchTrials.add();

        // Followers the trace cannot stand in for run the plain scalar
        // loop (see the file comment for the two shapes).
        const bool scalar =
            trace.opaque || (trace.rngDraws != 0 && reseeds(trace));
        if (scalar) {
            HR_TRACE_INSTANT1("batch", "batch.scalar_fallback",
                              "followers", end - (start + 1));
        }
        for (std::size_t i = start + 1; i < end; ++i) {
            if (scalar) {
                m.restore(base_);
                fn(m, i);
                ++stats_.scalar;
                met.batchFollowersScalar.add();
            } else {
                // Replay, falling back to scalar on divergence. Clean
                // replays never touch machine state, so they need no
                // restore: the machine stays at the leader's (or last
                // diverged follower's) end state.
                m.beginReplay(trace, base_, tolerance);
                fn(m, i);
                const bool clean = m.endReplay();
                const std::size_t subs = m.replaySubstitutions();
                if (!clean) {
                    ++stats_.diverged;
                    met.batchFollowersPeeled.add();
                    HR_TRACE_INSTANT1("batch", "batch.peel_off",
                                      "trial", i);
                    if (options_.group) {
                        met.groupLanesPeeled.add();
                        HR_TRACE_INSTANT1("group", "group.lane_peeled",
                                          "matched", m.replayMatched());
                    }
                } else if (subs == 0) {
                    ++stats_.replayed;
                    met.batchFollowersReplayed.add();
                } else {
                    ++stats_.groupStepped;
                    met.batchFollowersStepped.add();
                    met.groupReseedsSubstituted.add(subs);
                    HR_TRACE_INSTANT2("group", "group.lane_stepped",
                                      "matched", m.replayMatched(),
                                      "subs", subs);
                }
            }
            ++stats_.trials;
            met.batchTrials.add();
        }
        start = end;
    }
}

} // namespace hr
