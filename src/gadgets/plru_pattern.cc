#include "gadgets/plru_pattern.hh"

#include <algorithm>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "gadgets/plru_magnifier.hh"
#include "util/log.hh"

namespace hr
{

PlruSetModel::PlruSetModel(int assoc)
    : assoc_(assoc), contents_(static_cast<std::size_t>(assoc), -1),
      plru_(assoc)
{
}

int
PlruSetModel::wayOf(int line) const
{
    for (int w = 0; w < assoc_; ++w)
        if (contents_[static_cast<std::size_t>(w)] == line)
            return w;
    return -1;
}

bool
PlruSetModel::contains(int line) const
{
    return wayOf(line) >= 0;
}

bool
PlruSetModel::access(int line)
{
    int way = wayOf(line);
    if (way >= 0) {
        plru_.touch(way);
        return false;
    }
    // Prefer an invalid way; otherwise evict the candidate.
    way = -1;
    for (int w = 0; w < assoc_; ++w) {
        if (contents_[static_cast<std::size_t>(w)] == -1) {
            way = w;
            break;
        }
    }
    if (way < 0)
        way = plru_.victim();
    contents_[static_cast<std::size_t>(way)] = line;
    plru_.touch(way);
    return true;
}

int
PlruSetModel::evictionCandidate() const
{
    TreePlruPolicy copy = plru_;
    return contents_[static_cast<std::size_t>(copy.victim())];
}

std::string
PlruSetModel::render() const
{
    std::string out = "[";
    for (int w = 0; w < assoc_; ++w) {
        if (w)
            out += ' ';
        const int line = contents_[static_cast<std::size_t>(w)];
        if (line < 0)
            out += '-';
        else if (line < 26)
            out += static_cast<char>('A' + line);
        else
            out += std::to_string(line);
    }
    out += "]";
    return out;
}

bool
PlruSetModel::operator==(const PlruSetModel &other) const
{
    return contents_ == other.contents_ && bits() == other.bits();
}

// Way w's line id + 1 takes 5 bits of word w / 12, from bit
// 5 * (w % 12): ways 0..11 fill word 0 and ways 12..15 the low bits of
// word 1, whose tree bits start at bit 32.
PlruSetModel::Packed
PlruSetModel::pack() const
{
    Packed state{};
    for (std::size_t w = 0; w < contents_.size(); ++w)
        state[w / 12] |= static_cast<std::uint64_t>(contents_[w] + 1)
                         << (5 * (w % 12));
    const auto &tree = bits();
    for (std::size_t node = 0; node < tree.size(); ++node)
        state[1] |= static_cast<std::uint64_t>(tree[node]) << (32 + node);
    return state;
}

void
PlruSetModel::unpack(const Packed &state)
{
    for (std::size_t w = 0; w < contents_.size(); ++w)
        contents_[w] =
            static_cast<int>((state[w / 12] >> (5 * (w % 12))) & 31) - 1;
    plru_.setPackedBits(state[1] >> 32);
}

namespace
{

/** Canonical pre-race state: lines 1..W resident, tree as in Fig 3(1). */
PlruSetModel
canonicalBaseState(int assoc)
{
    PlruSetModel model(assoc);
    for (int line = 1; line <= assoc; ++line)
        model.access(line);
    // Extra touch on the last-but-one fill to move the candidate to
    // way 0 while leaving an interior pointer set (W=4: state (0,0,1)).
    model.access(assoc - 1);
    return model;
}

/**
 * Packed states numbered in discovery order, with an open-addressing
 * index. A slot holds the upper half of the state's hash and its
 * number + 1 (0: empty); the table doubles once half full.
 */
class StateSet
{
  public:
    /** The number of @p state, and whether it was added just now. */
    std::pair<int, bool>
    insert(const PlruSetModel::Packed &state)
    {
        const std::uint64_t h = hash(state);
        std::size_t i = h & mask_;
        for (; table_[i] != 0; i = (i + 1) & mask_) {
            const std::uint64_t slot = table_[i];
            const std::size_t number = (slot & 0xffffffffu) - 1;
            if ((slot >> 32) == (h >> 32) && states_[number] == state)
                return {static_cast<int>(number), false};
        }
        states_.push_back(state);
        if (2 * states_.size() > table_.size())
            rehash(2 * table_.size());
        else
            table_[i] = (h & ~0xffffffffull) | states_.size();
        return {static_cast<int>(states_.size()) - 1, true};
    }

    const PlruSetModel::Packed &
    operator[](std::size_t number) const
    {
        return states_[number];
    }

    std::size_t size() const { return states_.size(); }

  private:
    static std::uint64_t
    hash(const PlruSetModel::Packed &state)
    {
        // splitmix64 finalizer over both words.
        std::uint64_t h = state[0] ^ (state[1] * 0x9e3779b97f4a7c15ull);
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
        return h ^ (h >> 31);
    }

    void
    rehash(std::size_t capacity)
    {
        table_.assign(capacity, 0);
        mask_ = capacity - 1;
        for (std::size_t n = 0; n < states_.size(); ++n) {
            const std::uint64_t h = hash(states_[n]);
            std::size_t i = h & mask_;
            while (table_[i] != 0)
                i = (i + 1) & mask_;
            table_[i] = (h & ~0xffffffffull) | (n + 1);
        }
    }

    std::vector<PlruSetModel::Packed> states_;
    std::vector<std::uint64_t> table_ = std::vector<std::uint64_t>(1024);
    std::size_t mask_ = 1023;
};

std::optional<PinPattern>
searchPinPattern(int assoc, int max_len)
{
    // Post-race state: pinned line 0 inserted over the candidate.
    PlruSetModel model = canonicalBaseState(assoc);
    model.access(0);

    // Build the reachable state graph over accesses that never evict
    // the pinned line. Fig. 3's own cycle returns to a way-permuted
    // equivalent of its start, so we search for *any* cycle containing
    // a miss edge, plus a lead-in path from the start state. Nodes are
    // numbered in discovery order; expanded node n's edge for line l
    // (the alphabet is 1..W+1) sits in slot n * (W + 1) + l - 1. Nodes
    // found past kMaxNodes are not expanded and have no edges.
    struct Edge
    {
        int to = -1; // -1: the access evicts the pinned line
        bool miss = false;
    };
    const std::size_t letters = static_cast<std::size_t>(assoc) + 1;
    StateSet nodes;
    nodes.insert(model.pack());
    std::vector<Edge> edges;
    // BFS tree for lead-ins: the edge slot each node was discovered by.
    std::vector<std::size_t> tree{0};

    constexpr std::size_t kMaxNodes = 200'000;
    for (std::size_t at = 0; at < nodes.size() && at < kMaxNodes; ++at) {
        edges.resize(edges.size() + letters);
        for (std::size_t slot = 0; slot < letters; ++slot) {
            model.unpack(nodes[at]);
            const bool miss = model.access(static_cast<int>(slot) + 1);
            if (!model.contains(0))
                continue; // pinned line evicted: dead edge
            const auto [to, inserted] = nodes.insert(model.pack());
            if (inserted)
                tree.push_back(at * letters + slot);
            edges[at * letters + slot] = {to, miss};
        }
    }
    const std::size_t expanded = edges.size() / letters;

    // Line labels of the path from -> to, given the edge slot by which
    // each node on it was reached.
    auto labels_along = [letters](const std::vector<std::size_t> &via,
                                  int from, int to) {
        std::vector<int> labels;
        for (int at = to; at != from;) {
            const std::size_t slot = via[static_cast<std::size_t>(at)];
            labels.push_back(static_cast<int>(slot % letters) + 1);
            at = static_cast<int>(slot / letters);
        }
        std::reverse(labels.begin(), labels.end());
        return labels;
    };

    // Shortest path from -> to of at most max_depth edges, as line
    // labels. A BFS stamps the nodes it reaches with its generation and
    // records the edge slot it reached them by; it stops once `to` is
    // reached, as the path to `to` is fixed from then on.
    std::vector<std::uint32_t> seen(nodes.size(), 0);
    std::vector<std::size_t> via(nodes.size());
    std::vector<int> frontier;
    std::uint32_t generation = 0;
    auto bfs_path = [&](int from, int to,
                        int max_depth) -> std::optional<std::vector<int>> {
        const auto reached = [&](int node) {
            return seen[static_cast<std::size_t>(node)] == generation;
        };
        ++generation;
        seen[static_cast<std::size_t>(from)] = generation;
        frontier.assign(1, from);
        std::size_t head = 0;
        for (int depth = 0; depth < max_depth && !reached(to) &&
                            head < frontier.size();
             ++depth) {
            for (const std::size_t level_end = frontier.size();
                 head < level_end && !reached(to); ++head) {
                if (static_cast<std::size_t>(frontier[head]) >= expanded)
                    continue;
                const std::size_t first =
                    static_cast<std::size_t>(frontier[head]) * letters;
                for (std::size_t slot = first; slot < first + letters;
                     ++slot) {
                    const int next = edges[slot].to;
                    if (next < 0 || reached(next))
                        continue;
                    seen[static_cast<std::size_t>(next)] = generation;
                    via[static_cast<std::size_t>(next)] = slot;
                    frontier.push_back(next);
                }
            }
        }
        if (!reached(to))
            return std::nullopt;
        return labels_along(via, from, to);
    };

    // Find the shortest cycle through some miss edge (u -> v): BFS from
    // v back to u, then stitch the edge labels. A cycle must fit
    // max_len and beat the best so far, which bounds the BFS depth; up
    // to that depth its discovery order, and so the path it picks, is
    // that of an unbounded BFS.
    std::optional<PinPattern> best;
    int attempts = 0;
    for (std::size_t u = 0; u < expanded && attempts < 400; ++u) {
        for (std::size_t slot = 0; slot < letters; ++slot) {
            const Edge &edge = edges[u * letters + slot];
            if (edge.to < 0 || !edge.miss)
                continue;
            ++attempts;
            const int longest =
                best ? std::min(max_len,
                                static_cast<int>(best->accesses.size()) - 1)
                     : max_len;
            if (longest < 1)
                continue;
            auto back = bfs_path(edge.to, static_cast<int>(u), longest - 1);
            if (!back)
                continue;
            PinPattern pattern;
            pattern.accesses = {static_cast<int>(slot) + 1};
            pattern.accesses.insert(pattern.accesses.end(), back->begin(),
                                    back->end());
            // Lead-in: BFS-tree path from the start to u.
            pattern.leadIn = labels_along(tree, 0, static_cast<int>(u));
            // Count misses per period by simulation from u.
            model.unpack(nodes[u]);
            for (int line : pattern.accesses)
                pattern.missesPerPeriod += model.access(line) ? 1 : 0;
            best = std::move(pattern);
        }
        if (best && best->accesses.size() <= 2)
            break;
    }
    return best;
}

} // namespace

std::optional<PinPattern>
findPinPattern(int assoc, int max_len)
{
    fatalIf(assoc < 2 || (assoc & (assoc - 1)) != 0,
            "findPinPattern: associativity must be a power of two");
    fatalIf(assoc > PlruSetModel::kMaxPackedAssoc,
            "findPinPattern: associativity above " +
                std::to_string(PlruSetModel::kMaxPackedAssoc) +
                " is not supported");

    // The first caller of a pair runs the search; later callers, and
    // callers racing with it, wait on its shared future.
    using Result = std::shared_future<std::optional<PinPattern>>;
    static std::mutex mutex;
    static std::map<std::pair<int, int>, Result> memo;
    std::promise<std::optional<PinPattern>> search;
    Result result;
    bool first = false;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto [it, inserted] = memo.try_emplace({assoc, max_len});
        if (inserted)
            it->second = search.get_future().share();
        first = inserted;
        result = it->second;
    }
    if (first)
        search.set_value(searchPinPattern(assoc, max_len));
    return result.get();
}

bool
validatePinPattern(int assoc, const PinPattern &pattern, int periods)
{
    // (a) pinned line stays resident and every period misses.
    PlruSetModel with_a = canonicalBaseState(assoc);
    with_a.access(0);
    for (int line : pattern.leadIn) {
        with_a.access(line);
        if (!with_a.contains(0))
            return false;
    }
    for (int p = 0; p < periods; ++p) {
        int misses = 0;
        for (int line : pattern.accesses) {
            misses += with_a.access(line) ? 1 : 0;
            if (!with_a.contains(0))
                return false;
        }
        if (misses == 0)
            return false;
    }

    // (b) without the pinned line, misses must die out.
    PlruSetModel without_a = canonicalBaseState(assoc);
    for (int line : pattern.leadIn)
        without_a.access(line);
    int last_period_misses = -1;
    for (int p = 0; p < periods; ++p) {
        last_period_misses = 0;
        for (int line : pattern.accesses)
            last_period_misses += without_a.access(line) ? 1 : 0;
    }
    return last_period_misses == 0;
}

std::string
PlruPinMagnifier::describe() const
{
    return "tree-PLRU magnifier with a search-derived pin pattern "
           "(works for any power-of-two associativity)";
}

void
PlruPinMagnifier::configure(const ParamSet &params)
{
    cfg_.set = static_cast<int>(params.getInt("set", cfg_.set));
    cfg_.repeats = static_cast<int>(params.getInt("repeats", cfg_.repeats));
    cfg_.tagBase =
        static_cast<int>(params.getInt("tag_base", cfg_.tagBase));
    cfg_.maxLen = static_cast<int>(params.getInt("max_len", cfg_.maxLen));
    binding_ = {};
    calibration_.reset();
}

bool
PlruPinMagnifier::compatible(const Machine &machine) const
{
    const auto &l1 = machine.hierarchy().l1().config();
    if (l1.policy != PolicyKind::TreePlru || l1.assoc < 4 ||
        l1.assoc > PlruSetModel::kMaxPackedAssoc ||
        (l1.assoc & (l1.assoc - 1)) != 0 || cfg_.set >= l1.numSets) {
        return false;
    }
    return findPinPattern(l1.assoc, cfg_.maxLen).has_value();
}

std::unique_ptr<TimingSource>
PlruPinMagnifier::clone() const
{
    return std::make_unique<PlruPinMagnifier>(cfg_);
}

void
PlruPinMagnifier::ensure(Machine &machine)
{
    if (binding_.boundTo(machine))
        return;
    const int assoc = machine.hierarchy().l1().config().assoc;
    const auto pattern = findPinPattern(assoc, cfg_.maxLen);
    fatalIf(!pattern, "plru_pin_magnifier: no pin pattern for W=" +
                          std::to_string(assoc));
    // Line ids 0 (pinned) .. W+1 (the search alphabet's spare).
    lines_ = PlruMagnifier::sameSetLines(machine, cfg_.set, assoc + 2,
                                         cfg_.tagBase);
    ProgramBuilder builder("plru_pin_magnify");
    RegId r = builder.movImm(0);
    for (int line : pattern->leadIn)
        builder.loadOrderedInto(r, lines_[static_cast<std::size_t>(line)]);
    for (int rep = 0; rep < cfg_.repeats; ++rep)
        for (int line : pattern->accesses)
            builder.loadOrderedInto(
                r, lines_[static_cast<std::size_t>(line)]);
    builder.halt();
    program_ = builder.take();
    binding_.bind(machine);
}

void
PlruPinMagnifier::prepare(Machine &machine)
{
    ensure(machine);
    // The canonical base state of findPinPattern: lines 1..W fill the
    // set in way order, the last-but-one fill gets an extra touch; the
    // pinned line 0 is staged in L2.
    for (Addr addr : lines_)
        machine.flushLine(addr);
    const int assoc = machine.hierarchy().l1().config().assoc;
    for (int line = 1; line <= assoc; ++line)
        machine.warm(lines_[static_cast<std::size_t>(line)], 1);
    machine.warm(lines_[static_cast<std::size_t>(assoc - 1)], 1);
    machine.warm(lines_[0], 2);
}

std::pair<Addr, Addr>
PlruPinMagnifier::inputLines(Machine &machine)
{
    ensure(machine);
    return {lines_[0], 0};
}

void
PlruPinMagnifier::forceInput(Machine &machine, bool slow)
{
    ensure(machine);
    if (slow)
        machine.warm(lines_[0], 1);
}

Cycle
PlruPinMagnifier::amplify(Machine &machine)
{
    ensure(machine);
    return machine.run(program_).cycles();
}

} // namespace hr
