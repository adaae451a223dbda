#include "workloads.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>

#include "base/portable_rng.hpp"
#include "gen/random_sdf.hpp"
#include "gen/regular.hpp"
#include "gen/structured.hpp"
#include "io/text.hpp"
#include "io/xml.hpp"
#include "sdf/repetition.hpp"
#include "transform/symbolic.hpp"

namespace perfbench {

using sdf::Graph;
using sdf::Int;
using sdf::serve::EditStep;

namespace {

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("cannot read " + path);
    }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

EditStep time_step(const std::string& actor, Int time) {
    EditStep step;
    step.kind = EditStep::Kind::execution_time;
    step.actor = actor;
    step.value = time;
    return step;
}

Int pick(std::mt19937& rng, Int bound) {
    return static_cast<Int>(sdf::draw_below(rng, static_cast<std::uint64_t>(bound)));
}

/// Three requests on actors `a`, `b`, `a` (+1 each): every child is new and
/// the first edit lands on the freshly solved parent.
std::vector<EditRequest> three_raises(const Graph& graph, sdf::ActorId a, sdf::ActorId b) {
    const Int ta = graph.actor(a).execution_time;
    const Int tb = graph.actor(b).execution_time;
    const std::string& na = graph.actor(a).name;
    const std::string& nb = graph.actor(b).name;
    return {{time_step(na, ta + 1)}, {time_step(nb, tb + 1)}, {time_step(na, ta + 2)}};
}

Model generated(const std::string& name, const Graph& graph, std::string closed_form) {
    Model model;
    model.name = name;
    model.text = sdf::write_text_string(graph);
    model.closed_form = std::move(closed_form);
    return model;
}

Workload large_regular(std::uint64_t seed) {
    std::mt19937 rng(static_cast<std::uint32_t>(seed));
    Workload workload;
    workload.name = "large_regular";

    // fork_join(1024, 3): period 2 + (largest worker time).  The first edit
    // raises λ (Karp re-solve), the next two keep it.
    constexpr Int kWidth = 1024;
    const Graph fork_join = sdf::fork_join_graph(kWidth, 3);
    Model fj = generated("fork_join_1024", fork_join, "5");
    const Int w1 = pick(rng, kWidth);
    const Int w2 = (w1 + 1 + pick(rng, kWidth - 1)) % kWidth;
    fj.script = {{time_step("w" + std::to_string(w1), 4)},
                 {time_step("w" + std::to_string(w2), 2)},
                 {time_step("w" + std::to_string(w2), 4)}};
    fj.child_closed_forms = {"6", "6", "6"};

    // ring(256, 3) with one token: period = sum of execution times.
    constexpr Int kRing = 256;
    const Graph ring = sdf::ring_graph(kRing, 3);
    Model rg = generated("ring_256", ring, std::to_string(kRing * 3));
    const Int r1 = pick(rng, kRing);
    const Int r2 = (r1 + 1 + pick(rng, kRing - 1)) % kRing;
    rg.script = three_raises(ring, static_cast<sdf::ActorId>(r1),
                             static_cast<sdf::ActorId>(r2));
    rg.child_closed_forms = {std::to_string(kRing * 3 + 1), std::to_string(kRing * 3 + 2),
                             std::to_string(kRing * 3 + 3)};

    workload.models = {std::move(fj), std::move(rg)};
    if (pick(rng, 2) == 1) {
        std::swap(workload.models[0], workload.models[1]);
    }
    return workload;
}

// dse_edits: random consistent, live graphs of 12-20 actors.  The token
// count N sizes the N×N symbolic matrix and its finite entries size the
// reduced HSDF.  Draws outside narrow windows of N and Σq are redrawn (a
// cheap test), and of the first kDseCandidates draws inside them the one
// whose matrix has the number of finite entries closest to kDseFinite is
// kept: every draw solves in about a millisecond, the work of a round is
// nearly the same for every seed, and so is the cost of generating it (a
// fixed number of symbolic iterations, not a seed-dependent number of
// rejections).
constexpr int kDseGraphs = 12;
constexpr int kDseEdits = 8;
constexpr Int kDseMinTokens = 95, kDseMaxTokens = 105;
constexpr Int kDseMinFirings = 30, kDseMaxFirings = 40;
constexpr int kDseCandidates = 6;
constexpr std::size_t kDseFinite = 5900;

bool token_free_edge(const sdf::Channel& c) {
    return c.initial_tokens == 0 && !c.is_self_loop();
}

bool has_tokens(const sdf::Channel& c) { return c.initial_tokens > 0; }

Graph dse_graph(std::mt19937& rng, int index) {
    sdf::RandomSdfOptions options;
    options.min_actors = 12;
    options.max_actors = 20;
    options.max_repetition = 3;
    options.extra_edge_probability = 0.2;
    options.backward_edge_probability = 0.15;
    Graph best;
    std::size_t best_distance = SIZE_MAX;
    for (int candidates = 0; candidates < kDseCandidates;) {
        Graph graph = sdf::random_sdf(rng, options);
        const Int tokens = graph.total_initial_tokens();
        Int firings = 0;
        for (const Int q : sdf::repetition_vector(graph)) {
            firings += q;
        }
        const auto& channels = graph.channels();
        if (tokens < kDseMinTokens || tokens > kDseMaxTokens || firings < kDseMinFirings ||
            firings > kDseMaxFirings ||
            std::none_of(channels.begin(), channels.end(), token_free_edge)) {
            continue;
        }
        ++candidates;
        const std::size_t finite =
            sdf::symbolic_iteration(graph).matrix.finite_entry_count();
        const std::size_t distance =
            finite > kDseFinite ? finite - kDseFinite : kDseFinite - finite;
        if (distance < best_distance) {
            best_distance = distance;
            best = std::move(graph);
        }
    }
    best.set_name("dse_" + std::to_string(index));
    return sdf::read_text_string(sdf::write_text_string(best));
}

sdf::ChannelId pick_channel(std::mt19937& rng, const Graph& graph,
                            bool (*eligible)(const sdf::Channel&)) {
    std::vector<sdf::ChannelId> candidates;
    for (sdf::ChannelId c = 0; c < graph.channel_count(); ++c) {
        if (eligible(graph.channel(c))) candidates.push_back(c);
    }
    return candidates[sdf::draw_below(rng, candidates.size())];
}

/// A chain of edit requests.  Each raises one execution time by 1-3 (so
/// the sum of execution times grows and no child repeats an earlier graph);
/// every second and third request also adds one token to a channel that
/// has tokens (liveness is monotone in tokens), or scales both rates of a
/// token-free channel by the same factor (consistency and the admissible
/// schedules are unchanged), so a third of the edits are timing-only.
std::vector<EditRequest> dse_script(std::mt19937& rng, Graph graph) {
    std::vector<EditRequest> script;
    for (int j = 0; j < kDseEdits; ++j) {
        EditRequest request;
        const sdf::ActorId actor = sdf::draw_below(rng, graph.actor_count());
        request.push_back(time_step(graph.actor(actor).name,
                                    graph.actor(actor).execution_time + 1 + pick(rng, 3)));
        EditStep step;
        if (j % 3 == 1) {
            step.kind = EditStep::Kind::initial_tokens;
            step.channel = pick_channel(rng, graph, has_tokens);
            step.value = graph.channel(step.channel).initial_tokens + 1;
            request.push_back(step);
        } else if (j % 3 == 2) {
            step.kind = EditStep::Kind::rates;
            step.channel = pick_channel(rng, graph, token_free_edge);
            const sdf::Channel& c = graph.channel(step.channel);
            const Int g = std::gcd(c.production, c.consumption);
            const Int factor = g == 1 ? 2 : 1;  // scale up, or back down
            step.production = c.production / g * factor;
            step.consumption = c.consumption / g * factor;
            request.push_back(step);
        }
        for (const EditStep& s : request) {
            apply_step(graph, s);
        }
        script.push_back(std::move(request));
    }
    return script;
}

Workload dse_edits(std::uint64_t seed) {
    std::mt19937 rng(static_cast<std::uint32_t>(seed));
    Workload workload;
    workload.name = "dse_edits";
    workload.requery_lag = 2;
    workload.fast_passes = 1;
    for (int i = 0; i < kDseGraphs; ++i) {
        const Graph graph = dse_graph(rng, i);
        Model model = generated(graph.name(), graph, "");
        model.script = dse_script(rng, graph);
        model.child_closed_forms.assign(model.script.size(), "");
        workload.models.push_back(std::move(model));
    }
    return workload;
}

}  // namespace

Graph parse_model(const std::string& text) {
    for (const char c : text) {
        if (c == '<') return sdf::read_xml_string(text);
        if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    }
    return sdf::read_text_string(text);
}

void apply_step(Graph& graph, const EditStep& step) {
    switch (step.kind) {
        case EditStep::Kind::execution_time:
            graph.set_execution_time(*graph.find_actor(step.actor), step.value);
            break;
        case EditStep::Kind::initial_tokens:
            graph.set_initial_tokens(step.channel, step.value);
            break;
        case EditStep::Kind::rates:
            graph.set_rates(step.channel, step.production, step.consumption);
            break;
    }
}

Workload paper_workload(const std::string& data_dir) {
    Workload workload;
    workload.name = "paper";
    workload.fast_passes = 12;
    for (const char* file : {"h263decoder", "h263encoder", "modem", "mp3dec_block",
                             "mp3dec_granule", "mp3playback", "samplerate", "satellite"}) {
        Model model;
        model.name = file;
        model.text = read_file(data_dir + "/" + file + ".xml");
        workload.models.push_back(std::move(model));
    }
    constexpr Int kFigure1 = 6;
    workload.models.push_back(generated("figure1_6", sdf::figure1_graph(kFigure1),
                                        std::to_string(5 * kFigure1 - 7)));
    constexpr Int kPrefetch = 1584;
    workload.models.push_back(generated("prefetch_1584", sdf::prefetch_graph(kPrefetch),
                                        std::to_string(10 * kPrefetch)));
    // A fixed script (first actor, middle actor, first actor again), so
    // the children's classical-HSDF periods can live in the reference table.
    for (Model& model : workload.models) {
        const Graph graph = parse_model(model.text);
        model.script = three_raises(graph, 0, graph.actor_count() / 2);
        model.child_closed_forms.assign(model.script.size(), "");
    }
    return workload;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& data_dir) {
    if (name == "paper") {
        // The paper's evaluation set is fixed; the seed only orders it.
        Workload workload = paper_workload(data_dir);
        std::mt19937 rng(static_cast<std::uint32_t>(seed));
        for (std::size_t i = workload.models.size(); i > 1; --i) {
            std::swap(workload.models[i - 1],
                      workload.models[sdf::draw_below(rng, i)]);
        }
        return workload;
    }
    if (name == "large_regular") return large_regular(seed);
    if (name == "dse_edits") return dse_edits(seed);
    throw std::invalid_argument("unknown workload \"" + name + "\"");
}

}  // namespace perfbench
