// harness.cpp — the sdfred benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --data DIR --reference FILE
//   perfbench --self-test
//   perfbench --regen-reference FILE --data DIR
//
// Single-threaded.  After a set-up phase (models read or generated, request
// lines built, one untimed warm-up round whose outputs become the
// reference), the program runs whole rounds until S seconds have passed.
// A round interleaves every operation of the workload: `fast_passes`
// passes of {cold throughput_symbolic, cold to_hsdf_reduced, one fresh
// ServeCore session of cold/hot/edit requests} over all models, then one
// fresh-core lint session and one fresh-core certify session.  Every cold
// operation starts from a freshly parsed graph (graph copies share their
// AnalysisManager, which caches the repetition vector and the schedule),
// and every session uses a fresh ServeCore (identical lines would hit the
// raw-text memo and the result cache).
//
// A metric's sample is the time of one pass (or round) over the whole model
// set; the reported value is the 10th percentile of its samples, because on
// a shared host slow phases only ever add time.  --trace 0 prints the
// end-to-end metrics; --trace 1 times the public functions under them on
// the same inputs and prints the per-layer metrics.  Outputs are checked
// against the warm-up round every round, and the warm-up round's outputs
// against independent computations once the timed rounds are over; the
// last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "absint/certificate.hpp"
#include "absint/reachability.hpp"
#include "absint/token_intervals.hpp"
#include "analysis/incremental.hpp"
#include "analysis/throughput.hpp"
#include "base/cpudispatch.hpp"
#include "base/thread_pool.hpp"
#include "checks.hpp"
#include "io/text.hpp"
#include "lint/lint.hpp"
#include "maxplus/mcm.hpp"
#include "sdf/repetition.hpp"
#include "sdf/schedule.hpp"
#include "serve/graph_store.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "transform/hsdf_reduced.hpp"
#include "transform/symbolic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using sdf::Graph;
using sdf::Int;
using sdf::Rational;
using sdf::serve::Json;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// The reported statistic: the 10th percentile, linearly interpolated
/// between order statistics (numpy's default method).
double p10(std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    const double position = 0.1 * static_cast<double>(samples.size() - 1);
    const auto below = static_cast<std::size_t>(position);
    const std::size_t above = std::min(below + 1, samples.size() - 1);
    return samples[below] + (position - static_cast<double>(below)) *
                                (samples[above] - samples[below]);
}

/// What the warm-up round produced for one model; every later round must
/// reproduce it, and the final checks hold it against independent answers.
struct Reference {
    Rational period;
    std::size_t tokens = 0;
    std::size_t reduced_actors = 0;
    std::size_t reduced_channels = 0;
    std::string cold_line, cold_response;
    std::vector<std::string> edit_lines, edit_responses;
    std::vector<std::string> requery_lines, requery_responses;
    std::string lint_line, lint_response;
    std::string certify_line, certify_response;
};

class Bench {
public:
    Bench(Workload workload, std::map<std::string, std::string> table)
        : w_(std::move(workload)), table_(std::move(table)), refs_(w_.models.size()) {
        for (std::size_t m = 0; m < w_.models.size(); ++m) {
            const Model& model = w_.models[m];
            refs_[m].cold_line = request_line(model.name, "throughput", model.text);
            refs_[m].lint_line = request_line(model.name, "lint", model.text);
            refs_[m].certify_line = request_line(model.name, "certify", model.text);
        }
    }

    /// The untimed warm-up round: runs every operation once and records its
    /// outputs (and the edit and re-query lines, which name child ids taken
    /// from the responses).
    void warm_up() {
        warming_ = true;
        end_to_end_round();
        warming_ = false;
        samples_.clear();
        attempted_ = 0;
    }

    void round(bool trace) { trace ? traced_round() : end_to_end_round(); }

    /// Holds the warm-up outputs against independent computations.
    void final_checks();

    void print_result(bool trace, double setup_s, double peak_rss_mb) const;

private:
    // ---- bookkeeping ---------------------------------------------------
    void fail(const std::string& what) {
        if (correct_) std::cerr << "perfbench: check failed: " << what << "\n";
        correct_ = false;
    }

    /// Compares `got` with the warm-up output in `slot`, or records it.
    void expect_same(std::string& slot, const std::string& got, const std::string& what) {
        if (warming_) {
            slot = got;
        } else if (got != slot) {
            fail(what + " differs from the warm-up round");
        }
    }

    template <class F>
    void timed(double& sink, F&& body) {
        ++attempted_;
        const Clock::time_point start = Clock::now();
        body();
        sink += ms_since(start);
    }

    std::string serve(sdf::serve::ServeCore& core, const std::string& line, double& sink) {
        std::string response;
        timed(sink, [&] { response = core.handle_line(line); });
        if (response.find("\"ok\":true") == std::string::npos) {
            ++failed_;
            std::cerr << "perfbench: request failed: " << response.substr(0, 200) << "\n";
        }
        return response;
    }

    void add(const std::string& metric, double value) { samples_[metric].push_back(value); }

    // ---- the serve session shared by both modes -------------------------
    struct SessionTimes {
        double cold = 0, hot = 0, edit = 0;
    };
    SessionTimes serve_session();

    // ---- rounds ----------------------------------------------------------
    void end_to_end_round();
    void traced_round();

    Workload w_;
    std::map<std::string, std::string> table_;  ///< "model#child" -> period
    std::vector<Reference> refs_;
    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, double> counts_;
    bool warming_ = false;
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

Bench::SessionTimes Bench::serve_session() {
    SessionTimes t;
    sdf::serve::ServeCore core;
    std::uint64_t resubmissions = 0;
    for (std::size_t m = 0; m < w_.models.size(); ++m) {
        const Model& model = w_.models[m];
        Reference& ref = refs_[m];
        const std::string cold = serve(core, ref.cold_line, t.cold);
        expect_same(ref.cold_response, cold, model.name + " cold response");
        const std::string hot = serve(core, ref.cold_line, t.hot);
        ++resubmissions;
        if (const std::string bad = check_hot(cold, hot); !bad.empty()) {
            fail(model.name + ": " + bad);
        }

        for (std::size_t j = 0; j < model.script.size(); ++j) {
            if (warming_) {
                Json line = Json::object();
                line.set("id", Json::string(model.name + "/edit" + std::to_string(j)));
                line.set("op", Json::string("edit"));
                if (j == 0) {
                    line.set("model", Json::string(model.text));
                } else {
                    const Json previous = Json::parse(ref.edit_responses.back());
                    line.set("parent", member(member(previous, "result"), "graph"));
                }
                line.set("edits", sdf::serve::edits_json(model.script[j]));
                line.set("then", Json::string("throughput"));
                ref.edit_lines.push_back(line.dump());
                ref.edit_responses.emplace_back();
            }
            const std::string edited = serve(core, ref.edit_lines[j], t.edit);
            expect_same(ref.edit_responses[j], edited,
                        model.name + " edit " + std::to_string(j));
            if (w_.requery_lag == 0 || j < w_.requery_lag) continue;

            // Query an earlier child again by its canonical text: still
            // resident (fewer than 64 graphs interned since), so a hit.
            const std::size_t q = j - w_.requery_lag;
            if (warming_) {
                const Json child = Json::parse(ref.edit_responses[q]);
                ref.requery_lines.push_back(request_line(
                    model.name + "/requery" + std::to_string(q), "throughput",
                    member(member(child, "result"), "model").as_string()));
                ref.requery_responses.emplace_back();
            }
            const std::string again = serve(core, ref.requery_lines[q], t.hot);
            ++resubmissions;
            expect_same(ref.requery_responses[q], again, model.name + " re-query");
        }
    }

    // The store's hit count must equal the resubmissions sent to resident
    // graphs: every cold, edit and `then` lookup is for a graph the session
    // has not seen.
    const Json response = Json::parse(core.handle_line(R"({"op":"stats"})"));
    const Json& stats = member(response, "result");
    const Json& cache = member(stats, "cache");
    const auto hits = static_cast<std::uint64_t>(member(cache, "result_hits").as_integer());
    if (hits != resubmissions) {
        fail("store.hits " + std::to_string(hits) + " != " + std::to_string(resubmissions) +
             " resubmissions");
    }
    const auto count = [](const Json& object, const char* key) {
        return static_cast<double>(member(object, key).as_integer());
    };
    counts_["store.hits"] = count(cache, "result_hits");
    counts_["store.misses"] = count(cache, "result_misses");
    counts_["store.evictions"] = count(cache, "graph_evictions");
    counts_["delta.kept"] = count(member(stats, "delta"), "kept");
    counts_["delta.refined"] = count(member(stats, "delta"), "refined");
    return t;
}

void Bench::end_to_end_round() {
    for (int pass = 0; pass < w_.fast_passes; ++pass) {
        double solve = 0, reduce = 0;
        for (std::size_t m = 0; m < w_.models.size(); ++m) {
            const Model& model = w_.models[m];
            Reference& ref = refs_[m];
            Graph graph = parse_model(model.text);
            sdf::ThroughputResult result;
            timed(solve, [&] { result = sdf::throughput_symbolic(graph); });
            if (warming_) {
                ref.period = result.period;
                ref.tokens = static_cast<std::size_t>(graph.total_initial_tokens());
            } else if (!result.is_finite() || result.period != ref.period) {
                fail(model.name + " period changed");
            }

            Graph fresh = parse_model(model.text);
            Graph reduced;
            timed(reduce, [&] { reduced = sdf::to_hsdf_reduced(fresh); });
            if (warming_) {
                ref.reduced_actors = reduced.actor_count();
                ref.reduced_channels = reduced.channel_count();
            } else if (reduced.actor_count() != ref.reduced_actors ||
                       reduced.channel_count() != ref.reduced_channels) {
                fail(model.name + " reduced HSDF size changed");
            }
        }
        const SessionTimes session = serve_session();
        add("solve_ms", solve);
        add("reduce_ms", reduce);
        add("cold_request_ms", session.cold);
        add("hot_request_ms", session.hot);
        add("edit_request_ms", session.edit);
        if (warming_) break;
    }

    double lint = 0, certify = 0;
    sdf::serve::ServeCore lint_core;
    for (std::size_t m = 0; m < w_.models.size(); ++m) {
        expect_same(refs_[m].lint_response, serve(lint_core, refs_[m].lint_line, lint),
                    w_.models[m].name + " lint response");
    }
    sdf::serve::ServeCore certify_core;
    for (std::size_t m = 0; m < w_.models.size(); ++m) {
        expect_same(refs_[m].certify_response,
                    serve(certify_core, refs_[m].certify_line, certify),
                    w_.models[m].name + " certify response");
    }
    add("lint_request_ms", lint);
    add("certify_request_ms", certify);
}

void Bench::traced_round() {
    for (int pass = 0; pass < w_.fast_passes; ++pass) {
        std::map<std::string, double> t;
        double firings = 0, tokens = 0, finite = 0, edges = 0, sccs = 0;
        double request_bytes = 0, response_bytes = 0;
        for (std::size_t m = 0; m < w_.models.size(); ++m) {
            const Model& model = w_.models[m];
            const Reference& ref = refs_[m];

            // The throughput phases, in the order throughput_symbolic runs
            // them, on one fresh graph (the schedule and the repetition
            // vector are cached on the graph, so later phases reuse them).
            Graph graph;
            timed(t["io.parse_ms"], [&] { graph = parse_model(model.text); });
            timed(t["io.canonical_write_ms"], [&] { (void)sdf::write_text_string(graph); });
            std::vector<Int> q;
            timed(t["sdf.repetition_ms"], [&] { q = sdf::repetition_vector(graph); });
            timed(t["sdf.schedule_ms"], [&] { (void)sdf::sequential_schedule(graph); });
            sdf::SymbolicIteration iteration;
            timed(t["symbolic.iteration_ms"],
                  [&] { iteration = sdf::symbolic_iteration(graph); });
            sdf::Digraph precedence(0);
            timed(t["maxplus.precedence_ms"],
                  [&] { precedence = iteration.matrix.precedence_graph(); });
            sdf::CycleMetric metric;
            timed(t["maxplus.mcm_ms"],
                  [&] { metric = sdf::max_cycle_mean_karp(precedence); });
            if (metric.value != ref.period) fail(model.name + " traced period differs");
            timed(t["hsdf_reduced.build_ms"], [&] {
                (void)sdf::reduced_hsdf_from_matrix(iteration.matrix, model.name);
            });
            for (const Int x : q) firings += static_cast<double>(x);
            tokens += static_cast<double>(iteration.tokens.size());
            finite += static_cast<double>(iteration.matrix.finite_entry_count());
            edges += static_cast<double>(precedence.edge_count());
            std::size_t components = 0;
            (void)precedence.strongly_connected_components(&components);
            sccs += static_cast<double>(components);

            // The whole cold solve on another fresh graph, for the phase-sum
            // comparison.
            Graph fresh = parse_model(model.text);
            timed(t["trace.solve_ms"], [&] { (void)sdf::throughput_symbolic(fresh); });

            // Wire format and store.
            timed(t["json.parse_ms"], [&] { (void)Json::parse(ref.cold_line); });
            const Json response = Json::parse(ref.cold_response);
            timed(t["json.dump_ms"], [&] { (void)response.dump(); });
            request_bytes += static_cast<double>(ref.cold_line.size());
            response_bytes += static_cast<double>(ref.cold_response.size());
            sdf::serve::GraphStore store;
            timed(t["store.intern_ms"], [&] { (void)store.intern_text(model.text); });

            // Incremental layer: prime a parent that was just solved cold,
            // then refine through the edit script.
            Graph parent = parse_model(model.text);
            (void)sdf::cached_throughput(parent);
            timed(t["incremental.prime_ms"], [&] { (void)sdf::warm_throughput(parent); });
            Graph child = parent;
            for (const EditRequest& request : model.script) {
                timed(t["incremental.refine_ms"], [&] {
                    for (const auto& step : request) apply_step(child, step);
                    (void)sdf::cached_throughput(child);
                });
            }
        }
        const SessionTimes session = serve_session();
        t["service.cold_request_ms"] = session.cold;
        for (const auto& [name, value] : t) add(name, value);
        counts_["sdf.firings"] = firings;
        counts_["symbolic.tokens"] = tokens;
        counts_["symbolic.matrix_finite"] = finite;
        counts_["maxplus.precedence_edges"] = edges;
        counts_["maxplus.sccs"] = sccs;
        counts_["json.request_bytes"] = request_bytes;
        counts_["json.response_bytes"] = response_bytes;
    }

    double lint = 0, intervals = 0, certify = 0;
    for (const Model& model : w_.models) {
        const Graph graph = parse_model(model.text);
        timed(lint, [&] { (void)sdf::lint_graph(graph); });
    }
    for (const Model& model : w_.models) {
        const Graph graph = parse_model(model.text);
        sdf::absint::TokenIntervals ti;
        timed(intervals, [&] { ti = sdf::absint::token_intervals(graph); });
        timed(certify, [&] {
            (void)sdf::absint::compute_reachability(graph);
            const auto bounds = sdf::absint::certify_buffer_bounds(graph, ti);
            if (!sdf::absint::verify_certificate(graph, bounds).ok) {
                fail(model.name + " certificate rejected");
            }
        });
    }
    add("lint.run_ms", lint);
    add("absint.intervals_ms", intervals);
    add("absint.certify_ms", certify);
}

void Bench::final_checks() {
    for (std::size_t m = 0; m < w_.models.size(); ++m) {
        const Model& model = w_.models[m];
        const Reference& ref = refs_[m];
        const auto check = [&](const std::string& problem) {
            if (!problem.empty()) fail(model.name + ": " + problem);
        };
        // The independent period of the model (c = 0) or of child c: the
        // closed form where the family has one, and the classical-HSDF
        // route, read from the reference table when it is too slow to rerun.
        const auto independent = [&](std::size_t c, const std::string& text,
                                     const Rational& got) {
            const std::string what = model.name + "#" + std::to_string(c);
            const std::string& closed =
                c == 0 ? model.closed_form : model.child_closed_forms[c - 1];
            if (!closed.empty()) check(check_period(what + " closed form", got, closed));
            if (const auto row = table_.find(what); row != table_.end()) {
                check(check_period(what + " reference table", got, row->second));
            } else if (w_.name == "paper") {
                fail(what + " has no reference period; regenerate the table");
            } else {
                const sdf::ThroughputResult classic =
                    sdf::throughput_via_classic_hsdf(parse_model(text));
                check(check_period(what + " classical HSDF", got,
                                   classic.period.to_string()));
            }
        };
        independent(0, model.text, ref.period);
        check(check_period("served period", period_of(ref.cold_response),
                           ref.period.to_string()));
        check(check_reduced(sdf::to_hsdf_reduced(parse_model(model.text)), ref.tokens,
                            ref.period));
        check(check_certificate(parse_model(model.text), ref.certify_response));
        check(check_lint_clean(ref.lint_response));

        for (std::size_t j = 0; j < ref.edit_responses.size(); ++j) {
            const Json result = member(Json::parse(ref.edit_responses[j]), "result");
            const std::string child = member(result, "model").as_string();
            const std::string then = member(member(result, "then"), "result").dump();
            sdf::serve::ServeCore fresh;
            const std::string solved =
                fresh.handle_line(request_line("check", "throughput", child));
            if (result_of(solved) != then) {
                fail(model.name + " edit " + std::to_string(j) +
                     ": then result differs from a fresh solve");
            }
            independent(j + 1, child, period_of(solved));
        }
    }
}

void Bench::print_result(bool trace, double setup_s, double peak_rss_mb) const {
    std::ostringstream metrics;
    metrics.precision(10);
    bool first = true;
    const auto emit = [&](const std::string& name, double value, const char* unit) {
        metrics << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << value
                << ", \"unit\": \"" << unit << "\"}";
        first = false;
    };
    const auto stat = [&](const std::string& name) { return p10(samples_.at(name)); };
    if (!trace) {
        std::size_t actors = 0, channels = 0;
        for (const Reference& ref : refs_) {
            actors += ref.reduced_actors;
            channels += ref.reduced_channels;
        }
        emit("setup_s", setup_s, "s");
        for (const char* name : {"solve_ms", "reduce_ms"}) emit(name, stat(name), "ms");
        emit("reduced_actors", static_cast<double>(actors), "count");
        emit("reduced_channels", static_cast<double>(channels), "count");
        for (const char* name : {"cold_request_ms", "hot_request_ms", "edit_request_ms",
                                 "lint_request_ms", "certify_request_ms"}) {
            emit(name, stat(name), "ms");
        }
        emit("peak_rss_mb", peak_rss_mb, "MB");
    } else {
        double phases = 0;
        for (const auto& [name, values] : samples_) {
            if (name == "service.cold_request_ms") continue;
            emit(name, p10(values), "ms");
        }
        for (const char* name : {"sdf.repetition_ms", "sdf.schedule_ms",
                                 "symbolic.iteration_ms", "maxplus.precedence_ms",
                                 "maxplus.mcm_ms"}) {
            phases += stat(name);
        }
        emit("trace.phase_sum_ms", phases, "ms");
        emit("service.cold_overhead_ms",
             stat("service.cold_request_ms") - stat("io.parse_ms") - stat("trace.solve_ms"),
             "ms");
        for (const auto& [name, value] : counts_) {
            emit(name, value, name.find("bytes") != std::string::npos ? "bytes" : "count");
        }
    }
    std::cout << "{\"correct\": " << (correct_ ? "true" : "false")
              << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
              << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
}

std::map<std::string, std::string> read_table(const std::string& path) {
    std::map<std::string, std::string> table;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        std::string model, child, period;
        fields >> model >> child >> period;
        table[model + "#" + child] = period;
    }
    return table;
}

/// Rebuilds the paper workload's reference periods with the classical-HSDF
/// route (about 90 s, most of it on mp3 playback; never part of a run).
int regen_reference(const std::string& path, const std::string& data_dir) {
    const Workload workload = paper_workload(data_dir);
    std::ostringstream out;
    out << "# Periods of the paper workload's models (child 0) and of the children of\n"
           "# its edit script, computed by throughput_via_classic_hsdf (classical\n"
           "# HSDF expansion + exact maximum cycle ratio).  Regenerate with\n"
           "#   python3 perfbench/run.py --regen-reference\n"
           "# model\tchild\tperiod\n";
    for (const Model& model : workload.models) {
        Graph graph = parse_model(model.text);
        for (std::size_t c = 0; c <= model.script.size(); ++c) {
            if (c > 0) {
                for (const auto& step : model.script[c - 1]) apply_step(graph, step);
            }
            const Clock::time_point start = Clock::now();
            const sdf::ThroughputResult classic = sdf::throughput_via_classic_hsdf(
                sdf::read_text_string(sdf::write_text_string(graph)));
            if (!classic.is_finite()) {
                throw std::runtime_error(model.name + ": no finite period");
            }
            out << model.name << '\t' << c << '\t' << classic.period.to_string() << '\n';
            std::cerr << model.name << "#" << c << " " << classic.period.to_string() << " ("
                      << ms_since(start) / 1000.0 << " s)\n";
        }
    }
    std::ofstream file(path);
    file << out.str();
    return file ? 0 : 1;
}

int run(int argc, char** argv) {
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--self-test") return self_test() ? 0 : 1;
        if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
            throw std::invalid_argument("bad argument \"" + key + "\"");
        }
        args[key.substr(2)] = argv[++i];
    }
    const auto arg = [&args](const char* key) {
        const auto it = args.find(key);
        if (it == args.end()) throw std::invalid_argument(std::string("missing --") + key);
        return it->second;
    };
    if (args.count("regen-reference")) {
        return regen_reference(arg("regen-reference"), arg("data"));
    }

    const bool trace = arg("trace") == "1";
    const double seconds = std::stod(arg("seconds"));
    Bench bench(make_workload(arg("workload"), std::stoull(arg("seed")), arg("data")),
                read_table(arg("reference")));
    bench.warm_up();
    const double setup_s = ms_since(g_process_start) / 1000.0;

    const Clock::time_point start = Clock::now();
    int rounds = 0;
    while (rounds < 2 || ms_since(start) < seconds * 1000.0) {
        bench.round(trace);
        ++rounds;
    }
    std::cerr << "perfbench: " << rounds << " rounds in " << ms_since(start) / 1000.0
              << " s, isa " << sdf::isa_tier_name(sdf::active_isa_tier()) << ", "
              << sdf::global_thread_pool().size() << " pool lane(s)\n";
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    bench.final_checks();
    bench.print_result(trace, setup_s, peak_rss_mb);
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
