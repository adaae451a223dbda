#include "checks.hpp"

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <vector>

#include "absint/certificate.hpp"
#include "absint/token_intervals.hpp"
#include "analysis/throughput.hpp"
#include "gen/regular.hpp"
#include "gen/structured.hpp"
#include "io/text.hpp"
#include "maxplus/mcm.hpp"
#include "sdf/properties.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "transform/hsdf_reduced.hpp"

namespace perfbench {

using sdf::Graph;
using sdf::Int;
using sdf::Rational;
using sdf::serve::Json;

namespace {

Rational parse_rational(const std::string& text) {
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos) {
        return Rational(std::stoll(text));
    }
    return Rational(std::stoll(text.substr(0, slash)), std::stoll(text.substr(slash + 1)));
}

}  // namespace

std::string request_line(const std::string& id, const std::string& op,
                         const std::string& model) {
    Json line = Json::object();
    line.set("id", Json::string(id));
    line.set("op", Json::string(op));
    line.set("model", Json::string(model));
    return line.dump();
}

const Json& member(const Json& object, const std::string& key) {
    const Json* found = object.find(key);
    if (found == nullptr) {
        throw std::runtime_error("response has no \"" + key + "\" member");
    }
    return *found;
}

std::string result_of(const std::string& response_line) {
    return member(Json::parse(response_line), "result").dump();
}

Rational period_of(const std::string& response_line) {
    const Json result = Json::parse(result_of(response_line));
    return parse_rational(member(result, "period").as_string());
}

std::string check_period(const std::string& what, const Rational& got,
                         const std::string& expected) {
    if (got == parse_rational(expected)) {
        return "";
    }
    return what + ": period " + got.to_string() + ", expected " + expected;
}

std::string check_hot(const std::string& miss_line, const std::string& hit_line) {
    const std::string miss_tag = "\"cache\":\"miss\"";
    const std::size_t at = miss_line.find(miss_tag);
    if (at == std::string::npos) {
        return "the first response was not a cache miss";
    }
    std::string expected = miss_line;
    expected.replace(at, miss_tag.size(), "\"cache\":\"hit\"");
    if (hit_line != expected) {
        return "cache hit differs from its miss: " + hit_line.substr(0, 120);
    }
    return "";
}

std::string check_reduced(const Graph& reduced, std::size_t tokens,
                          const Rational& period) {
    const std::size_t n = tokens;
    if (reduced.actor_count() > n * (n + 2)) {
        return "reduced HSDF has " + std::to_string(reduced.actor_count()) +
               " actors, above N(N+2) = " + std::to_string(n * (n + 2));
    }
    if (reduced.channel_count() > n * (2 * n + 1)) {
        return "reduced HSDF has " + std::to_string(reduced.channel_count()) +
               " channels, above N(2N+1) = " + std::to_string(n * (2 * n + 1));
    }
    // The cycle ratio is checked, not recomputed: no cycle of the HSDF may
    // exceed the period and one must attain it (Bellman-Ford on the
    // reweighted dependency graph, exact in int64).
    const sdf::Digraph dependencies = sdf::dependency_digraph(reduced);
    if (sdf::has_zero_token_cycle(dependencies) ||
        sdf::has_positive_cycle(dependencies, period.num(), period.den())) {
        return "reduced HSDF has a cycle ratio above the period " + period.to_string();
    }
    if (!sdf::has_zero_cycle(dependencies, period.num(), period.den())) {
        return "no cycle of the reduced HSDF attains the period " + period.to_string();
    }
    return "";
}

std::string check_certificate(const Graph& graph, const std::string& certify_line) {
    const Json result = Json::parse(result_of(certify_line));
    if (!member(member(result, "certificate"), "verified").as_boolean()) {
        return "service reports an unverified certificate";
    }
    const auto intervals = sdf::absint::token_intervals(graph);
    const sdf::absint::CertifiedBounds proven =
        sdf::absint::certify_buffer_bounds(graph, intervals);
    const auto& served = member(result, "channels").items();
    if (served.size() != proven.certificates.size()) {
        return "certificate covers " + std::to_string(served.size()) + " of " +
               std::to_string(proven.certificates.size()) + " channels";
    }
    sdf::absint::CertifiedBounds claimed = proven;
    for (std::size_t c = 0; c < served.size(); ++c) {
        const Json& bound = member(served[c], "certified_bound");
        claimed.certificates[c].bound =
            bound.is_null() ? std::nullopt : std::optional<Int>(bound.as_integer());
    }
    const sdf::absint::CertificateCheck check =
        sdf::absint::verify_certificate(graph, claimed);
    if (!check.ok) {
        return "served bounds fail the certificate check: " + check.reason;
    }
    if (claimed != proven) {
        return "served bounds differ from the certified ones";
    }
    return "";
}

std::string check_lint_clean(const std::string& lint_line) {
    const Json result = Json::parse(result_of(lint_line));
    const Int errors = member(member(result, "summary"), "error").as_integer();
    return errors == 0 ? "" : "lint reports " + std::to_string(errors) + " error(s)";
}

bool self_test() {
    bool ok = true;
    const auto expect = [&ok](const char* what, const std::string& genuine,
                              const std::string& planted) {
        const bool pass = genuine.empty() && !planted.empty();
        ok = ok && pass;
        std::printf("%-12s genuine: %s | planted: %s -> %s\n", what,
                    genuine.empty() ? "accepted" : genuine.c_str(),
                    planted.empty() ? "ACCEPTED" : planted.c_str(), pass ? "ok" : "FAIL");
    };

    const auto line_for = [](const char* op, const Graph& graph) {
        return request_line("self-test", op, sdf::write_text_string(graph));
    };

    // Figure 1 (n = 6): period 5n - 7 = 23.
    const Graph figure1 = sdf::figure1_graph(6);
    const Rational period = sdf::throughput_symbolic(figure1).period;
    expect("period", check_period("figure1_6", period, "23"),
           check_period("figure1_6", period + Rational(1), "23"));

    // One byte flipped inside the hot response's result.
    sdf::serve::ServeCore core;
    const std::string line = line_for("throughput", figure1);
    const std::string miss = core.handle_line(line);
    const std::string hit = core.handle_line(line);
    std::string flipped = hit;
    flipped[flipped.find("\"period\":\"") + 10] ^= 0x01;
    expect("hot-replay", check_hot(miss, hit), check_hot(miss, flipped));

    // A reduced HSDF padded past N(N+2) actors (the padding keeps the
    // cycle ratio, so only the size bound can catch it).
    const Graph fork_join = sdf::fork_join_graph(4, 3);
    const std::size_t tokens = static_cast<std::size_t>(fork_join.total_initial_tokens());
    const Rational fj_period = sdf::throughput_symbolic(fork_join).period;
    const Graph reduced = sdf::to_hsdf_reduced(fork_join);
    Graph padded = reduced;
    for (std::size_t i = reduced.actor_count(); i <= tokens * (tokens + 2); ++i) {
        const sdf::ActorId pad = padded.add_actor("pad_" + std::to_string(i), 0);
        padded.add_channel(pad, pad, 1);
    }
    expect("reduced", check_reduced(reduced, tokens, fj_period),
           check_reduced(padded, tokens, fj_period));
    expect("reduced-mcr", check_reduced(reduced, tokens, fj_period),
           check_reduced(reduced, tokens, fj_period + Rational(1)));

    // A certified bound loosened by one token.
    const Graph ring = sdf::ring_graph(5, 2, 3);
    sdf::serve::ServeCore certify_core;
    const std::string certified = certify_core.handle_line(line_for("certify", ring));
    std::string loosened = certified;
    const std::string key = "\"certified_bound\":";
    const std::size_t at = loosened.find(key) + key.size();
    const std::size_t end = loosened.find_first_of(",}", at);
    const Int bound = std::stoll(loosened.substr(at, end - at));
    loosened.replace(at, end - at, std::to_string(bound + 1));
    expect("certificate", check_certificate(ring, certified),
           check_certificate(ring, loosened));

    // A ring without tokens deadlocks, which lint reports as an error.
    sdf::serve::ServeCore lint_core;
    const std::string clean = lint_core.handle_line(line_for("lint", ring));
    Graph deadlocked = sdf::ring_graph(5, 2);
    deadlocked.set_initial_tokens(deadlocked.channel_count() - 1, 0);
    const std::string broken = lint_core.handle_line(line_for("lint", deadlocked));
    expect("lint", check_lint_clean(clean), check_lint_clean(broken));
    return ok;
}

}  // namespace perfbench
