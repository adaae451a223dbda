// checks.hpp — the benchmark's output checkers.
//
// Each checker compares an answer against something computed another way
// (a closed form, the classical-HSDF route, the size bound of Section 6,
// the independent certificate checker, or the bytes of an earlier
// response) and returns "" when the answer holds, or a one-line reason.
// They run outside the timed regions; `perfbench --self-test` plants one
// wrong answer per checker and shows that each is rejected.
#pragma once

#include <string>

#include "base/rational.hpp"
#include "sdf/graph.hpp"
#include "serve/json.hpp"

namespace perfbench {

/// A period against its independently known value (closed form, reference
/// table or classical-HSDF route), compared as exact rationals.
std::string check_period(const std::string& what, const sdf::Rational& got,
                         const std::string& expected);

/// A cache hit must replay its miss bit for bit: the two response lines may
/// differ only in the "cache" member.
std::string check_hot(const std::string& miss_line, const std::string& hit_line);

/// A reduced HSDF of a graph with `tokens` initial tokens: at most
/// N(N+2) actors and N(2N+1) channels (Section 6), and a maximum cycle
/// ratio, computed on the HSDF itself, equal to the original period.
std::string check_reduced(const sdf::Graph& reduced, std::size_t tokens,
                          const sdf::Rational& period);

/// A serve `certify` result: the served per-channel bounds must be those of
/// a certificate that absint::verify_certificate accepts for `graph`.
std::string check_certificate(const sdf::Graph& graph, const std::string& certify_line);

/// A lint response on a consistent, live model carries no error.
std::string check_lint_clean(const std::string& lint_line);

/// A serve request line {"id","op","model"}.
std::string request_line(const std::string& id, const std::string& op,
                         const std::string& model);

/// Object member `key`; throws std::runtime_error when it is missing.
const sdf::serve::Json& member(const sdf::serve::Json& object, const std::string& key);

/// The "result" member of a response line, re-dumped (throws on a
/// malformed line).
std::string result_of(const std::string& response_line);

/// The period of a throughput "result" (throws when it has none).
sdf::Rational period_of(const std::string& response_line);

/// Runs every checker on one genuine and one planted wrong answer; prints a
/// line per case and returns true when each genuine answer passes and each
/// planted one is rejected.
bool self_test();

}  // namespace perfbench
