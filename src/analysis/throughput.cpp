#include "analysis/throughput.hpp"

#include <algorithm>

#include "analysis/incremental.hpp"
#include "base/errors.hpp"
#include "maxplus/mcm.hpp"
#include "maxplus/mcm_certificate.hpp"
#include "robust/budget.hpp"
#include "sdf/properties.hpp"
#include "sdf/repetition.hpp"
#include "sdf/schedule.hpp"
#include "sdf/simulate.hpp"
#include "transform/hsdf_classic.hpp"
#include "transform/symbolic.hpp"

namespace sdf {

namespace {

/// Turns a period λ into per-actor throughputs q(a)/λ.
ThroughputResult finite_result(const std::vector<Int>& repetition, const Rational& period) {
    ThroughputResult result;
    if (period.is_zero()) {
        result.outcome = ThroughputOutcome::unbounded;
        return result;
    }
    result.outcome = ThroughputOutcome::finite;
    result.period = period;
    result.per_actor.reserve(repetition.size());
    for (const Int q : repetition) {
        result.per_actor.push_back(Rational(q) / period);
    }
    return result;
}

ThroughputResult deadlocked_result(const Graph& graph) {
    ThroughputResult result;
    result.outcome = ThroughputOutcome::deadlocked;
    result.per_actor.assign(graph.actor_count(), Rational(0));
    return result;
}

/// λ (or its absence) → ThroughputResult.
ThroughputResult result_from_metric(const CycleMetric& metric,
                                    const std::vector<Int>& repetition) {
    if (metric.outcome != CycleOutcome::finite) {
        ThroughputResult result;
        result.outcome = ThroughputOutcome::unbounded;
        return result;
    }
    return finite_result(repetition, metric.value);
}

/// Past this many firings the slot keeps its answer without the per-firing
/// stamps (their memory grows with the schedule, not with the matrix).
constexpr std::size_t kMaxTracedFirings = std::size_t{1} << 17;

bool same_structure(const Graph& graph, const IncrementalSkeleton& skeleton) {
    if (graph.actor_count() != skeleton.actor_count ||
        graph.channel_count() != skeleton.channels.size()) {
        return false;
    }
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        const Channel& a = graph.channel(c);
        const Channel& b = skeleton.channels[c];
        if (a.src != b.src || a.dst != b.dst || a.production != b.production ||
            a.consumption != b.consumption || a.initial_tokens != b.initial_tokens) {
            return false;
        }
    }
    return true;
}

}  // namespace

IncrementalThroughput ThroughputAnalysis::compute(const Graph& graph) {
    IncrementalThroughput out;
    std::vector<ActorId> schedule;
    try {
        schedule = sequential_schedule(graph);
    } catch (const DeadlockError&) {
        out.result = deadlocked_result(graph);
        return out;
    }
    require_symbolic_token_limit(graph);

    const bool traced = schedule.size() <= kMaxTracedFirings;
    auto state = std::make_shared<IncrementalThroughputState>();
    SymbolicRun run =
        execute_symbolic(graph, schedule, traced ? &state->finish : nullptr);

    // The precedence graph, column-major straight from the final stamps:
    // entry (row, col) of the iteration matrix is the edge row → col.
    auto skeleton = std::make_shared<IncrementalSkeleton>();
    const std::size_t n = run.columns.size();
    Digraph precedence(n);
    skeleton->col_begin.reserve(n + 1);
    for (std::size_t col = 0; col < n; ++col) {
        skeleton->col_begin.push_back(precedence.edge_count());
        run.columns[col].for_each([&](std::size_t row, Int value) {
            precedence.add_edge(row, col, value, /*tokens=*/1);
        });
    }
    skeleton->col_begin.push_back(precedence.edge_count());
    state->certificate = max_cycle_mean_certified(precedence);
    out.result = result_from_metric(state->certificate.metric, repetition_vector(graph));
    if (traced) {
        skeleton->actor_count = graph.actor_count();
        skeleton->channels = graph.channels();
        skeleton->schedule = std::move(schedule);
        state->skeleton = std::move(skeleton);
        state->column = std::move(run.columns);
        out.state = std::move(state);
    }
    return out;
}

Refined<IncrementalThroughput> ThroughputAnalysis::refine(const Result& old,
                                                          const RefineContext& ctx) {
    using Out = Refined<Result>;
    if (old.result.outcome == ThroughputOutcome::deadlocked) {
        // Liveness is untimed: a pure timing edit cannot wake a deadlocked
        // graph (and the all-zero per-actor vector has no timed content).
        return ctx.log.timing_only() ? Out::keep() : Out::drop();
    }
    if (!ctx.log.timing_only() || !old.state ||
        !same_structure(ctx.graph, *old.state->skeleton)) {
        return Out::drop();
    }
    const IncrementalThroughputState& st = *old.state;
    const IncrementalSkeleton& sk = *st.skeleton;
    const Graph& graph = ctx.graph;

    std::vector<char> touched(graph.actor_count(), 0);
    for (const MutationEvent& e : ctx.log.events()) {
        if (e.kind == MutationKind::execution_time) {
            touched[e.id] = 1;
        }
    }

    // Replay the traced execution, reusing clean finish stamps.
    auto state = std::make_shared<IncrementalThroughputState>();
    const SymbolicReplay replay{st.finish, touched};
    SymbolicRun run = execute_symbolic(graph, sk.schedule, &state->finish, &replay);

    // Diff the recomputed columns into precedence-edge weight deltas.
    // Stamp supports are unions of consumed supports, so a timing edit
    // cannot move them: entry i of column col is edge col_begin[col] + i in
    // both generations.
    std::vector<EdgeWeightDelta> deltas;
    for (std::size_t col = 0; col < run.columns.size(); ++col) {
        if (run.dirty[col] == 0) {
            continue;
        }
        if (run.columns[col].support() != sk.col_begin[col + 1] - sk.col_begin[col]) {
            throw Error("internal: a timing edit moved a stamp support");
        }
        std::size_t edge = sk.col_begin[col];
        run.columns[col].for_each([&](std::size_t, Int value) {
            deltas.push_back(EdgeWeightDelta{edge++, value});
        });
    }

    // Certificate re-check; Karp only on SCCs whose witnesses broke.
    std::size_t rescored = 0;
    state->certificate = refine_cycle_mean(st.certificate, deltas, &rescored);
    state->skeleton = st.skeleton;
    state->column = std::move(run.columns);

    Result next;
    next.refines = old.refines + 1;
    next.rescored_sccs = old.rescored_sccs + rescored;
    const CycleMetric& metric = state->certificate.metric;
    if (metric.outcome == CycleOutcome::finite &&
        old.result.outcome == ThroughputOutcome::finite &&
        old.result.period == metric.value) {
        next.result = old.result;  // λ unchanged: per-actor rates carry over
    } else {
        const auto reps = ctx.target.cached<RepetitionVectorAnalysis>();
        next.result = result_from_metric(
            metric, reps ? *reps : RepetitionVectorAnalysis::compute(graph));
    }
    next.state = std::move(state);
    return Out::make(std::move(next));
}

std::shared_ptr<const IncrementalThroughput> warm_throughput(const Graph& graph) {
    return graph.analyses()->get<ThroughputAnalysis>(graph);
}

std::shared_ptr<const ThroughputResult> cached_throughput(const Graph& graph) {
    auto slot = warm_throughput(graph);
    return {slot, &slot->result};
}

ThroughputResult throughput_symbolic(const Graph& graph) {
    SymbolicIteration iteration;
    try {
        iteration = symbolic_iteration(graph);
    } catch (const DeadlockError&) {
        return deadlocked_result(graph);
    }
    return result_from_metric(max_cycle_mean_karp(iteration.matrix.precedence_graph()),
                              repetition_vector(graph));
}

ThroughputResult throughput_via_classic_hsdf(const Graph& graph) {
    const ClassicHsdf hsdf = to_hsdf_classic(graph);
    const Digraph digraph = dependency_digraph(hsdf.graph);
    const CycleMetric metric = max_cycle_ratio_exact(digraph);
    switch (metric.outcome) {
        case CycleOutcome::no_cycle: {
            ThroughputResult result;
            result.outcome = ThroughputOutcome::unbounded;
            return result;
        }
        case CycleOutcome::infinite:
            // A zero-token cycle in the HSDF is exactly a deadlock of the
            // original graph.
            return deadlocked_result(graph);
        case CycleOutcome::finite:
            return finite_result(repetition_vector(graph), metric.value);
    }
    throw Error("unreachable");
}

ThroughputResult throughput_simulation(const Graph& graph, std::size_t max_events) {
    // Under a step budget the event cap derives from it: firing more events
    // than the remaining step allowance could only end in a checkpoint trip
    // anyway, and the derived cap reports the same typed BudgetExceeded a
    // few states earlier (before the recurrent-state map grows further).
    if (const Governor* governor = current_governor()) {
        if (const auto budget_steps = governor->budget().max_steps) {
            max_events = std::min(max_events, static_cast<std::size_t>(*budget_steps));
        }
    }
    const ThroughputRun run = simulate_throughput(graph, max_events);
    if (run.deadlocked) {
        return deadlocked_result(graph);
    }
    const std::vector<Int> repetition = repetition_vector(graph);
    // An actor with zero firings in the recurrent window is permanently
    // starved: self-timed execution is deterministic, so whatever did not
    // happen within one period never happens.  Other components may keep
    // spinning, but no complete iteration ever finishes — a deadlock in
    // the iteration semantics that routes 1 and 2 report.
    for (ActorId a = 0; a < graph.actor_count(); ++a) {
        if (run.period_firings[a] == 0) {
            return deadlocked_result(graph);
        }
    }
    // Recover λ per actor as q(a) · period_time / period_firings(a) and
    // take the maximum: components that are not rate-coupled to the
    // critical cycle fire faster than q(a)/λ under self-timed execution,
    // so only the slowest (= critical) component witnesses the global
    // iteration period.
    Rational period(0);
    for (ActorId a = 0; a < graph.actor_count(); ++a) {
        const Rational candidate =
            Rational(repetition[a]) * Rational(run.period_time, run.period_firings[a]);
        period = std::max(period, candidate);
    }
    return finite_result(repetition, period);
}

Rational iteration_period(const Graph& graph) {
    const ThroughputResult result = throughput_symbolic(graph);
    if (!result.is_finite()) {
        throw Error("graph '" + graph.name() + "' has no finite iteration period");
    }
    return result.period;
}

SelfTimedThroughput throughput_self_timed(const Graph& graph) {
    SelfTimedThroughput result;
    if (!is_deadlock_free(graph)) {
        result.deadlocked = true;
        result.per_actor.assign(graph.actor_count(), Rational(0));
        return result;
    }
    result.per_actor.assign(graph.actor_count(), std::nullopt);

    // Condensation of the dependency digraph; components come out of
    // Tarjan in reverse topological order, so iterating component index
    // DESCENDING processes sources first.
    const Digraph deps = dependency_digraph(graph);
    std::size_t component_count = 0;
    const auto component = deps.strongly_connected_components(&component_count);

    // Per-component actor lists.
    std::vector<std::vector<ActorId>> members(component_count);
    for (ActorId a = 0; a < graph.actor_count(); ++a) {
        members[component[a]].push_back(a);
    }

    // x[c] is the component's cycle rate multiplier: actor a in c fires at
    // x[c] * q_c(a) where q_c is the component-local repetition vector.
    std::vector<std::optional<Rational>> multiplier(component_count, std::nullopt);
    std::vector<std::vector<Int>> local_q(component_count);

    for (std::size_t c = component_count; c-- > 0;) {
        // Build the component subgraph (internal channels only).
        Graph sub("scc");
        std::vector<std::size_t> local_index(graph.actor_count(), 0);
        for (const ActorId a : members[c]) {
            local_index[a] = sub.add_actor(graph.actor(a).name,
                                           graph.actor(a).execution_time);
        }
        for (const Channel& ch : graph.channels()) {
            if (component[ch.src] == c && component[ch.dst] == c) {
                sub.add_channel(local_index[ch.src], local_index[ch.dst],
                                ch.production, ch.consumption, ch.initial_tokens);
            }
        }
        local_q[c] = repetition_vector(sub);

        // Own eigenrate: x <= 1/lambda_local (per local iteration).
        std::optional<Rational> x;
        const ThroughputResult own = throughput_symbolic(sub);
        if (own.outcome == ThroughputOutcome::deadlocked) {
            throw Error("internal: live graph has a deadlocked component");
        }
        if (own.is_finite()) {
            x = own.period.reciprocal();
        }
        // Upstream constraints: for a channel src -> dst entering the
        // component, rate(dst) * c <= rate(src) * p, i.e.
        // x * q_c(dst) * c <= rate(src) * p.
        for (const Channel& ch : graph.channels()) {
            if (component[ch.dst] != c || component[ch.src] == c) {
                continue;
            }
            const std::optional<Rational>& upstream = result.per_actor[ch.src];
            if (!upstream) {
                continue;  // unbounded upstream imposes nothing
            }
            const Rational bound =
                *upstream * Rational(ch.production) /
                (Rational(local_q[c][local_index[ch.dst]]) * Rational(ch.consumption));
            if (!x || bound < *x) {
                x = bound;
            }
        }
        multiplier[c] = x;
        for (const ActorId a : members[c]) {
            if (x) {
                result.per_actor[a] = *x * Rational(local_q[c][local_index[a]]);
            }
        }
    }
    return result;
}

}  // namespace sdf
