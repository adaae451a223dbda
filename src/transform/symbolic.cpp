#include "transform/symbolic.hpp"

#include <deque>

#include "base/errors.hpp"
#include "maxplus/stamp.hpp"
#include "robust/budget.hpp"
#include "sdf/schedule.hpp"

namespace sdf {

namespace {

/// One token in flight: its stamp, and whether a replay recomputed it.
struct Token {
    MpStamp stamp;
    bool dirty = false;
};

}  // namespace

void require_symbolic_token_limit(const Graph& graph) {
    // The iteration matrix is dense n×n over the n initial tokens.  Refuse
    // up front when it could not possibly be materialised — e.g. the
    // bundled overflow stress model carries ~1e12 tokens, which would churn
    // through per-token fifo allocations for minutes before dying on a
    // multi-terabyte matrix.  16384² entries is a 4 GiB matrix, already far
    // past every practical model (lint rule SDF009 warns much earlier).
    constexpr Int kMaxSymbolicTokens = 16384;
    const Int token_count = graph.total_initial_tokens();
    if (token_count > kMaxSymbolicTokens) {
        throw ResourceLimitError(
            "symbolic iteration needs a dense " + std::to_string(token_count) +
                    "^2 max-plus matrix over the initial tokens; refusing above " +
                    std::to_string(kMaxSymbolicTokens) +
                    " tokens (model large token counts as scaled rates instead)");
    }
}

// Stamps are shared immutable (index, value) supports: consuming merges
// supports in O(support), producing pushes refcounted handles.
SymbolicRun execute_symbolic(const Graph& graph, const std::vector<ActorId>& schedule,
                             std::vector<MpStamp>* finish, const SymbolicReplay* replay) {
    std::vector<std::deque<Token>> fifo(graph.channel_count());
    std::vector<std::vector<ChannelId>> inputs(graph.actor_count());
    std::vector<std::vector<ChannelId>> outputs(graph.actor_count());
    std::size_t n = 0;
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        const Channel& ch = graph.channel(c);
        inputs[ch.dst].push_back(c);
        outputs[ch.src].push_back(c);
        for (Int i = 0; i < ch.initial_tokens; ++i) {
            fifo[c].push_back(Token{MpStamp::unit(n++), false});
        }
    }
    if (finish != nullptr) {
        finish->reserve(finish->size() + schedule.size());
    }
    std::vector<MpStamp> consumed;  // reused across firings
    for (std::size_t f = 0; f < schedule.size(); ++f) {
        SDFRED_CHECKPOINT();
        const ActorId a = schedule[f];
        bool dirty = replay == nullptr || replay->touched[a] != 0;
        consumed.clear();
        for (const ChannelId ci : inputs[a]) {
            const Int need = graph.channel(ci).consumption;
            for (Int i = 0; i < need; ++i) {
                if (fifo[ci].empty()) {
                    throw Error("internal: admissible schedule underflowed a channel");
                }
                dirty = dirty || fifo[ci].front().dirty;
                consumed.push_back(std::move(fifo[ci].front().stamp));
                fifo[ci].pop_front();
            }
        }
        MpStamp stamp;
        if (!dirty) {
            stamp = replay->previous[f];  // untouched cone: the old handle is exact
        } else {
            // One batched k-way merge per firing instead of k pairwise merges.
            stamp = MpStamp::max_of(consumed).plus(graph.actor(a).execution_time);
            if (replay != nullptr && stamp == replay->previous[f]) {
                dirty = false;  // edit absorbed (e.g. not on the critical input)
            }
        }
        for (const ChannelId ci : outputs[a]) {
            for (Int i = 0; i < graph.channel(ci).production; ++i) {
                fifo[ci].push_back(Token{stamp, dirty});
            }
        }
        if (finish != nullptr) {
            finish->push_back(std::move(stamp));
        }
    }
    SymbolicRun run;
    run.columns.reserve(n);
    run.dirty.reserve(n);
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        if (static_cast<Int>(fifo[c].size()) != graph.channel(c).initial_tokens) {
            throw Error("internal: channel token count changed over an iteration");
        }
        for (Token& token : fifo[c]) {
            run.columns.push_back(std::move(token.stamp));
            run.dirty.push_back(token.dirty ? 1 : 0);
        }
    }
    return run;
}

SymbolicIteration symbolic_iteration(const Graph& graph) {
    const std::vector<ActorId> schedule = sequential_schedule(graph);
    require_symbolic_token_limit(graph);

    SymbolicIteration result;
    result.tokens = initial_tokens(graph);
    const std::size_t n = result.tokens.size();
    const SymbolicRun run = execute_symbolic(graph, schedule, nullptr);
    result.matrix = MpMatrix(n, n);
    for (std::size_t col = 0; col < n; ++col) {
        run.columns[col].for_each(
            [&](std::size_t row, Int value) { result.matrix.set(row, col, MpValue(value)); });
    }
    return result;
}

MpMatrix symbolic_iteration_power(const Graph& graph, Int iterations) {
    require(iterations >= 0, "negative iteration count");
    if (iterations == 0) {
        // G^0 = I by definition; still validate the graph the way a real
        // execution would (consistency and deadlock-freedom), which hits
        // the memoised schedule instead of re-deriving it.
        sequential_schedule(graph);
        return MpMatrix::identity(initial_tokens(graph).size());
    }
    const SymbolicIteration one = symbolic_iteration(graph);
    if (iterations == 1) {
        return one.matrix;
    }
    // With columns-as-new-tokens, composing iterations means
    // G_n(j,k) = max_m ( G_1(j,m) + G_{n-1}(m,k) ), i.e. G_1 ⊗ G_{n-1} in
    // row-major max-plus product order.
    return one.matrix.power(iterations);
}

}  // namespace sdf
