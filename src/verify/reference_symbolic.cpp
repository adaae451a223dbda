#include "verify/reference_symbolic.hpp"

#include <deque>
#include <vector>

#include "base/errors.hpp"
#include "maxplus/vector.hpp"
#include "robust/budget.hpp"
#include "sdf/schedule.hpp"
#include "transform/symbolic.hpp"

namespace sdf {

MpMatrix reference_symbolic_matrix(const Graph& graph) {
    const std::vector<ActorId> schedule = sequential_schedule(graph);
    require_symbolic_token_limit(graph);
    const std::size_t n = static_cast<std::size_t>(graph.total_initial_tokens());
    // Each of the n in-flight tokens carries a full n-length vector.
    robust_account_bytes(n * n * sizeof(MpValue));
    std::vector<std::deque<MpVector>> fifo(graph.channel_count());
    std::vector<std::vector<ChannelId>> inputs(graph.actor_count());
    std::vector<std::vector<ChannelId>> outputs(graph.actor_count());
    {
        std::size_t global = 0;
        for (ChannelId c = 0; c < graph.channel_count(); ++c) {
            inputs[graph.channel(c).dst].push_back(c);
            outputs[graph.channel(c).src].push_back(c);
            for (Int i = 0; i < graph.channel(c).initial_tokens; ++i) {
                fifo[c].push_back(MpVector::unit(n, global++));
            }
        }
    }
    for (const ActorId a : schedule) {
        SDFRED_CHECKPOINT();
        // Start time: element-wise max over all consumed stamps.  A firing
        // that consumes nothing starts unconstrained (all −∞).
        MpVector start(n);
        for (const ChannelId ci : inputs[a]) {
            for (Int i = 0; i < graph.channel(ci).consumption; ++i) {
                if (fifo[ci].empty()) {
                    throw Error("internal: admissible schedule underflowed a channel");
                }
                start = start.max_with(fifo[ci].front());
                fifo[ci].pop_front();
            }
        }
        const MpVector finish = start.plus(graph.actor(a).execution_time);
        for (const ChannelId ci : outputs[a]) {
            for (Int i = 0; i < graph.channel(ci).production; ++i) {
                fifo[ci].push_back(finish);
            }
        }
    }
    MpMatrix matrix(n, n);
    std::size_t global = 0;
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        if (static_cast<Int>(fifo[c].size()) != graph.channel(c).initial_tokens) {
            throw Error("internal: channel token count changed over an iteration");
        }
        for (const MpVector& column : fifo[c]) {
            matrix.set_column(global++, column);
        }
    }
    return matrix;
}

}  // namespace sdf
