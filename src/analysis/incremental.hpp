// incremental.hpp — the cached throughput slot: solve once, refine per edit.
//
// cached_throughput (analysis/throughput.hpp) answers route 1 through the
// graph's AnalysisManager, and the slot behind it keeps what the solve
// learned on the way to λ: the per-firing finish stamps of the symbolic
// execution, the iteration matrix's precedence graph, and the reason λ is
// what it is (an McmCertificate).  The cold solve IS the warm state, so an
// execution-time edit costs
//
//   1. an integer REPLAY of the same schedule that reuses the old finish
//      stamp of every firing the edit cannot reach (dirtiness propagates
//      through consumed tokens and is cut off the moment a recomputed
//      stamp equals the old one),
//   2. a support-aligned DIFF of the final token stamps against the old
//      matrix columns (supports are invariant under pure timing edits —
//      stamp supports are unions of consumed supports, values never enter),
//      yielding edge-weight deltas on the precedence graph, and
//   3. a certificate re-check (maxplus/mcm_certificate.hpp): λ survives in
//      O(changed + critical cycle) when the stored witnesses still hold,
//      and only a dirty SCC ever re-runs Karp.
//
// Bit-exactness is part of the contract: the refined result equals what a
// from-scratch throughput_symbolic on the edited graph would return,
// Rational for Rational (the fuzz oracle `incremental-route` enforces this).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/throughput.hpp"
#include "maxplus/mcm_certificate.hpp"
#include "maxplus/stamp.hpp"
#include "sdf/graph.hpp"

namespace sdf {

/// The edit-invariant part of the warm state, shared across refinement
/// generations: the structure that was traced, the schedule the trace
/// executes and the column index of the precedence graph.
struct IncrementalSkeleton {
    /// The traced graph's structure; a state adopted onto any other
    /// structure (a pass that declares throughput preserved) is not replayed.
    std::size_t actor_count = 0;
    std::vector<Channel> channels;
    std::vector<ActorId> schedule;
    /// The precedence graph is built column by column from the final token
    /// stamps, so the edge of matrix entry (row, col) is
    /// col_begin[col] + the rank of row in that column's support.
    std::vector<std::size_t> col_begin;
};

/// Everything needed to absorb the next timing edit without a from-scratch
/// solve.  Immutable; refinement builds the successor generation.
struct IncrementalThroughputState {
    std::shared_ptr<const IncrementalSkeleton> skeleton;
    std::vector<MpStamp> finish;  ///< finish stamp per firing, schedule order
    std::vector<MpStamp> column;  ///< final stamp per initial token (matrix column)
    McmCertificate certificate;   ///< clean SCCs shared with the predecessor
};

/// The slot's result: the throughput answer plus the warm state behind it.
/// `state` is null when the graph deadlocks or its iteration has more than
/// 2^17 firings (the answer is then kept without the per-firing stamps and
/// edits fall back to lazy recomputation).  The counters are cumulative
/// over the refinement lineage — the bench and the stats report read them
/// to prove the fast path actually ran.
struct IncrementalThroughput {
    ThroughputResult result;
    std::shared_ptr<const IncrementalThroughputState> state;
    std::uint64_t refines = 0;        ///< timing deltas absorbed so far
    std::uint64_t rescored_sccs = 0;  ///< SCCs that needed a Karp re-solve
};

/// AnalysisManager slot for route 1 (see sdf/analysis_manager.hpp).
/// compute() is the traced sparse symbolic execution followed by
/// max_cycle_mean_certified; refine() replays a timing edit through the
/// kept state, keeps a deadlocked answer under timing edits and drops for
/// lazy recomputation otherwise.  Time-sensitive, refine phase 1: it runs
/// after the untimed structural slots it reads (repetition).
struct ThroughputAnalysis {
    using Result = IncrementalThroughput;
    static constexpr const char* kName = "throughput";
    static constexpr bool kTimeSensitive = true;
    static constexpr int kRefinePhase = 1;
    static Result compute(const Graph& graph);
    static Refined<Result> refine(const Result& old, const RefineContext& ctx);
};

/// The whole slot behind cached_throughput, warm state included: what a
/// caller reads to see whether, and how often, the fast path ran.  Solves
/// on first use like cached_throughput; never a second solve.
std::shared_ptr<const IncrementalThroughput> warm_throughput(const Graph& graph);

}  // namespace sdf
