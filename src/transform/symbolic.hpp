// symbolic.hpp — symbolic (max-plus) execution of one iteration
// (the analysis core of Algorithm 1 in the paper).
//
// Every initial token j starts with the symbolic time stamp t_j, encoded as
// the max-plus unit vector ī_j.  Executing a sequential schedule for one
// iteration, a firing that consumes tokens with stamps ḡ_1..ḡ_m starts at
// max_i(ḡ_i) (element-wise) and stamps its output tokens with
// max_i(ḡ_i) + T(a).  After the iteration the token distribution is back to
// the initial one and the stamp of new token k reads
//
//      t'_k = max_j ( t_j + G(j,k) ),
//
// i.e. the iteration is the max-plus linear map given by the N×N matrix G
// over the N initial tokens (in the canonical token order of
// sdf/properties.hpp).  SDF graphs are determinate, so G does not depend on
// which admissible schedule is executed.
//
// G is the basis of both reduction results in this library:
//  * its max-plus eigenvalue (max cycle mean of its precedence graph) is the
//    iteration period, hence the throughput (analysis/throughput.hpp);
//  * the reduced HSDF of Figure 4 is read directly off its finite entries
//    (hsdf_reduced.hpp).
#pragma once

#include <vector>

#include "maxplus/matrix.hpp"
#include "maxplus/stamp.hpp"
#include "sdf/graph.hpp"
#include "sdf/properties.hpp"

namespace sdf {

/// The symbolic result of one iteration.
struct SymbolicIteration {
    /// Row j / column k: the minimum distance G(j,k) that new token k must
    /// keep to the previous production time of token j (−∞: no dependency).
    MpMatrix matrix;
    /// The initial tokens, in matrix row/column order.
    std::vector<TokenRef> tokens;
};

/// Symbolically executes one iteration of a consistent, deadlock-free SDF
/// graph and returns its max-plus iteration matrix.  Throws
/// InconsistentGraphError / DeadlockError accordingly, and
/// ResourceLimitError when the graph carries more initial tokens than the
/// dense n×n matrix could ever hold in memory (the guard fires before any
/// allocation happens).
SymbolicIteration symbolic_iteration(const Graph& graph);

/// The token limit of symbolic_iteration: throws its ResourceLimitError
/// when `graph` carries more than 16384 initial tokens.  The cached
/// throughput slot (analysis/incremental.hpp) never builds the dense
/// matrix but keeps the same limit, so both routes refuse the same graphs.
void require_symbolic_token_limit(const Graph& graph);

/// Input to execute_symbolic when it REPLAYS an earlier run of the same
/// schedule after execution-time edits.  A firing whose actor is not
/// `touched` and whose consumed tokens are all clean reuses its previous
/// finish stamp; a recomputed stamp equal to the previous one is clean
/// again, which cuts dirtiness off where an edit is absorbed.
struct SymbolicReplay {
    const std::vector<MpStamp>& previous;  ///< finish stamp per firing of the earlier run
    const std::vector<char>& touched;      ///< per actor: execution time edited
};

/// The outcome of one execute_symbolic run.
struct SymbolicRun {
    /// Final stamp of every initial token in canonical order: column k of
    /// the iteration matrix is the stamp of new token k.
    std::vector<MpStamp> columns;
    /// Per column, set when a replay could not reuse its previous stamp
    /// (always set without a replay).
    std::vector<char> dirty;
};

/// The sparse symbolic execution of one iteration along `schedule` (an
/// admissible schedule of `graph`) — the one execution loop behind
/// symbolic_iteration and the cached throughput slot.  `finish`, when
/// non-null, receives every firing's finish stamp in schedule order;
/// `replay`, when non-null, reuses the stamps of an earlier run.
SymbolicRun execute_symbolic(const Graph& graph, const std::vector<ActorId>& schedule,
                             std::vector<MpStamp>* finish,
                             const SymbolicReplay* replay = nullptr);

/// Symbolically executes `iterations` iterations (the matrix power G^n with
/// the row/column convention above, computed by direct execution order
/// composition).  Mostly used for tests of linearity.  `iterations` 0 and 1
/// short-circuit to the identity (after validating schedulability) and to
/// the plain iteration matrix, without entering power().
MpMatrix symbolic_iteration_power(const Graph& graph, Int iterations);

}  // namespace sdf
