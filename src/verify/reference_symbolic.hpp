// reference_symbolic.hpp — the dense reference engine for the symbolic
// execution of Algorithm 1.
//
// Production code runs one sparse execution (transform/symbolic.hpp): stamps
// are MpStamp supports behind shared storage.  This engine is the textbook
// formulation that execution must agree with, bit for bit: every in-flight
// token carries a full N-length MpVector, copied eagerly on production.  It
// exists only for differential checks — the `symbolic-engines` fuzz oracle,
// the property tests and the sparse-vs-dense bench — so it lives beside the
// oracles rather than in the production API.
#pragma once

#include "maxplus/matrix.hpp"
#include "sdf/graph.hpp"

namespace sdf {

/// The iteration matrix of one symbolic iteration, computed with dense
/// vectors.  Same preconditions, errors and token limit as
/// symbolic_iteration.
MpMatrix reference_symbolic_matrix(const Graph& graph);

}  // namespace sdf
