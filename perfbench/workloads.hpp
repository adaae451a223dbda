// workloads.hpp — the benchmark's model sets and edit scripts.
//
// A workload is a fixed list of models, each with the text a client would
// submit to `sdfred serve` and an edit script (one `edit` request per
// entry, request j editing the child of request j-1).  Everything is a
// pure function of (workload name, seed, data directory), so two runs with
// the same seed submit byte-identical requests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sdf/graph.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

using EditRequest = std::vector<sdf::serve::EditStep>;

struct Model {
    std::string name;
    /// What a client submits: SDF3 XML for the data/ files, canonical
    /// plain text for generated graphs.
    std::string text;
    /// The edit script; every request also raises one execution time, so
    /// each child is a graph the session has not seen yet.
    std::vector<EditRequest> script;
    /// Closed-form period of the model and of each child ("" where the
    /// family has none; the reference table or the classical-HSDF route
    /// is the check there).
    std::string closed_form;
    std::vector<std::string> child_closed_forms;
};

struct Workload {
    std::string name;
    std::vector<Model> models;
    /// dse_edits: after edit request j >= requery_lag, the child of request
    /// j - requery_lag is queried again (0 = never).
    std::size_t requery_lag = 0;
    /// Passes of the cheap operations (solve, reduce, the throughput/edit
    /// session) per round; lint and certify run once per round.  Above 1
    /// where one lint and certify session takes seconds, so that the cheap
    /// operations still get many samples per run.
    int fast_passes = 1;
};

/// Builds `name` ("paper", "large_regular", "dse_edits"); throws
/// std::invalid_argument for an unknown name.  `data_dir` holds the
/// Table 1 XML files.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& data_dir);

/// Parses submitted model text the way the serve store does (XML is sniffed
/// from a leading '<').
sdf::Graph parse_model(const std::string& text);

/// Applies one edit step through the Graph mutators, as the `edit` op does.
void apply_step(sdf::Graph& graph, const sdf::serve::EditStep& step);

/// The paper models and their (seed-independent) edit script, as used by
/// the reference-table regeneration.
Workload paper_workload(const std::string& data_dir);

}  // namespace perfbench
