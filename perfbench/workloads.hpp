// The three workloads of the Figure-2 flow benchmark and the checks that
// score their outputs against the committed reference CSVs and the paper's
// claims.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

inline const std::vector<std::string> kWorkloads = {"nmos_backgate", "vco_fixed_layout",
                                                    "vco_layout_variants"};

/// Everything a workload pass runs on.  The seed draws only the dense
/// sweep points; the reference points are merged in by the workload.
struct Inputs {
    std::string workload;
    uint64_t seed = 0;
    std::vector<double> dense_biases; // nmos_backgate gate biases [V]
    std::vector<double> dense_freqs;  // VCO noise frequencies [Hz]
};

Inputs make_inputs(const std::string& workload, uint64_t seed);

/// One output series scored against a reference CSV column, or a model
/// whose work was abandoned on an error (then `reference` holds the error).
struct Check {
    std::string name;
    std::string reference; // "file:column"
    double tolerance_db = 0.0;
    double worst_db = 0.0; // max |computed - reference| over matched points
    size_t matched = 0;
    size_t misses = 0;
    bool ok() const { return matched > 0 && misses == 0; }
};

/// One of the paper's headline claims, checked on this run's outputs.  A
/// claim that the reproduction is known to miss is expected to fail and
/// carries the reason; it is reported, never dropped from the workload.
struct Claim {
    std::string name;
    std::string unit;
    double value = 0.0;
    double target = 0.0;
    double tolerance = 0.0;
    bool pass = false;
    bool expected_pass = true;
    std::string reason; // why a known miss misses
    bool ok() const { return pass || !expected_pass; }
};

/// Extraction figures of one model build (read from core::ImpactModel).
struct ModelStats {
    double substrate_seconds = 0.0;
    double interconnect_seconds = 0.0;
    double mesh_nodes = 0.0;
};

struct PassOutput {
    std::vector<Check> checks;
    std::vector<Claim> claims;
    std::vector<ModelStats> models;
    size_t points = 0; // fast-estimate design points evaluated
};

/// Runs one pass of `in.workload`, recording every library call in `rec`.
void run_workload(const Inputs& in, Recorder& rec, PassOutput& out);

} // namespace perfbench
