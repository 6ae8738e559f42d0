// Span recorder of the benchmark.
//
// Every public library call the benchmark makes goes through Recorder::call,
// which times it from outside with std::chrono::steady_clock and keeps one
// Span in memory: name, start, end, parent, design-point id and pass.  In a
// traced pass the recorder also reads the library's obs counters at the
// same call boundaries and stores their deltas on the span.  Nothing is
// added to the library itself: the counters are the ones it already keeps.
#pragma once

#include <array>
#include <chrono>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace perfbench {

/// Library counters read at every call boundary of a traced pass.
inline constexpr std::array kCounters = {
    "substrate/mesh_bytes",       "mor/cg_solves",
    "mor/probe_cg_solves",        "sim/transient/steps",
    "sim/transient/step_retries", "sim/assemble_full",
    "sim/assemble_relearn",       "sim/assemble_cache_hits",
    "sim/assemble_cache_misses",  "sim/jacobian_reuse",
    "numeric/lu_refactor",        "numeric/lu_partial_refactor",
    "numeric/solve_certificates", "numeric/sparse_lu_bytes",
};

/// Library histograms whose sums are read at the boundaries of calls that
/// are not single design points (a histogram read sorts its reservoir, too
/// dear for a per-point call; no point call records into these).
inline constexpr std::array kHistogramSums = {
    "mor/cg_iters",
    "sim/transient/newton_per_step",
};

inline constexpr size_t kDeltaCount = kCounters.size() + kHistogramSums.size();

/// Index of a counter or histogram name in Span::deltas.
size_t delta_index(const char* name);

struct Span {
    std::string name;  // "module::function" of the library call, or a group
    double start = 0.0; // seconds since the recorder was created
    double end = 0.0;
    int parent = -1;   // index into Recorder::spans(), -1 for a root
    int point = -1;    // design-point id shared by one point's spans
    int pass = 0;
    int points = 0;    // design points of a call timed as one sweep, else 0
    bool call = false; // a library call (an operation), not a group
    bool failed = false;
    std::array<double, kDeltaCount> deltas{}; // traced passes only

    double seconds() const { return end - start; }
};

class Recorder {
public:
    using Clock = std::chrono::steady_clock;

    Recorder();

    /// Starts a pass; `traced` turns the obs registry on for its duration.
    void begin_pass(bool traced);
    void end_pass();
    int pass() const { return pass_; }

    /// A fresh design-point id.
    int new_point() { return next_point_++; }

    /// Runs one library call inside a span.  A thrown snim::Error marks the
    /// span failed and propagates.
    template <class F>
    auto call(const char* name, int point, F&& f) -> decltype(f()) {
        const int idx = open(name, point, true);
        try {
            if constexpr (std::is_void_v<decltype(f())>) {
                f();
                close(idx);
            } else {
                auto out = f();
                close(idx);
                return out;
            }
        } catch (const snim::Error&) {
            spans_[static_cast<size_t>(idx)].failed = true;
            close(idx);
            throw;
        }
    }

    /// Runs one library call per design point, `points` of them, inside a
    /// single span: for calls too short to time one by one.  Each point
    /// counts as the span's mean time.
    template <class F>
    auto sweep(const char* name, int points, F&& f) -> decltype(f()) {
        auto out = call(name, -1, std::forward<F>(f));
        spans_[static_cast<size_t>(last_call_)].points = points;
        return out;
    }

    /// Groups the calls made by `f` (a model, a sweep) under one span.
    template <class F>
    void group(const std::string& name, F&& f) {
        const int idx = open(name, -1, false);
        try {
            f();
        } catch (...) {
            close(idx);
            throw;
        }
        close(idx);
    }

    /// Marks a finished call as failed: its output missed its reference.
    void fail(int span) { spans_[static_cast<size_t>(span)].failed = true; }
    /// Index of the most recently closed library call.
    int last_call() const { return last_call_; }

    const std::vector<Span>& spans() const { return spans_; }
    double now() const;

    /// Writes `config` (a JSON object) and every span as JSON; a span's
    /// self time is its time minus its children's.
    void write_json(const std::string& path, const std::string& config) const;

private:
    int open(std::string name, int point, bool call);
    void close(int idx);
    std::array<double, kDeltaCount> read_deltas(bool with_histograms) const;

    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::vector<std::array<double, kDeltaCount>> opened_at_; // parallel to stack_
    int pass_ = -1;
    int next_point_ = 0;
    int last_call_ = -1;
    bool traced_ = false;
};

} // namespace perfbench
