// perfbench: the Figure-2 flow benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// One process, one worker thread, closed loop: the workload's passes run
// back to back until --seconds is used up.  --trace 0 runs every pass with
// the library's obs registry off and reports the end-to-end metrics;
// --trace 1 alternates registry-off and traced passes and reports the
// per-layer metrics, measured at the benchmark's own call boundaries.  Every
// output is scored against the reference CSVs; the last stdout line is one
// JSON object {correct, attempted, failed, metrics}, and the exit code is
// non-zero when a check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "trace.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string spans_out;
};

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-out <file>]\n",
                 msg);
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + key).c_str());
        const char* val = argv[++i];
        if (key == "--workload") a.workload = val;
        else if (key == "--seed") a.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds") a.seconds = std::atof(val);
        else if (key == "--trace") a.trace = std::atoi(val);
        else if (key == "--spans-out") a.spans_out = val;
        else usage(("unknown option " + key).c_str());
    }
    if (std::find(kWorkloads.begin(), kWorkloads.end(), a.workload) == kWorkloads.end())
        usage(("unknown workload '" + a.workload + "'").c_str());
    if (!(a.seconds > 0)) usage("--seconds must be positive");
    if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
    return a;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// What one pass did, folded from its spans.
struct PassStats {
    bool traced = false;
    double wall = 0.0;
    std::map<std::string, double> seconds;            // summed per call name
    std::map<std::string, std::vector<double>> calls; // each call's seconds
    std::vector<double> point_seconds;                // one entry per design point
    std::array<double, kDeltaCount> deltas{};         // summed over calls
    std::vector<ModelStats> models;

    double sum(std::initializer_list<const char*> names) const {
        double s = 0.0;
        for (const char* n : names)
            if (auto it = seconds.find(n); it != seconds.end()) s += it->second;
        return s;
    }
    double delta(const char* name) const { return deltas[delta_index(name)]; }
    double median_ms(const char* name) const {
        auto it = calls.find(name);
        return it == calls.end() ? 0.0 : 1e3 * median(it->second);
    }

    // End-to-end shares of the wall time.
    double setup() const {
        return sum({"testcases::build_nmos_structure", "testcases::build_vco",
                    "testcases::build_model"});
    }
    double calibrate() const {
        return sum({"core::ImpactAnalyzer::calibrate", "core::ImpactAnalyzer::calibrate_paths"});
    }
    double transient() const {
        return sum({"core::ImpactAnalyzer::simulate", "rf::capture_oscillator",
                    "rf::measure_spur", "rf::measure_spur_spectral",
                    "dsp::amplitude_spectrum"});
    }
    double model_sum(double ModelStats::*field) const {
        double s = 0.0;
        for (const auto& m : models) s += m.*field;
        return s;
    }
};

/// `first` indexes the pass's own span; the calls follow it.
PassStats fold_pass(const std::vector<Span>& spans, size_t first, const PassOutput& out,
                    bool traced) {
    PassStats p;
    p.traced = traced;
    p.wall = spans[first].seconds();
    p.models = out.models;
    std::map<int, double> points;
    for (size_t i = first; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if (!s.call) continue;
        p.seconds[s.name] += s.seconds();
        for (size_t k = 0; k < kDeltaCount; ++k) p.deltas[k] += s.deltas[k];
        if (s.points > 0) {
            // A sweep timed as one span: each of its points takes the mean.
            const double each = s.seconds() / s.points;
            p.calls[s.name].insert(p.calls[s.name].end(), s.points, each);
            p.point_seconds.insert(p.point_seconds.end(), s.points, each);
            continue;
        }
        p.calls[s.name].push_back(s.seconds());
        if (s.point >= 0) points[s.point] += s.seconds();
    }
    for (const auto& [id, sec] : points) p.point_seconds.push_back(sec);
    return p;
}

struct Metric {
    const char* name;
    const char* unit;
    double value;
};

/// End-to-end metrics over the registry-off passes.
std::vector<Metric> end_to_end(const std::vector<PassStats>& passes, size_t attempted,
                               size_t failed) {
    // Each metric is taken per pass, then the median over passes: a pass
    // slowed down by the machine moves no median.
    std::vector<double> wall, setup, analysis, calibrate, transient, point_ms, point_ms_p90;
    for (const auto& p : passes) {
        if (p.traced) continue;
        wall.push_back(p.wall);
        setup.push_back(p.setup());
        analysis.push_back(p.wall - p.setup());
        calibrate.push_back(p.calibrate());
        transient.push_back(p.transient());
        point_ms.push_back(1e3 * median(p.point_seconds));
        point_ms_p90.push_back(1e3 * quantile(p.point_seconds, 0.9));
    }
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"wall_s", "s", median(wall)},
        {"setup_s", "s", median(setup)},
        {"analysis_s", "s", median(analysis)},
        {"point_ms", "ms", median(point_ms)},
        {"point_ms_p90", "ms", median(point_ms_p90)},
        {"peak_rss_mb", "MB", static_cast<double>(ru.ru_maxrss) / 1024.0},
        // Reported, not in the JSON result: zero on some workloads.
        {"calibrate_s", "s", median(calibrate)},
        {"transient_s", "s", median(transient)},
        {"fail_ratio", "1", ratio(static_cast<double>(failed), static_cast<double>(attempted))},
    };
}
constexpr size_t kEndToEndInResult = 6;

/// Per-layer metrics: medians over the traced passes, except the overhead
/// and Newton cost, which set traced against registry-off passes.
std::vector<Metric> per_layer(const std::vector<PassStats>& passes) {
    std::vector<const PassStats*> traced;
    std::vector<double> off_wall, off_newton_time;
    for (const auto& p : passes) {
        if (p.traced) {
            traced.push_back(&p);
        } else {
            off_wall.push_back(p.wall);
            off_newton_time.push_back(p.calibrate() + p.sum({"core::ImpactAnalyzer::simulate",
                                                             "rf::capture_oscillator"}));
        }
    }
    auto over_traced = [&](const std::function<double(const PassStats&)>& f) {
        std::vector<double> v;
        for (const auto* p : traced) v.push_back(f(*p));
        return median(v);
    };
    std::vector<double> traced_wall;
    for (const auto* p : traced) traced_wall.push_back(p->wall);

    auto steps = [](const PassStats& p) { return p.delta("sim/transient/steps"); };
    auto newton = [](const PassStats& p) { return p.delta("sim/transient/newton_per_step"); };
    const double newton_iters = over_traced(newton);
    std::vector<Metric> m = {
        {"testcases.build_s", "s", over_traced([](const PassStats& p) {
             return p.sum({"testcases::build_nmos_structure", "testcases::build_vco"});
         })},
        {"core.build_model_s", "s",
         over_traced([](const PassStats& p) { return p.sum({"testcases::build_model"}); })},
        {"core.stitch_s", "s", over_traced([](const PassStats& p) {
             return p.sum({"testcases::build_model"}) -
                    p.model_sum(&ModelStats::substrate_seconds) -
                    p.model_sum(&ModelStats::interconnect_seconds);
         })},
        {"substrate.extract_s", "s",
         over_traced([](const PassStats& p) { return p.model_sum(&ModelStats::substrate_seconds); })},
        {"substrate.mesh_nodes", "count",
         over_traced([](const PassStats& p) { return p.model_sum(&ModelStats::mesh_nodes); })},
        {"substrate.mesh_bytes", "bytes",
         over_traced([](const PassStats& p) { return p.delta("substrate/mesh_bytes"); })},
        {"mor.cg_solves", "count",
         over_traced([](const PassStats& p) { return p.delta("mor/cg_solves"); })},
        {"mor.cg_iters", "count",
         over_traced([](const PassStats& p) { return p.delta("mor/cg_iters"); })},
        {"mor.cg_iters_per_solve", "count", over_traced([](const PassStats& p) {
             return ratio(p.delta("mor/cg_iters"), p.delta("mor/cg_solves"));
         })},
        {"mor.probe_cg_solves", "count",
         over_traced([](const PassStats& p) { return p.delta("mor/probe_cg_solves"); })},
        {"interconnect.extract_s", "s", over_traced([](const PassStats& p) {
             return p.model_sum(&ModelStats::interconnect_seconds);
         })},
        {"core.calibrate_s", "s", over_traced([](const PassStats& p) {
             return p.sum({"core::ImpactAnalyzer::calibrate"});
         })},
        {"core.calibrate_paths_s", "s", over_traced([](const PassStats& p) {
             return p.sum({"core::ImpactAnalyzer::calibrate_paths"});
         })},
        {"core.predict_ms", "ms", over_traced([](const PassStats& p) {
             return p.median_ms("core::ImpactAnalyzer::predict");
         })},
        {"core.contribution_sweep_s", "s",
         over_traced([](const PassStats& p) { return p.sum({"core::contribution_sweep"}); })},
        {"sim.op_ms", "ms",
         over_traced([](const PassStats& p) { return p.median_ms("sim::operating_point"); })},
        {"sim.transfer_ms", "ms",
         over_traced([](const PassStats& p) { return p.median_ms("sim::transfer_multi"); })},
        {"sim.transient_steps", "count", over_traced(steps)},
        {"sim.newton_iters", "count", newton_iters},
        {"sim.newton_per_step", "count",
         over_traced([&](const PassStats& p) { return ratio(newton(p), steps(p)); })},
        {"sim.us_per_newton_iter", "us", 1e6 * ratio(median(off_newton_time), newton_iters)},
        {"sim.assemble_full", "count",
         over_traced([](const PassStats& p) { return p.delta("sim/assemble_full"); })},
        {"sim.assemble_relearn", "count",
         over_traced([](const PassStats& p) { return p.delta("sim/assemble_relearn"); })},
        {"sim.relearn_per_kstep", "1/kstep", over_traced([&](const PassStats& p) {
             return 1e3 * ratio(p.delta("sim/assemble_relearn"), steps(p));
         })},
        {"sim.assemble_cache_hit_ratio", "1", over_traced([](const PassStats& p) {
             const double hits = p.delta("sim/assemble_cache_hits");
             return ratio(hits, hits + p.delta("sim/assemble_cache_misses"));
         })},
        {"sim.jacobian_reuse_ratio", "1", over_traced([&](const PassStats& p) {
             return ratio(p.delta("sim/jacobian_reuse"), newton(p));
         })},
        {"sim.step_retries", "count",
         over_traced([](const PassStats& p) { return p.delta("sim/transient/step_retries"); })},
        {"numeric.lu_refactor", "count",
         over_traced([](const PassStats& p) { return p.delta("numeric/lu_refactor"); })},
        {"numeric.lu_partial_refactor", "count",
         over_traced([](const PassStats& p) { return p.delta("numeric/lu_partial_refactor"); })},
        {"numeric.partial_refactor_ratio", "1", over_traced([](const PassStats& p) {
             return ratio(p.delta("numeric/lu_partial_refactor"), p.delta("numeric/lu_refactor"));
         })},
        {"numeric.solve_certificates", "count",
         over_traced([](const PassStats& p) { return p.delta("numeric/solve_certificates"); })},
        {"numeric.sparse_lu_bytes", "bytes",
         over_traced([](const PassStats& p) { return p.delta("numeric/sparse_lu_bytes"); })},
        {"core.simulate_s", "s", over_traced([](const PassStats& p) {
             return p.sum({"core::ImpactAnalyzer::simulate"});
         })},
        {"rf.capture_s", "s",
         over_traced([](const PassStats& p) { return p.sum({"rf::capture_oscillator"}); })},
        {"rf.demod_ms", "ms",
         over_traced([](const PassStats& p) { return 1e3 * p.sum({"rf::measure_spur"}); })},
        {"rf.spectral_ms", "ms", over_traced([](const PassStats& p) {
             return 1e3 * p.sum({"rf::measure_spur_spectral"});
         })},
        {"dsp.spectrum_ms", "ms", over_traced([](const PassStats& p) {
             return 1e3 * p.sum({"dsp::amplitude_spectrum"});
         })},
        {"obs.trace_overhead_pct", "%",
         100.0 * ratio(median(traced_wall) - median(off_wall), median(off_wall))},
    };
    return m;
}

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimised = true;
#else
constexpr bool kOptimised = false;
#endif

int run(const Args& args) {
    snim::util::set_default_thread_count(1);
    snim::obs::set_enabled(false);
    const Inputs in = make_inputs(args.workload, args.seed);

    // What makes two results comparable.
    std::string workloads;
    for (const auto& w : kWorkloads) workloads += (workloads.empty() ? "\"" : ", \"") + w + "\"";
    const std::string config = snim::format(
        "{\"build_type\": \"%s\", \"optimised\": %s, \"SNIM_ENABLE_OBS\": \"%s\", "
        "\"SNIM_ENABLE_FAULTS\": \"%s\", \"threads\": %d, \"seed\": %llu, "
        "\"workload\": \"%s\", \"workload_set\": [%s], \"trace\": %d, \"seconds\": %g}",
        PERFBENCH_BUILD_TYPE, kOptimised ? "true" : "false", SNIM_OBS_ENABLED ? "ON" : "OFF",
        SNIM_FAULTS_ENABLED ? "ON" : "OFF", snim::util::default_thread_count(),
        static_cast<unsigned long long>(args.seed), args.workload.c_str(), workloads.c_str(),
        args.trace, args.seconds);
    std::printf("config: %s\n", config.c_str());
    if (!kOptimised) {
        std::fprintf(stderr, "perfbench: refusing to measure an unoptimised build (%s)\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    if (args.trace && !SNIM_OBS_ENABLED) {
        std::fprintf(stderr, "perfbench: --trace 1 needs SNIM_ENABLE_OBS=ON\n");
        return 2;
    }
    std::fflush(stdout);

    Recorder rec;
    std::vector<PassStats> passes;
    PassOutput last;
    size_t bad_checks = 0, bad_claims = 0;
    double last_wall = 0.0;
    for (;;) {
        // Traced runs alternate registry-off and traced passes, off first.
        const bool traced = args.trace == 1 && passes.size() % 2 == 1;
        const bool have_both = args.trace == 0 || passes.size() >= 2;
        if (!passes.empty() && have_both && rec.now() + last_wall > args.seconds) break;
        PassOutput out;
        const size_t first = rec.spans().size();
        rec.begin_pass(traced);
        rec.group(snim::format("pass %d", rec.pass()), [&] { run_workload(in, rec, out); });
        rec.end_pass();
        passes.push_back(fold_pass(rec.spans(), first, out, traced));
        last_wall = passes.back().wall;
        for (const auto& c : out.checks) bad_checks += !c.ok();
        for (const auto& c : out.claims) bad_claims += !c.ok();
        last = std::move(out);
    }

    size_t attempted = 0, failed = 0;
    for (const auto& s : rec.spans()) {
        attempted += s.call;
        failed += s.call && s.failed;
    }
    const bool correct = failed == 0 && bad_checks == 0 && bad_claims == 0;

    std::printf("passes: %zu (%zu traced), design points per pass: %zu\n", passes.size(),
                static_cast<size_t>(std::count_if(passes.begin(), passes.end(),
                                                  [](const PassStats& p) { return p.traced; })),
                last.points);
    std::printf("pass walls:");
    for (const auto& p : passes) std::printf(" %.3f%s", p.wall, p.traced ? "(traced)" : "");
    std::printf(" s\n");
    std::printf("\nchecks against the reference CSVs (last pass):\n");
    for (const auto& c : last.checks)
        std::printf("  %-4s %-48s worst %6.3f dB (tol %.1f dB, %zu points) %s\n",
                    c.ok() ? "ok" : "FAIL", c.name.c_str(), c.worst_db, c.tolerance_db,
                    c.matched, c.reference.c_str());
    std::printf("\npaper claims (last pass):\n");
    for (const auto& c : last.claims)
        std::printf("  %-12s %-48s %9.3f %s (paper %g +- %g)%s%s\n",
                    c.pass ? "ok" : (c.expected_pass ? "FAIL" : "known-miss"), c.name.c_str(),
                    c.value, c.unit.c_str(), c.target, c.tolerance,
                    c.expected_pass ? "" : ": ", c.reason.c_str());

    const auto e2e = end_to_end(passes, attempted, failed);
    std::vector<Metric> result(e2e.begin(), e2e.begin() + kEndToEndInResult);
    if (args.trace) result = per_layer(passes);
    std::printf("\nend-to-end metrics (registry off):\n");
    for (const auto& m : e2e) std::printf("  %-32s %16.6f %s\n", m.name, m.value, m.unit);
    if (args.trace) {
        std::printf("\nper-layer metrics (traced passes):\n");
        for (const auto& m : result) std::printf("  %-32s %16.6f %s\n", m.name, m.value, m.unit);
    }
    if (!args.spans_out.empty()) {
        rec.write_json(args.spans_out, config);
        std::printf("\nspans: %zu written to %s\n", rec.spans().size(), args.spans_out.c_str());
    }

    std::string metrics;
    for (const auto& m : result)
        metrics += snim::format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                                metrics.empty() ? "" : ", ", m.name, m.value, m.unit);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed, metrics.c_str());
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    const auto args = perfbench::parse_args(argc, argv);
    try {
        return perfbench::run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
