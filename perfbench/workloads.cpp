#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "circuit/mosfet.hpp"
#include "circuit/sources.hpp"
#include "core/accuracy.hpp"
#include "core/contribution.hpp"
#include "dsp/spectrum.hpp"
#include "numeric/vecops.hpp"
#include "rf/oscillator.hpp"
#include "rf/spur.hpp"
#include "sim/op.hpp"
#include "sim/transfer.hpp"
#include "testcases/nmos_structure.hpp"
#include "testcases/vco.hpp"
#include "util/units.hpp"

namespace perfbench {

namespace {

using snim::testcases::NmosStructure;
using snim::testcases::VcoTestcase;

// --- inputs -----------------------------------------------------------------

// Fig-3 gate-bias range and the fig8/fig9/fig10 noise-frequency band.
constexpr double kBiasLo = 0.7, kBiasHi = 1.6;
constexpr double kFreqLo = 1e6, kFreqHi = 15e6;
// Dense points per sweep, sized so every pass has >= 100 design points.
constexpr size_t kDenseBiases = 45;   // per extraction, 2 extractions
// AC points of ~1 ms each: a sweep long enough that point_ms averages over
// short-term changes in the machine's speed.
constexpr size_t kDenseFreqsFixed = 1000;
// Per variant, 3 variants: closed-form points of ~50 ns each, timed in
// spans of kSweepChunk points.
constexpr size_t kDenseFreqsVariant = 1000;
constexpr size_t kSweepChunk = 50;

/// splitmix64: a fixed, portable stream, so a seed means the same inputs
/// with any standard library.
struct SplitMix {
    uint64_t state;
    double uniform() {
        uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        return static_cast<double>(z >> 11) * 0x1.0p-53;
    }
};

std::vector<double> draw_uniform(SplitMix& rng, size_t n, double lo, double hi) {
    std::vector<double> v(n);
    for (auto& x : v) x = lo + (hi - lo) * rng.uniform();
    std::sort(v.begin(), v.end());
    return v;
}

std::vector<double> draw_log_uniform(SplitMix& rng, size_t n, double lo, double hi) {
    auto v = draw_uniform(rng, n, std::log(lo), std::log(hi));
    for (auto& x : v) x = std::exp(x);
    return v;
}

/// Reference points plus dense points, ascending: one monotone sweep.
std::vector<double> merged(const std::vector<double>& reference,
                           const std::vector<double>& dense) {
    std::vector<double> v = reference;
    v.insert(v.end(), dense.begin(), dense.end());
    std::sort(v.begin(), v.end());
    return v;
}

// --- scoring ----------------------------------------------------------------

/// Computed outputs keyed by their sweep input, with the library call that
/// produced each one.
struct Series {
    std::vector<double> keys, values;
    std::vector<int> spans;

    void add(double key, double value, int span) {
        keys.push_back(key);
        values.push_back(value);
        spans.push_back(span);
    }
    /// The entries whose input is one of `inputs` exactly: the reference
    /// points, without the dense points that happen to land near them.
    Series at(const std::vector<double>& inputs) const {
        Series s;
        for (size_t i = 0; i < keys.size(); ++i)
            if (std::find(inputs.begin(), inputs.end(), keys[i]) != inputs.end())
                s.add(keys[i], values[i], spans[i]);
        return s;
    }
    double value_at(double key) const {
        const auto it = std::find(keys.begin(), keys.end(), key);
        SNIM_ASSERT(it != keys.end(), "no output at input %g", key);
        return values[static_cast<size_t>(it - keys.begin())];
    }
};

/// The reference CSVs sit at the root of the tree the benchmark was built
/// from, so they are found from any working directory.
const std::string kDataDir = std::string(PERFBENCH_DATA_DIR) + "/";

struct Scorer {
    Recorder& rec;
    PassOutput& out;

    /// Scores each point of `got` against the reference column; a miss
    /// marks the call that produced the value failed.
    void reference(const std::string& name, const std::string& file,
                   const std::string& key_col, const std::string& value_col,
                   double tolerance_db, const Series& got, const std::string& filter_col = "",
                   const std::string& filter_value = "", double key_rel_tol = 1e-3) {
        const auto ref = snim::core::load_reference_series(kDataDir + file, key_col, value_col,
                                                           filter_col, filter_value);
        Check c;
        c.name = name;
        c.reference = file + ":" + value_col;
        c.tolerance_db = tolerance_db;
        for (size_t i = 0; i < got.keys.size(); ++i) {
            const auto m = snim::core::reference_delta(name, ref, c.reference, tolerance_db,
                                                       {got.keys[i]}, {got.values[i]},
                                                       key_rel_tol);
            ++c.matched;
            c.worst_db = std::max(c.worst_db, m.delta_db);
            if (!std::isfinite(got.values[i]) || !m.pass()) {
                ++c.misses;
                rec.fail(got.spans[i]);
            }
        }
        out.checks.push_back(c);
    }

    /// A paper claim: |value - target| <= tolerance.  A non-empty
    /// `known_miss` marks a claim the reproduction is known to miss.
    void claim(std::string name, std::string unit, double value, double target,
               double tolerance, std::string known_miss = "") {
        Claim c;
        c.name = std::move(name);
        c.unit = std::move(unit);
        c.value = value;
        c.target = target;
        c.tolerance = tolerance;
        c.pass = std::fabs(value - target) <= tolerance;
        c.expected_pass = known_miss.empty();
        c.reason = std::move(known_miss);
        out.claims.push_back(std::move(c));
    }
};

/// Least-squares slope of `db` against log10(freq) [dB/dec].
double slope_db_per_decade(const std::vector<double>& freq, const std::vector<double>& db) {
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    const double n = static_cast<double>(freq.size());
    for (size_t i = 0; i < freq.size(); ++i) {
        const double x = std::log10(freq[i]);
        sx += x;
        sy += db[i];
        sxx += x * x;
        sxy += x * db[i];
    }
    return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

/// Runs one model build and everything that uses it.  A snim::Error, from a
/// library call or from the scoring around it, abandons the rest of this
/// model and fails the pass's checks; the pass goes on with the next model.
void model_group(Recorder& rec, PassOutput& out, const std::string& name,
                 const std::function<void()>& body) {
    try {
        rec.group(name, body);
    } catch (const snim::Error& e) {
        Check c;
        c.name = name + ": abandoned";
        c.reference = e.what();
        out.checks.push_back(std::move(c));
    }
}

void record_model(PassOutput& out, const snim::core::ImpactModel& m) {
    out.models.push_back({m.substrate_seconds, m.interconnect_seconds,
                          static_cast<double>(m.mesh_nodes)});
}

snim::core::FlowOptions single_threaded(snim::core::FlowOptions fo) {
    fo.threads = 1;
    return fo;
}

// --- nmos_backgate ------------------------------------------------------------

void run_nmos_backgate(const Inputs& in, Recorder& rec, PassOutput& out) {
    Scorer score{rec, out};
    const auto ref_biases = snim::linspace(kBiasLo, kBiasHi, 10);
    const auto biases = merged(ref_biases, in.dense_biases);
    const double fprobe = 5e6;
    double worst_hand_db = 0.0; // |simulation - hand calculation|

    for (const double pitch : {3.0, 2.0}) {
        model_group(rec, out, snim::format("nmos pitch=%gum", pitch), [&] {
            auto structure = rec.call("testcases::build_nmos_structure", -1,
                                      [] { return snim::testcases::build_nmos_structure(); });
            snim::core::FlowOptions fo;
            fo.substrate.mesh.focus = snim::geom::Rect(-20, -20, 50, 30);
            fo.substrate.mesh.fine_pitch = pitch;
            fo.substrate.mesh.margin = 40.0;
            auto model = rec.call("testcases::build_model", -1, [&] {
                return snim::testcases::build_model(std::move(structure), single_threaded(fo));
            });
            record_model(out, model);
            auto& nl = model.netlist;
            auto* vg = nl.find_as<snim::circuit::VSource>(NmosStructure::kGateSource);
            auto* m1 = nl.find_as<snim::circuit::Mosfet>(NmosStructure::kMosfet);

            Series sim_db;
            for (const double bias : biases) {
                const int pt = rec.new_point();
                vg->set_waveform(snim::circuit::Waveform::dc(bias));
                auto xop = rec.call("sim::operating_point", pt,
                                    [&] { return snim::sim::operating_point(nl); });
                auto tr = rec.call("sim::transfer_multi", pt, [&] {
                    return snim::sim::transfer_multi(
                        nl, NmosStructure::kNoiseSource,
                        {NmosStructure::kOut, NmosStructure::kBulk, NmosStructure::kSourceNode},
                        {fprobe}, xop);
                });
                const auto ss = m1->small_signal(xop);
                const auto h_vbs = tr[1].h[0] - tr[2].h[0];
                sim_db.add(bias, snim::units::db20(std::abs(tr[0].h[0])), rec.last_call());
                const double hand_db = snim::units::db20(std::abs(h_vbs) * ss.gmb / ss.gds);
                worst_hand_db = std::max(worst_hand_db, std::fabs(sim_db.values.back() - hand_db));
                ++out.points;
            }
            score.reference(snim::format("substrate->output transfer (pitch %g um)", pitch),
                            "fig3_nmos_transfer.csv", "vg", "sim_db", 1.0,
                            sim_db.at(ref_biases));
        });
    }

    score.claim("NMOS transfer: simulation vs hand calculation", "dB", worst_hand_db, 0.0, 1.0);
}

// --- VCO shared -----------------------------------------------------------------

snim::core::AnalyzerOptions analyzer_options() {
    snim::core::AnalyzerOptions aopt;
    aopt.osc = snim::testcases::vco_osc_options();
    return aopt;
}

snim::core::FlowOptions vco_flow(bool ideal_interconnect = false) {
    auto fo = snim::testcases::vco_flow_options();
    fo.interconnect.extract_resistance = !ideal_interconnect;
    return single_threaded(fo);
}

snim::core::ImpactModel build_vco_model(Recorder& rec, PassOutput& out,
                                        const snim::testcases::VcoOptions& vopt,
                                        bool ideal_interconnect = false) {
    auto vco = rec.call("testcases::build_vco", -1,
                        [&] { return snim::testcases::build_vco(vopt); });
    auto model = rec.call("testcases::build_model", -1, [&] {
        return snim::testcases::build_model(std::move(vco), vco_flow(ideal_interconnect));
    });
    record_model(out, model);
    return model;
}

/// predict() total dBm over `freqs`, one design point per frequency.
/// Without calibrate_paths() predict() is a closed form of tens of
/// nanoseconds, too short to time one by one: `closed_form` times the sweep
/// in spans of kSweepChunk points.  Each span lasts a few microseconds, so an
/// interrupt inflates one span and not the whole sweep.
Series predict_sweep(Recorder& rec, PassOutput& out, snim::core::ImpactAnalyzer& an,
                     const std::vector<double>& freqs, bool closed_form) {
    Series s;
    if (closed_form) {
        for (size_t lo = 0; lo < freqs.size(); lo += kSweepChunk) {
            const size_t hi = std::min(freqs.size(), lo + kSweepChunk);
            const auto dbm =
                rec.sweep("core::ImpactAnalyzer::predict", static_cast<int>(hi - lo), [&] {
                    std::vector<double> v;
                    v.reserve(hi - lo);
                    for (size_t i = lo; i < hi; ++i) v.push_back(an.predict(freqs[i]).total_dbm());
                    return v;
                });
            for (size_t i = lo; i < hi; ++i) s.add(freqs[i], dbm[i - lo], rec.last_call());
        }
    } else {
        for (const double f : freqs) {
            const int pt = rec.new_point();
            const auto p =
                rec.call("core::ImpactAnalyzer::predict", pt, [&] { return an.predict(f); });
            s.add(f, p.total_dbm(), rec.last_call());
        }
    }
    out.points += freqs.size();
    return s;
}

const std::vector<double> kFig8Freqs{1e6, 2e6, 3e6, 5e6, 8e6, 15e6};
constexpr double kMeasFreq = 15e6; // brute-force transient point of fig8

// --- vco_fixed_layout -------------------------------------------------------------

void run_vco_fixed_layout(const Inputs& in, Recorder& rec, PassOutput& out) {
    Scorer score{rec, out};

    model_group(rec, out, "vco vtune=0", [&] {
        snim::testcases::VcoOptions vopt;
        vopt.vtune = 0.0;
        auto model = build_vco_model(rec, out, vopt);
        snim::core::ImpactAnalyzer an(model, VcoTestcase::kNoiseSource,
                                      snim::testcases::vco_noise_entries(), analyzer_options());
        rec.call("core::ImpactAnalyzer::calibrate", -1, [&] { an.calibrate(); });
        rec.call("core::ImpactAnalyzer::calibrate_paths", -1, [&] { an.calibrate_paths(); });

        const auto fig9_freqs = snim::logspace(kFreqLo, kFreqHi, 6);
        const auto report = rec.call("core::contribution_sweep", -1, [&] {
            return snim::core::contribution_sweep(an, fig9_freqs);
        });
        for (const auto& e : report.entries) {
            Series dbc;
            for (size_t i = 0; i < fig9_freqs.size(); ++i)
                dbc.add(fig9_freqs[i], e.spur_dbc[i], rec.last_call());
            score.reference(e.label + " contribution dBc", "fig9_contributions.csv",
                            "fnoise [MHz]", e.label + " [dBc]", 2.0, dbc);
        }
        score.claim("ground interconnect is the dominant path", "bool",
                    report.dominant().label == "ground interconnect" ? 1.0 : 0.0, 1.0, 0.0);
        score.claim("NMOS back-gate margin below the ground path", "dB",
                    report.dominance_margin_db(), 20.0, 3.0,
                    "the generic twin-well surface layer clamps the back-gate to its ring "
                    "harder than the paper's process (~9 dB, EXPERIMENTS.md deviation 2)");

        const auto pred =
            predict_sweep(rec, out, an, merged(kFig8Freqs, in.dense_freqs), false);
        score.reference("prediction total dBm (vtune=0)", "fig8_spur_vs_freq.csv", "fnoise_Hz",
                        "pred_dbm", 2.0, pred.at(kFig8Freqs), "vtune", "0");
        score.claim("FM spur slope (vtune=0)", "dB/dec",
                    slope_db_per_decade(pred.keys, pred.values), -20.0, 2.0);

        Series meas;
        meas.add(kMeasFreq,
                 rec.call("core::ImpactAnalyzer::simulate", -1,
                          [&] { return an.simulate(kMeasFreq); })
                     .total_dbm(),
                 rec.last_call());
        score.reference("transient total dBm (vtune=0)", "fig8_spur_vs_freq.csv", "fnoise_Hz",
                        "meas_dbm", 2.0, meas, "vtune", "0");
        score.claim("prediction vs transient, vtune=0, 15 MHz", "dB",
                    std::fabs(pred.value_at(kMeasFreq) - meas.values[0]), 0.0, 2.0,
                    "the prediction keeps only the resistive mechanism; at the band edge "
                    "and the lowest K_src the capacitive paths surface (EXPERIMENTS.md "
                    "deviation 3)");
    });

    model_group(rec, out, "vco vtune=0.9", [&] {
        snim::testcases::VcoOptions vopt;
        vopt.vtune = 0.9;
        auto model = build_vco_model(rec, out, vopt);
        snim::core::ImpactAnalyzer an(model, VcoTestcase::kNoiseSource,
                                      snim::testcases::vco_noise_entries(), analyzer_options());
        rec.call("core::ImpactAnalyzer::calibrate", -1, [&] { an.calibrate(); });
        const auto pred = predict_sweep(rec, out, an, kFig8Freqs, true);
        score.reference("prediction total dBm (vtune=0.9)", "fig8_spur_vs_freq.csv",
                        "fnoise_Hz", "pred_dbm", 2.0, pred, "vtune", "0.9");
        Series meas;
        meas.add(kMeasFreq,
                 rec.call("core::ImpactAnalyzer::simulate", -1,
                          [&] { return an.simulate(kMeasFreq); })
                     .total_dbm(),
                 rec.last_call());
        score.reference("transient total dBm (vtune=0.9)", "fig8_spur_vs_freq.csv",
                        "fnoise_Hz", "meas_dbm", 2.0, meas, "vtune", "0.9");
        score.claim("prediction vs transient, vtune=0.9, 15 MHz", "dB",
                    std::fabs(pred.value_at(kMeasFreq) - meas.values[0]), 0.0, 2.0);
    });

    model_group(rec, out, "vco fig7 capture", [&] {
        auto model = build_vco_model(rec, out, {});
        auto& nl = model.netlist;
        const double fn = 10e6;
        nl.find_as<snim::circuit::VSource>(VcoTestcase::kNoiseSource)
            ->set_waveform(snim::circuit::Waveform::sin(0.0, 0.356, fn));
        auto osc = snim::testcases::vco_osc_options();
        osc.capture = 1.0e-6; // the reference run's length: identical FFT bins
        const auto cap = rec.call("rf::capture_oscillator", -1,
                                  [&] { return snim::rf::capture_oscillator(nl, osc); });
        const auto spec = rec.call("dsp::amplitude_spectrum", -1, [&] {
            return snim::dsp::amplitude_spectrum(cap.wave, cap.fs);
        });
        const int spec_span = rec.last_call();
        const auto demod = rec.call("rf::measure_spur", -1,
                                    [&] { return snim::rf::measure_spur(cap, fn); });
        const auto spectral = rec.call("rf::measure_spur_spectral", -1,
                                       [&] { return snim::rf::measure_spur_spectral(cap, fn); });
        Series dbc;
        for (size_t k = 0; k < spec.freq.size(); ++k) {
            if (std::fabs(spec.freq[k] - cap.fc) > 4 * fn) continue;
            const double v = snim::units::db20(std::max(spec.amp[k], 1e-12) / cap.amplitude);
            if (v <= -80.0) continue; // noise-floor bins are not part of the figure
            dbc.add(spec.freq[k] / 1e9, v, spec_span);
        }
        score.reference("spectrum dBc per FFT bin (> -80 dBc)", "fig7_spectrum.csv",
                        "freq_GHz", "dbc", 2.0, dbc, "", "", 1e-4);
        score.claim("spur readout: demodulation vs spectral", "dB",
                    std::fabs(demod.total_dbm() - spectral.total_dbm()), 0.0, 2.0);
    });
}

// --- vco_layout_variants ------------------------------------------------------------

void run_vco_layout_variants(const Inputs& in, Recorder& rec, PassOutput& out) {
    Scorer score{rec, out};
    struct Variant {
        const char* name;
        double strap_width;
        bool ideal_interconnect;
    };
    const Variant variants[] = {{"real VCO", 1.0, false},
                                {"ground lines widened 2x", 2.0, false},
                                {"ideal interconnect (classical flow)", 1.0, true}};
    const auto ref_freqs = snim::logspace(kFreqLo, kFreqHi, 5);
    std::vector<Series> at_ref(3);

    for (size_t v = 0; v < 3; ++v) {
        model_group(rec, out, variants[v].name, [&] {
            snim::testcases::VcoOptions vopt;
            vopt.ground_strap_width = variants[v].strap_width;
            auto model = build_vco_model(rec, out, vopt, variants[v].ideal_interconnect);
            snim::core::ImpactAnalyzer an(model, VcoTestcase::kNoiseSource,
                                          snim::testcases::vco_noise_entries(),
                                          analyzer_options());
            rec.call("core::ImpactAnalyzer::calibrate", -1, [&] { an.calibrate(); });
            at_ref[v] = predict_sweep(rec, out, an, merged(ref_freqs, in.dense_freqs), true)
                            .at(ref_freqs);
            score.reference(snim::format("total dBm (%s)", variants[v].name),
                            "fig10_ground_width.csv", "fnoise_Hz", "total_dbm", 2.0, at_ref[v],
                            "variant", variants[v].name);
        });
    }
    if (at_ref[0].keys == ref_freqs && at_ref[1].keys == ref_freqs) {
        double gain = 0.0;
        for (size_t i = 0; i < ref_freqs.size(); ++i)
            gain += at_ref[0].values[i] - at_ref[1].values[i];
        score.claim("ground lines widened 2x lower the spur", "dB",
                    gain / static_cast<double>(ref_freqs.size()), 4.5, 1.0);
    }
}

} // namespace

Inputs make_inputs(const std::string& workload, uint64_t seed) {
    Inputs in;
    in.workload = workload;
    in.seed = seed;
    SplitMix rng{seed};
    if (workload == "nmos_backgate")
        in.dense_biases = draw_uniform(rng, kDenseBiases, kBiasLo, kBiasHi);
    else if (workload == "vco_fixed_layout")
        in.dense_freqs = draw_log_uniform(rng, kDenseFreqsFixed, kFreqLo, kFreqHi);
    else if (workload == "vco_layout_variants")
        in.dense_freqs = draw_log_uniform(rng, kDenseFreqsVariant, kFreqLo, kFreqHi);
    else
        snim::raise("unknown workload '%s'", workload.c_str());
    return in;
}

void run_workload(const Inputs& in, Recorder& rec, PassOutput& out) {
    if (in.workload == "nmos_backgate")
        run_nmos_backgate(in, rec, out);
    else if (in.workload == "vco_fixed_layout")
        run_vco_fixed_layout(in, rec, out);
    else
        run_vco_layout_variants(in, rec, out);
}

} // namespace perfbench
