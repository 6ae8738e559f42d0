#include "sim/transient.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "obs/events.hpp"
#include "obs/progress.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "sim/diagnostics.hpp"
#include "sim/op.hpp"
#include "sim/stepper.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace snim::sim {

const std::vector<double>& TranResult::wave(const std::string& probe) const {
    for (size_t i = 0; i < probe_names.size(); ++i)
        if (probe_names[i] == probe) return waves[i];
    raise("no probe named '%s'", probe.c_str());
}

namespace {

/// Serialised into the failure bundle so a post-mortem sees the exact
/// solver configuration.
obs::JsonObject tran_options_json(const TranOptions& opt) {
    obs::JsonObject o;
    o.emplace("tstop", opt.tstop);
    o.emplace("dt", opt.dt);
    o.emplace("order", opt.order);
    o.emplace("gmin", opt.gmin);
    o.emplace("max_newton", opt.max_newton);
    o.emplace("reltol", opt.reltol);
    o.emplace("vntol", opt.vntol);
    o.emplace("dv_max", opt.dv_max);
    o.emplace("record_start", opt.record_start);
    o.emplace("record_stride", opt.record_stride);
    o.emplace("adaptive", opt.adaptive);
    o.emplace("dt_min", opt.dt_min);
    o.emplace("max_step_retries", opt.max_step_retries);
    o.emplace("dt_recovery_accepts", opt.dt_recovery_accepts);
    o.emplace("lte_control", opt.lte_control);
    o.emplace("certify_enabled", opt.certify.enabled);
    o.emplace("certify_omega_max", opt.certify.omega_max);
    o.emplace("certify_rcond_min", opt.certify.rcond_min);
    o.emplace("certify_refine", opt.certify.refine);
    o.emplace("certify_stride", opt.certify.stride);
    return o;
}

[[noreturn]] void fail_transient(const circuit::Netlist& netlist,
                                 const TranOptions& opt, const TranResult& partial,
                                 const StepTelemetryRing& ring,
                                 const std::vector<double>& last_dx,
                                 const RetryLog& retries, const char* reason,
                                 long step, long nsteps, double time) {
    std::string bundle;
    std::string worst;
    if (!last_dx.empty()) {
        const auto nodes = worst_unknowns(netlist, last_dx, 5);
        if (!nodes.empty())
            worst = format("; worst node '%s' (dv=%.3g)", nodes.front().first.c_str(),
                           nodes.front().second);
        if (opt.diag_bundle) {
            FailureDiagnosis d;
            d.engine = "transient";
            d.reason = reason;
            d.fail_time = time;
            d.fail_step = step;
            d.telemetry = ring.tail();
            d.worst_nodes = nodes;
            d.options = tran_options_json(opt);
            d.partial = &partial;
            d.wave_tail = static_cast<size_t>(opt.diag_wave_tail);
            d.retries = retries.events();
            d.total_retries = retries.total();
            bundle = write_diagnosis_bundle(d, opt.diag_dir);
        }
    }
    std::string retried;
    if (retries.total() > 0)
        retried = format(" after %ld rejected attempts", retries.total());
    raise("transient Newton %s at t=%.4g (step %ld of %ld, dt=%.3g, %zu samples "
          "recorded)%s%s%s%s",
          reason, time, step, nsteps, opt.dt, partial.time.size(), retried.c_str(),
          worst.c_str(), bundle.empty() ? "" : "; diagnosis bundle: ",
          bundle.empty() ? "" : bundle.c_str());
}

/// Merges the per-run checkpoint knobs with the process-default policy and
/// fills the cadence/tag defaults.  Returned dir empty <=> checkpointing
/// off for this run.
CheckpointOptions resolve_checkpoint(const TranOptions& opt) {
    CheckpointOptions c = opt.checkpoint;
    if (c.dir.empty()) {
        const CheckpointOptions& def = default_checkpoint();
        if (def.dir.empty()) {
            if (c.resume)
                raise("transient: checkpoint.resume requested but no "
                      "checkpoint dir is configured (set checkpoint.dir or "
                      "sim::set_default_checkpoint)");
            return c;
        }
        c.dir = def.dir;
        if (c.every_steps <= 0) c.every_steps = def.every_steps;
        if (c.every_s <= 0.0) c.every_s = def.every_s;
        c.resume = c.resume || def.resume;
        if (c.tag.empty()) c.tag = def.tag;
    }
    if (c.every_steps <= 0 && c.every_s <= 0.0) c.every_s = 5.0;
    if (c.tag.empty()) c.tag = "tran";
    return c;
}

/// Resume-time consistency checks beyond the config digest: the snapshot
/// must describe THIS netlist and probe set, under the same RNG seed.
void validate_resume(const TranCheckpoint& c, size_t n,
                     const std::vector<std::string>& probes,
                     const std::string& path) {
    if (c.x_acc.size() != n || c.x_prev.size() != n)
        raise("checkpoint '%s' holds %zu unknowns but the netlist has %zu — "
              "refusing to resume",
              path.c_str(), c.x_acc.size(), n);
    if (c.probe_names != probes || c.waves.size() != probes.size())
        raise("checkpoint '%s' was recorded with different probes — refusing "
              "to resume",
              path.c_str());
    const uint64_t seed = default_rng_seed();
    if (c.rng_seed != seed)
        raise("checkpoint '%s' was written under RNG seed %llu but the "
              "current seed is %llu — refusing to resume",
              path.c_str(), static_cast<unsigned long long>(c.rng_seed),
              static_cast<unsigned long long>(seed));
}

} // namespace

TranResult transient(circuit::Netlist& netlist, const std::vector<std::string>& probes,
                     const TranOptions& opt) {
    validate_tran_options(opt);
    if (opt.observe) obs::set_enabled(true);
    obs::ScopedTimer obs_run("sim/transient", obs::Timing::WhenEnabled,
                             obs::Rss::Track);
    netlist.finalize();
    const size_t n = netlist.unknown_count();

    // Checkpoint policy + resume load happen BEFORE the operating point:
    // a resumed run restores the accepted state instead of re-solving DC.
    const CheckpointOptions cko = resolve_checkpoint(opt);
    const bool ckpt_on = !cko.dir.empty();
    uint64_t ckpt_digest = 0;
    std::string ckpt_file;
    std::optional<TranCheckpoint> res;
    if (ckpt_on) {
        obs::ConfigDigest cd;
        digest_options(cd, opt);
        ckpt_digest = cd.value64();
        ckpt_file = checkpoint_path(cko.dir, cko.tag);
        if (cko.resume) {
            res = load_checkpoint(ckpt_file, ckpt_digest);
            if (res) validate_resume(*res, n, probes, ckpt_file);
        }
    }
    const bool resuming = res.has_value();

    std::vector<double> x;
    if (resuming) {
        x = res->x_acc;
    } else {
        x = opt.initial;
        if (x.empty()) {
            OpOptions oo;
            oo.gmin = opt.gmin;
            // The embedded op inherits the transient's certificate policy so a
            // caller that relaxes thresholds (ablation runs) relaxes both solves.
            oo.certify = opt.certify;
            x = operating_point(netlist, oo);
        }
    }
    SNIM_ASSERT(x.size() == n, "initial point size mismatch");

    if (resuming) {
        // Device state comes from the snapshot, NOT init_tran — the restored
        // values must reproduce the killed run bit-for-bit.
        size_t pos = 0;
        for (const auto& d : netlist.devices()) d->load_tran_state(res->device_state, pos);
        if (pos != res->device_state.size())
            raise("checkpoint '%s' carries %zu device-state values but this "
                  "netlist consumed %zu — refusing to resume",
                  ckpt_file.c_str(), res->device_state.size(), pos);
    } else {
        for (const auto& d : netlist.devices()) d->init_tran(x);
    }

    TranResult out;
    out.probe_names = probes;
    out.waves.resize(probes.size());
    out.dt_sample = opt.dt * opt.record_stride;
    std::vector<circuit::NodeId> probe_ids;
    probe_ids.reserve(probes.size());
    for (const auto& p : probes) probe_ids.push_back(netlist.existing_node(p));

    const long nsteps = static_cast<long>(std::ceil(opt.tstop / opt.dt));
    const size_t est = static_cast<size_t>(
        std::max(0.0, (opt.tstop - opt.record_start) / out.dt_sample)) + 2;
    out.time.reserve(est);
    for (auto& w : out.waves) w.reserve(est);

    // The accepted-step loop (retry ladder, Newton, certificates, step
    // telemetry) lives in the stepper, which rf::oscillator_pss drives too.
    TranStepper st(netlist, opt, x);
    long recorded = 0;
    long averaged = 0;
    if (opt.accumulate_average) out.average.assign(n, 0.0);
    if (resuming) {
        // Replay the recorded prefix and the accumulator state; `average`
        // holds RAW sums until the final divide.
        st.x_prev = res->x_prev;
        recorded = static_cast<long>(res->recorded);
        averaged = static_cast<long>(res->averaged);
        if (opt.accumulate_average) out.average = res->average;
        out.time = res->time;
        out.waves = res->waves;
        st.step_retries = static_cast<long>(res->step_retries);
        st.attempt_no = static_cast<long>(res->attempt_no);
        st.be_steps_done = static_cast<long>(res->be_steps_done);
        st.level = static_cast<int>(res->level);
        st.consecutive_accepts = static_cast<int>(res->consecutive_accepts);
        st.dt_prev = res->dt_prev;
        st.lte_ok = res->lte_ok;
    }

    // Live progress over the nominal grid (heartbeats/ETA); inert unless
    // the event journal or a heartbeat observer is active.
    obs::ProgressScope progress("sim/transient", static_cast<uint64_t>(nsteps));

    const long start_step = resuming ? static_cast<long>(res->step) + 1 : 1;
    if (resuming) {
        if (res->step > nsteps)
            raise("checkpoint '%s' is %lld steps in but this run has only %ld "
                  "— refusing to resume",
                  ckpt_file.c_str(), static_cast<long long>(res->step), nsteps);
        // The ledger merge is monotone, so restoring a later state of the
        // same execution path reproduces the uninterrupted ledger exactly.
        obs::budget_restore(res->budget);
        obs::count("sim/ckpt_resumes");
        obs::event(obs::EventLevel::Info, "ckpt", "ckpt_resume",
                   {{"path", ckpt_file},
                    {"step", static_cast<long>(res->step)},
                    {"of", nsteps},
                    {"samples", static_cast<uint64_t>(out.time.size())}});
        log_info("transient: resumed from '%s' at step %lld of %ld (%zu "
                 "samples replayed)",
                 ckpt_file.c_str(), static_cast<long long>(res->step), nsteps,
                 out.time.size());
        progress.advance(static_cast<uint64_t>(res->step));
    }

    // Snapshot machinery: writing copies state, never mutates it, so the
    // cadence (wall-clock included) cannot change numeric results.
    auto ckpt_last_write = std::chrono::steady_clock::now();
    auto write_snapshot = [&](long steps_done) {
        TranCheckpoint c;
        c.config_digest = ckpt_digest;
        c.rng_seed = default_rng_seed();
        c.step = steps_done;
        c.attempt_no = st.attempt_no;
        c.be_steps_done = st.be_steps_done;
        c.level = st.level;
        c.consecutive_accepts = st.consecutive_accepts;
        c.step_retries = st.step_retries;
        c.recorded = recorded;
        c.averaged = averaged;
        c.dt_prev = st.dt_prev;
        c.lte_ok = st.lte_ok;
        c.x_acc = st.x_acc;
        c.x_prev = st.x_prev;
        for (const auto& d : netlist.devices()) d->save_tran_state(c.device_state);
        c.average = out.average;
        c.probe_names = out.probe_names;
        c.time = out.time;
        c.waves = out.waves;
        c.budget = obs::budget_state();
        try {
            const size_t bytes = write_checkpoint(ckpt_file, c);
            obs::count("sim/ckpt_writes");
            obs::count("sim/ckpt_bytes", bytes);
            obs::event(obs::EventLevel::Info, "ckpt", "ckpt_write",
                       {{"path", ckpt_file},
                        {"step", steps_done},
                        {"of", nsteps},
                        {"bytes", static_cast<uint64_t>(bytes)}});
        } catch (const Error& e) {
            // A failed snapshot must never kill the run: the last-good pair
            // stays on disk and integration continues.
            obs::count("sim/ckpt_write_failures");
            obs::event(obs::EventLevel::Warn, "ckpt", "ckpt_write_failed",
                       {{"path", ckpt_file},
                        {"step", steps_done},
                        {"error", e.what()}});
            log_warn("transient: checkpoint write failed (%s); continuing on "
                     "the last good snapshot",
                     e.what());
        }
        ckpt_last_write = std::chrono::steady_clock::now();
    };

    for (long step = start_step; step <= nsteps; ++step) {
        const double t_nominal = static_cast<double>(step) * opt.dt;
        if (const char* why = st.advance(step, static_cast<double>(step - 1) * opt.dt,
                                         opt.dt, t_nominal)) {
            // Budget exhausted (or recovery disabled): report the failure
            // against the nominal grid the caller knows.
            out.step_retries = st.step_retries;
            fail_transient(netlist, opt, out, st.ring(), st.last_dx(), st.retries(), why,
                           step, nsteps, t_nominal);
        }
        const std::vector<double>& x_acc = st.x_acc;

        // Nominal boundary reached: record on the uniform grid exactly as
        // the fixed-step loop did.
        if (t_nominal >= opt.record_start) {
            if (recorded % opt.record_stride == 0) {
                out.time.push_back(t_nominal);
                for (size_t p = 0; p < probe_ids.size(); ++p)
                    out.waves[p].push_back(circuit::volt(x_acc, probe_ids[p]));
            }
            ++recorded;
            if (opt.accumulate_average) {
                for (size_t i = 0; i < n; ++i) out.average[i] += x_acc[i];
                ++averaged;
            }
        }
        progress.advance();

        if (ckpt_on && step < nsteps) {
            const bool due_steps =
                cko.every_steps > 0 && step % cko.every_steps == 0;
            const bool due_wall =
                cko.every_s > 0.0 &&
                std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              ckpt_last_write)
                        .count() >= cko.every_s;
            if (due_steps || due_wall) write_snapshot(step);
        }
    }
    // Final snapshot: a finished run leaves a step==nsteps checkpoint, so a
    // blanket --resume over a corner sweep replays completed corners
    // instantly and only integrates the unfinished ones.
    if (ckpt_on) write_snapshot(nsteps);
    out.step_retries = st.step_retries;
    if (averaged > 0)
        for (auto& v : out.average) v /= static_cast<double>(averaged);
    return out;
}

TranResult resume_transient(circuit::Netlist& netlist,
                            const std::vector<std::string>& probes,
                            const TranOptions& opt) {
    TranOptions o = opt;
    o.checkpoint.resume = true;
    return transient(netlist, probes, o);
}

} // namespace snim::sim
