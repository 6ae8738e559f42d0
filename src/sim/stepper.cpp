#include "sim/stepper.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "numeric/certify.hpp"
#include "numeric/vecops.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace snim::sim {

namespace {

/// Post-accept KCL conservation audit: the worst per-node current-sum
/// residual |A x - b|_i over the node rows of the freshly assembled system
/// at the accepted solution.  In MNA companion form that residual IS the
/// net device current left sitting on the node, so a healthy accepted step
/// reads near the Newton tolerance and a drifting charge model reads hot.
/// Returns the worst residual and its node index through the out-params.
void kcl_audit(const circuit::Netlist& netlist, const SparseCSC<double>& a,
               const std::vector<double>& b, const std::vector<double>& x,
               double& worst, int& worst_node) {
    const std::vector<double> ax = a.multiply(x);
    worst = 0.0;
    worst_node = -1;
    for (size_t i = 0; i < netlist.node_count(); ++i) {
        const double r = std::fabs(ax[i] - b[i]);
        if (!(r <= worst)) { // NaN ranks worst
            worst = std::isfinite(r) ? r : std::numeric_limits<double>::infinity();
            worst_node = static_cast<int>(i);
        }
    }
}

/// Why one step attempt was rejected.
enum class Reject { none, no_convergence, nonfinite, singular };

const char* reject_name(Reject r) {
    switch (r) {
        case Reject::no_convergence: return "no_convergence";
        case Reject::nonfinite: return "nonfinite_update";
        case Reject::singular: return "singular_system";
        default: return "none";
    }
}

} // namespace

TranStepper::TranStepper(circuit::Netlist& netlist, const TranOptions& opt,
                         std::vector<double> x)
    : x_acc(std::move(x)),
      netlist_(netlist),
      opt_(opt),
      n_(netlist.unknown_count()),
      s_(n_),
      xit_(x_acc),
      last_dx_(n_, 0.0),
      ring_(static_cast<size_t>(opt.diag_tail)),
      retries_(static_cast<size_t>(opt.retry_history)) {
    SNIM_ASSERT(x_acc.size() == n_, "initial point size mismatch");
    x_prev = x_acc;
    // The dt backoff ladder subdivides a step by powers of two: at `level`,
    // micro-steps are h / 2^level and a step is 2^level micro-positions
    // wide.  dt_min (0 -> dt/4096) bounds the subdivision.
    if (opt.adaptive) {
        const double floor_dt = opt.dt_min > 0.0 ? opt.dt_min : opt.dt / 4096.0;
        while (opt.dt / static_cast<double>(1L << (max_level_ + 1)) >= floor_dt &&
               max_level_ < 30)
            ++max_level_;
    }
    lte_reltol_ = opt.lte_reltol > 0.0 ? opt.lte_reltol : opt.reltol;
    lte_abstol_ = opt.lte_abstol > 0.0 ? opt.lte_abstol : opt.vntol;
    // The assembler pre-assembles the linear stamps once, caches companion
    // images per (dt, order) and re-stamps only the nonlinear devices per
    // Newton iteration; its condensed solve eliminates the linear network
    // once per key and per attempt, leaving a small dense factorization of
    // the nonlinear block per iteration (DESIGN.md §14).
    s_.enable_compiled_assembly();
    assembler_.emplace(netlist_, s_, opt.gmin);
}

const char* TranStepper::advance(long step, double t_base, double h, double t_end) {
    const TranOptions& opt = opt_;
    const size_t n = n_;
    TranAssembler& assembler = *assembler_;
    // Position within the step in units of h / 2^level.  The step
    // completes when k reaches 2^level; regrowth halves both the numerator
    // and the denominator, so alignment is exact.
    long k = 0;
    int retries_here = 0;

    while (k < (1L << level)) {
        const double dt_cur = h / static_cast<double>(1L << level);
        circuit::TranParams tp;
        tp.dt = dt_cur;
        // The last micro-step lands on the step boundary *exactly* (the
        // caller's t_end, not t_base + k * dt_cur) so source evaluation and
        // recording stay bit-identical to the fixed-step loop whenever no
        // retry fired.
        tp.time = (k + 1 == (1L << level)) ? t_end
                                            : t_base + static_cast<double>(k + 1) * dt_cur;
        tp.order = (be_steps_done < kBeStartupSteps) ? 1 : opt.order;

        obs::ScopedTimer obs_step("sim/transient/step");

        // Newton iteration, seeded with the LTE gate's linear predictor
        // (the last accepted solution on the first step), which starts
        // close enough that most steps converge in two quadratic
        // iterations instead of three.  x_acc, x_prev and dt_prev are
        // all checkpointed, so a resumed run predicts the exact same
        // starting iterate.
        StepTelemetry tel;
        tel.step = ++attempt_no;
        tel.time = tp.time;
        tel.dt = dt_cur;
        Reject reject = Reject::none;
        bool converged = false;
        double max_dx = 0.0;
        if (dt_prev > 0.0) {
            const double r = dt_cur / dt_prev;
            for (size_t i = 0; i < n; ++i)
                xit_[i] = x_acc[i] + r * (x_acc[i] - x_prev[i]);
        } else {
            xit_ = x_acc;
        }
        {
            obs::ScopedTimer obs_ba("sim/transient/begin_attempt");
            assembler.begin_attempt(xit_, tp);
        }
        for (int it = 0; it < opt.max_newton; ++it) {
            obs::ScopedTimer obs_newton("sim/transient/newton");
            tel.newton_iters = it + 1;
            {
                obs::ScopedTimer obs_asm("sim/transient/newton/assemble");
                assembler.assemble(xit_, tp);
            }
            try {
                obs::ScopedTimer obs_solve("sim/transient/newton/solve");
                if (fault::fires("tran.lu.singular"))
                    raise("fault injected: tran.lu.singular");
                assembler.solve(xn_);
                tel.lu_min_pivot = assembler.solver().min_pivot();
                tel.lu_fill_growth = assembler.solver().fill_growth();
            } catch (const Error&) {
                reject = Reject::singular;
                break;
            }
            if (fault::fires("tran.newton.nonfinite"))
                xn_[0] = std::numeric_limits<double>::quiet_NaN();
            max_dx = 0.0;
            tel.worst_unknown = -1;
            bool nonfinite = false;
            for (size_t i = 0; i < n; ++i) {
                double dx = xn_[i] - xit_[i];
                // A NaN never wins a '>' comparison, so test finiteness
                // explicitly — a poisoned update must trip the recovery
                // ladder, not silently spin until max_newton runs out.
                if (!std::isfinite(dx)) nonfinite = true;
                if (i < netlist_.node_count()) {
                    const double clamped = std::clamp(dx, -opt.dv_max, opt.dv_max);
                    if (clamped != dx) ++tel.clamp_hits;
                    dx = clamped;
                }
                last_dx_[i] = dx;
                if (std::fabs(dx) > max_dx) {
                    max_dx = std::fabs(dx);
                    tel.worst_unknown = static_cast<int>(i);
                }
            }
            // Apply the update and compute ||xit||_inf in one pass (max
            // is order-independent, so this matches norm_inf).
            double xit_norm = 0.0;
            for (size_t i = 0; i < n; ++i) {
                xit_[i] += last_dx_[i];
                xit_norm = std::max(xit_norm, std::fabs(xit_[i]));
            }
            if (nonfinite) {
                reject = Reject::nonfinite;
                break;
            }
            if (max_dx < opt.vntol + opt.reltol * xit_norm) {
                converged = true;
                break;
            }
        }
        if (converged && fault::fires("tran.step.fail")) {
            converged = false;
            reject = Reject::no_convergence;
        }
        if (!converged && reject == Reject::none) reject = Reject::no_convergence;
        tel.residual = max_dx;
        tel.converged = converged;

        // Numerical-health audit of accepted attempts, every
        // certify.stride-th accepted micro-step (be_steps_done counts
        // accepts, so the gate is deterministic).  The certificate covers
        // the final Newton solve whose system is still in the stamper —
        // refinement (if it fires) lands before the LTE gate and commit.
        // Entirely obs-gated: an unobserved run does no extra work.
        if (converged && opt.certify.enabled && obs::enabled() &&
            be_steps_done % opt.certify.stride == 0) {
            obs::ScopedTimer obs_cert("sim/transient/certify");
            const obs::SolveCertificate cert =
                certify_solve(assembler.solver(), s_.csc(), xit_, s_.rhs(), opt.certify);
            tel.cert_omega = cert.omega;
            tel.cert_rcond = cert.rcond;
            obs::record_certificate("transient", cert, opt.certify);

            // Conservation audit at the (possibly refined) accepted
            // solution: re-assemble there and read the node-row residual.
            assembler.assemble(xit_, tp);
            double kcl = 0.0;
            int kcl_node = -1;
            kcl_audit(netlist_, s_.csc(), s_.rhs(), xit_, kcl, kcl_node);
            tel.kcl_residual = kcl;
            obs::ts_append("sim/transient/kcl_residual", tp.time, kcl, "A");
            obs::record_value("sim/kcl_worst_residual", kcl);
            obs::budget_update("sim/kcl", kcl, kKclMax, "A",
                               /*higher_is_worse=*/true,
                               unknown_name(netlist_, kcl_node));
        }
        ring_.push(tel);
        // A fired slow-step fault marks the attempt as pathologically
        // slow in the health lanes (queried unconditionally so firing
        // positions don't depend on whether the registry is on) and
        // actually stalls the thread, so watchdog tests can induce a
        // real hang.  Sleeping cannot change numeric results.
        if (fault::fires("tran.slow_step")) {
            obs::record_value("sim/transient/slow_step_s", 1.0);
            const double stall_s = fault::slow_step_seconds();
            if (stall_s > 0.0)
                std::this_thread::sleep_for(std::chrono::duration<double>(stall_s));
        }
        if (obs::enabled()) {
            obs::count("sim/transient/steps");
            obs::record_value("sim/transient/newton_per_step", tel.newton_iters);
            if (!converged) obs::count("sim/transient/convergence_failures");
            // Solver-health time-series: the per-step view of how hard
            // the engine worked, exported to VCD and Perfetto lanes.
            obs::ts_append("sim/transient/newton_iters", tp.time, tel.newton_iters,
                           "iters");
            obs::ts_append("sim/transient/residual", tp.time,
                           std::isfinite(max_dx) ? max_dx : 0.0, "V");
            obs::ts_append("sim/transient/clamp_hits", tp.time, tel.clamp_hits, "1");
            obs::ts_append("sim/transient/lu_min_pivot", tp.time, tel.lu_min_pivot, "1");
            obs::ts_append("sim/transient/lu_fill_growth", tp.time, tel.lu_fill_growth,
                           "x");
            obs::ts_append("sim/transient/dt", tp.time, dt_cur, "s");
        }

        if (!converged) {
            // Reject the attempt.  Device state only advances in
            // commit_tran, so restoring the iterate to the last accepted
            // solution is the entire rollback.
            const bool can_halve = opt.adaptive && level < max_level_ &&
                                   retries_here < opt.max_step_retries;
            if (!can_halve) {
                // Budget exhausted (or recovery disabled): the caller
                // reports the failure against the grid it knows.
                return reject == Reject::nonfinite ? "produced a non-finite update"
                       : reject == Reject::singular ? "hit a singular system"
                                                    : "did not converge";
            }
            RetryEvent ev;
            ev.step = step;
            ev.time = tp.time;
            ev.dt_from = dt_cur;
            ev.dt_to = dt_cur / 2.0;
            ev.newton_iters = tel.newton_iters;
            ev.reason = reject_name(reject);
            retries_.push(ev);
            ++step_retries;
            ++retries_here;
            obs::count("sim/transient/step_retries");
            log_info("transient: step %ld rejected (%s) at t=%.4g, retrying "
                     "with dt=%.3g",
                     step, ev.reason.c_str(), tp.time, ev.dt_to);
            ++level;
            k *= 2; // same position, finer units
            consecutive_accepts = 0;
            continue;
        }

        // Accept: the LTE gate compares the corrector against a linear
        // predictor extrapolated from the last two accepted states; a
        // large error keeps dt from regrowing (it never rejects).
        if (opt.lte_control && dt_prev > 0.0) {
            double err = 0.0;
            const double r = dt_cur / dt_prev;
            for (size_t i = 0; i < n; ++i) {
                const double pred = x_acc[i] + r * (x_acc[i] - x_prev[i]);
                err = std::max(err, std::fabs(xit_[i] - pred));
            }
            lte_ok = err < lte_reltol_ * norm_inf(xit_) + lte_abstol_;
            if (obs::enabled()) obs::ts_append("sim/transient/lte", tp.time, err, "V");
        }
        // commit_tran is a no-op for LinearStatic devices, so the
        // assembler's partitioned list commits the identical state while
        // skipping the static majority of the netlist.
        assembler.commit(xit_, tp);
        x_prev = x_acc;
        x_acc = xit_;
        dt_prev = dt_cur;
        ++be_steps_done;
        ++k;
        ++consecutive_accepts;

        // Regrow dt (level--) only on even positions, so the coarser
        // grid still lands exactly on the step boundary.
        if (level > 0 && consecutive_accepts >= opt.dt_recovery_accepts && k % 2 == 0 &&
            lte_ok) {
            --level;
            k /= 2;
            consecutive_accepts = 0;
        }
    }
    return nullptr;
}

} // namespace snim::sim
