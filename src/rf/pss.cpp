#include "rf/pss.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <typeinfo>

#include "obs/trace.hpp"
#include "sim/op.hpp"
#include "sim/stepper.hpp"
#include "util/fault.hpp"
#include "util/units.hpp"

namespace snim::rf {

namespace {

/// Warm-up ends when the probe's period and amplitude each change by less
/// than this fraction from one period to the next.
constexpr double kWarmupDrift = 1e-2;
/// Newton converges when every scaled residual entry is below this: the
/// image mismatch over one period relative to the swing of its quantity,
/// and the phase-condition miss relative to the probe amplitude.  K_src is
/// a frequency difference of ~1e-6 relative between two orbits, so the
/// period must be exact to ~1e-10.
constexpr double kResidualTol = 1e-10;
/// A Newton step that cannot lower a residual above this is a divergence,
/// not the noise floor of the per-step Newton solves.
constexpr double kStallFloor = 1e-6;
constexpr int kMaxNewton = 12;
/// New Krylov products per Newton iteration, and directions kept for reuse.
constexpr int kMaxKrylov = 40;
constexpr size_t kMaxRecycled = 24;
/// Forward-difference step of a Krylov product, in scaled state units.
constexpr double kFdStep = 1e-5;

double dot(const std::vector<double>& a, const std::vector<double>& b) {
    double s = 0.0;
    for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
}

/// GCR on J d = b, starting from the directions of `shared` (when given)
/// and `own` (c = J u, orthonormal together); the new directions it learns
/// go to `own`, one product each.  Directions recycled from earlier Newton
/// iterations or runs carry their Jacobian, not the current one; Newton's
/// outer iteration absorbs that.  Stops at ||b - J d||_2 <= tol ||b||_2 or
/// after kMaxKrylov new products.
std::vector<double> gcr(const std::function<void(const std::vector<double>&,
                                                 std::vector<double>&)>& apply,
                        const std::vector<double>& b, double tol, const PssKrylov* shared,
                        PssKrylov& own) {
    std::vector<double> d(b.size(), 0.0), r = b;
    const double target = tol * std::sqrt(dot(b, b));
    auto each = [&](auto&& fn) {
        if (shared)
            for (size_t k = 0; k < shared->u.size(); ++k) fn(shared->u[k], shared->c[k]);
        for (size_t k = 0; k < own.u.size(); ++k) fn(own.u[k], own.c[k]);
    };
    auto take = [&](const std::vector<double>& u, const std::vector<double>& c) {
        const double alpha = dot(c, r);
        for (size_t i = 0; i < d.size(); ++i) {
            d[i] += alpha * u[i];
            r[i] -= alpha * c[i];
        }
    };
    each(take);
    std::vector<double> q;
    for (int fresh = 0; fresh < kMaxKrylov && std::sqrt(dot(r, r)) > target; ++fresh) {
        std::vector<double> p = r;
        apply(p, q);
        each([&](const std::vector<double>& u, const std::vector<double>& c) {
            const double beta = dot(c, q);
            for (size_t i = 0; i < q.size(); ++i) {
                q[i] -= beta * c[i];
                p[i] -= beta * u[i];
            }
        });
        const double nq = std::sqrt(dot(q, q));
        if (!(nq > 0.0)) break;
        for (size_t i = 0; i < q.size(); ++i) {
            q[i] /= nq;
            p[i] /= nq;
        }
        own.u.push_back(std::move(p));
        own.c.push_back(q);
        take(own.u.back(), own.c.back());
    }
    return d;
}

/// One integrated period: S equal steps of T / S.
struct Period {
    std::vector<double> x_end;   // solution at the period end
    std::vector<double> img_end; // integration-state image there
    // Base periods only: d/dT of the end state (the trajectory's slope at
    // the end, from its last three states), the probe at t = 0 (the end
    // state), h, ..., (S - 1) h, the period integral of every unknown, and
    // the swing of each image entry.
    std::vector<double> x_dt, img_dt;
    std::vector<double> wave;
    std::vector<double> x_integral;
    std::vector<double> img_min, img_max;
};

/// A converged orbit on one grid of S steps.
struct Orbit {
    double period = 0.0;
    Period base;               // the converged period
    std::vector<char> dynamic; // image entries that move
    int iterations = 0;
};

class Shooter {
public:
    Shooter(circuit::Netlist& netlist, const OscOptions& opt) : nl_(netlist), opt_(opt) {
        nl_.finalize();
        to_.tstop = opt.settle + opt.capture;
        to_.dt = opt.dt;
        to_.order = opt.order;
        to_.gmin = opt.gmin;
        to_.certify = opt.certify;
        sim::validate_tran_options(to_);
        p_ = nl_.existing_node(opt.probe_p);
        q_ = opt.probe_n.empty() ? circuit::kGround : nl_.existing_node(opt.probe_n);
        sim::OpOptions oo;
        oo.gmin = opt.gmin;
        oo.certify = opt.certify;
        const auto x = sim::operating_point(nl_, oo);
        for (const auto& d : nl_.devices()) d->init_tran(x);
        st_ = std::make_unique<sim::TranStepper>(nl_, to_, x);
    }

    double probe(const std::vector<double>& x) const {
        return circuit::volt(x, p_) - circuit::volt(x, q_);
    }
    void save(std::vector<double>& img) const {
        img.clear();
        for (const auto& d : nl_.devices()) d->save_tran_state(img);
    }
    void load(const std::vector<double>& img) {
        size_t pos = 0;
        for (const auto& d : nl_.devices()) d->load_tran_state(img, pos);
    }
    sim::TranStepper& stepper() { return *st_; }
    const OscOptions& options() const { return opt_; }
    circuit::Netlist& netlist() { return nl_; }
    long steps() const { return steps_; }
    long periods() const { return periods_; }

    /// One accepted step of length h from t; raises PssError on failure.
    void step(double t, double h) {
        if (const char* why = st_->advance(++label_, t, h, t + h))
            throw PssError(format("oscillator PSS: transient step %s at t=%.4g", why, t + h));
        ++steps_;
    }

    /// Integrates one period T in S equal steps from (x guess, image),
    /// starting at source time t0; `base` records the outputs of a base
    /// period.
    void period(const std::vector<double>& x, const std::vector<double>& img, double t0,
                double T, long S, bool base, Period& out) {
        ++periods_;
        load(img);
        sim::TranStepper& st = *st_;
        st.x_acc = x;
        st.x_prev = x;
        st.dt_prev = 0.0;
        st.level = 0;
        st.consecutive_accepts = 0;
        const double h = T / static_cast<double>(S);
        const size_t n = x.size();
        if (base) {
            out.wave.assign(1, 0.0);
            out.x_integral.assign(n, 0.0);
            out.img_min = img;
            out.img_max = img;
        }
        std::vector<double> x1, x2, img1, img2; // the two states before the end
        for (long k = 1; k <= S; ++k) {
            if (base && k >= S - 1) {
                x2.swap(x1);
                img2.swap(img1);
                x1 = st.x_acc;
                save(img1);
            }
            step(t0 + static_cast<double>(k - 1) * h, h);
            if (!base) continue;
            save(img_scratch_);
            for (size_t i = 0; i < img_scratch_.size(); ++i) {
                out.img_min[i] = std::min(out.img_min[i], img_scratch_[i]);
                out.img_max[i] = std::max(out.img_max[i], img_scratch_[i]);
            }
            if (k < S) {
                out.wave.push_back(probe(st.x_acc));
                for (size_t i = 0; i < n; ++i) out.x_integral[i] += h * st.x_acc[i];
            }
        }
        out.x_end = st.x_acc;
        save(out.img_end);
        if (base) {
            out.wave[0] = probe(out.x_end);
            for (size_t i = 0; i < n; ++i) out.x_integral[i] += h * out.x_end[i];
            // Second-order backward difference of the trajectory at the end.
            auto slope = [h](const std::vector<double>& a2, const std::vector<double>& a1,
                             const std::vector<double>& a0, std::vector<double>& d) {
                d.resize(a0.size());
                for (size_t i = 0; i < d.size(); ++i)
                    d[i] = (3.0 * a0[i] - 4.0 * a1[i] + a2[i]) / (2.0 * h);
            };
            slope(x2, x1, out.x_end, out.x_dt);
            slope(img2, img1, out.img_end, out.img_dt);
        }
    }

private:
    circuit::Netlist& nl_;
    const OscOptions& opt_;
    sim::TranOptions to_;
    circuit::NodeId p_ = circuit::kGround, q_ = circuit::kGround;
    std::unique_ptr<sim::TranStepper> st_;
    std::vector<double> img_scratch_;
    long label_ = 0;
    long steps_ = 0;
    long periods_ = 0;
};

/// Shooting Newton for the orbit on a grid of S equal steps, from the
/// Newton guess x and start image img with period guess T.
Orbit shoot(Shooter& sh, std::vector<double> x, std::vector<double> img, double T, long S,
            double t0, double level, std::shared_ptr<const PssKrylov> shared,
            PssKrylov& own) {
    const double dt = sh.options().dt;
    Orbit orb;

    // The first base period fixes the unknowns (image entries that move)
    // and their scales: the largest swing among the entries of the same
    // device type and image slot, i.e. of the same physical quantity.
    Period base;
    sh.period(x, img, t0, T, S, true, base);
    orb.dynamic.assign(img.size(), 0);
    for (size_t i = 0; i < img.size(); ++i)
        orb.dynamic[i] = base.img_max[i] > base.img_min[i] ? 1 : 0;
    // Directions learned on another orbit are reused only in the same
    // coordinates: the same unknowns with the same scales.
    bool same = shared && shared->active.size() == static_cast<size_t>(std::count(
                                                       orb.dynamic.begin(), orb.dynamic.end(), 1));
    for (size_t a = 0; same && a < shared->active.size(); ++a)
        same = orb.dynamic[shared->active[a]];
    own = PssKrylov{};
    if (same) {
        own.active = shared->active;
        own.scale = shared->scale;
        own.probe_scale = shared->probe_scale;
        own.time_scale = shared->time_scale;
    } else {
        shared.reset();
        std::map<std::pair<std::string, size_t>, double> swing;
        std::vector<std::pair<std::string, size_t>> key;
        std::vector<double> one;
        for (const auto& d : sh.netlist().devices()) {
            one.clear();
            d->save_tran_state(one);
            for (size_t j = 0; j < one.size(); ++j) key.emplace_back(typeid(*d).name(), j);
        }
        for (size_t i = 0; i < img.size(); ++i) {
            double& s = swing[key[i]];
            s = std::max(s, base.img_max[i] - base.img_min[i]);
        }
        for (size_t i = 0; i < img.size(); ++i) {
            if (!orb.dynamic[i]) continue;
            own.active.push_back(i);
            own.scale.push_back(swing[key[i]]);
        }
        const auto [wmin, wmax] = std::minmax_element(base.wave.begin(), base.wave.end());
        own.probe_scale = 0.5 * (*wmax - *wmin);
        own.time_scale = T / units::kTwoPi;
    }
    const std::vector<size_t>& active = own.active;
    const std::vector<double>& scale = own.scale;
    const double sp = own.probe_scale;
    if (!(sp > 1e-6)) throw PssError("oscillator PSS: negligible probe swing");
    const double ts = own.time_scale;
    const size_t m = active.size();
    // Directions that belong to another Jacobian are dropped, shared and
    // own alike (the shared basis itself stays intact for other runs).
    auto drop_directions = [&] {
        shared.reset();
        own.u.clear();
        own.c.clear();
    };

    auto residual = [&](const Period& p, const std::vector<double>& z, std::vector<double>& r) {
        r.resize(m + 1);
        double worst = 0.0;
        for (size_t a = 0; a < m; ++a) {
            r[a] = (p.img_end[active[a]] - z[active[a]]) / scale[a];
            worst = std::max(worst, std::fabs(r[a]));
        }
        r[m] = (sh.probe(p.x_end) - level) / sp;
        return std::max(worst, std::fabs(r[m]));
    };

    std::vector<double> r;
    double rn = residual(base, img, r);
    for (int it = 0;; ++it) {
        const bool diverge = fault::fires("rf.pss.diverge");
        if (!diverge && rn <= kResidualTol) {
            orb.iterations = it;
            break;
        }
        if (diverge) throw PssError("oscillator PSS: fault injected: rf.pss.diverge");
        if (it == kMaxNewton)
            throw PssError(format("oscillator PSS: Newton did not converge in %d iterations "
                                  "(scaled residual %.3g)",
                                  it, rn));
        std::vector<double> pt(m);
        for (size_t a = 0; a < m; ++a) pt[a] = base.img_dt[active[a]] * ts / scale[a];
        const double gt = sh.probe(base.x_dt) * ts / sp;

        // Bordered Jacobian [P_z - I, P_T; g_z, g_T]; each product costs
        // one period integrated from a perturbed start image.
        Period pert;
        std::vector<double> zp;
        auto apply = [&](const std::vector<double>& v, std::vector<double>& jv) {
            jv.assign(m + 1, 0.0);
            double wn = 0.0;
            for (size_t a = 0; a < m; ++a) wn += v[a] * v[a];
            wn = std::sqrt(wn);
            if (wn > 0.0) {
                const double eps = kFdStep / wn;
                zp = img;
                for (size_t a = 0; a < m; ++a) zp[active[a]] += eps * scale[a] * v[a];
                sh.period(x, zp, t0, T, S, false, pert);
                for (size_t a = 0; a < m; ++a) {
                    const size_t i = active[a];
                    jv[a] = (pert.img_end[i] - base.img_end[i]) / (eps * scale[a]) - v[a];
                }
                jv[m] = (sh.probe(pert.x_end) - sh.probe(base.x_end)) / (eps * sp);
            }
            for (size_t a = 0; a < m; ++a) jv[a] += pt[a] * v[m];
            jv[m] += gt * v[m];
        };
        std::vector<double> rhs(m + 1);
        for (size_t a = 0; a <= m; ++a) rhs[a] = -r[a];
        const bool recycled = shared || !own.u.empty();
        const auto dz = gcr(apply, rhs, std::clamp(rn, 1e-3, 1e-1), shared.get(), own);
        const size_t keep = kMaxRecycled - std::min(kMaxRecycled, shared ? shared->u.size() : 0);
        if (own.u.size() > keep) {
            own.u.resize(keep);
            own.c.resize(keep);
        }

        // Damped update: halve the step while the residual grows.  A step
        // that still grows it after three halvings means Newton has left
        // the orbit's basin (or a mode is too slow to settle: a floating
        // node whose only DC path is gmin), unless recycled directions
        // misled it: those are dropped and the iteration is retried.
        double lambda = 1.0;
        for (int tries = 0;; ++tries) {
            std::vector<double> z = img;
            for (size_t a = 0; a < m; ++a) z[active[a]] += lambda * scale[a] * dz[a];
            const double tn = T + lambda * ts * dz[m];
            Period trial;
            std::vector<double> rt;
            double rtn = std::numeric_limits<double>::infinity();
            if (tn > 8.0 * dt) {
                sh.period(base.x_end, z, t0, tn, S, true, trial);
                rtn = residual(trial, z, rt);
            }
            const bool last = tries == 3;
            if (last && !(rtn < rn) && (rtn > kStallFloor || !std::isfinite(rtn))) {
                if (recycled) {
                    drop_directions();
                    break;
                }
                throw PssError(format("oscillator PSS: Newton diverged (scaled residual "
                                      "%.3g -> %.3g)",
                                      rn, rtn));
            }
            if (rtn < rn || last) {
                // Recycled directions that no longer buy a tenfold drop
                // belong to another Jacobian; the next iteration learns
                // fresh ones.
                if (recycled && !(rtn < 0.1 * rn)) drop_directions();
                x = base.x_end;
                img = std::move(z);
                T = tn;
                base = std::move(trial);
                r = std::move(rt);
                rn = rtn;
                break;
            }
            lambda *= 0.5;
        }
    }
    orb.period = T;
    orb.base = std::move(base);
    return orb;
}

/// Amplitude and mean of the probe's fundamental over one period of
/// uniform samples.
void fundamental(const std::vector<double>& s, double& amplitude, double& mean) {
    const double n = static_cast<double>(s.size());
    std::complex<double> c1 = 0.0;
    double sum = 0.0;
    for (size_t k = 0; k < s.size(); ++k) {
        sum += s[k];
        c1 += s[k] * std::polar(1.0, -units::kTwoPi * static_cast<double>(k) / n);
    }
    mean = sum / n;
    amplitude = 2.0 * std::abs(c1) / n;
}

} // namespace

OscPss oscillator_pss(circuit::Netlist& netlist, const OscOptions& opt, const OscPss* start) {
    SNIM_ASSERT(!opt.probe_p.empty(), "oscillator PSS needs a probe");
    obs::ScopedTimer obs_run("rf/pss");
    Shooter sh(netlist, opt);
    sim::TranStepper& st = sh.stepper();
    const double dt = opt.dt;

    OscPss out;
    std::vector<double> x, img;
    double period = 0.0, t0 = 0.0, level = 0.0;
    long grid = 0;
    if (start) {
        // Constants of the integration state (MOSFET linearized caps, the
        // state of devices at rest) come from this circuit's operating
        // point; the entries that move along the orbit come from `start`.
        sh.save(img);
        if (start->state0.size() != img.size() || start->x0.size() != st.x_acc.size())
            throw PssError("oscillator PSS: the start orbit belongs to another netlist");
        for (size_t i = 0; i < img.size(); ++i)
            if (start->dynamic[i]) img[i] = start->state0[i];
        x = start->x0;
        period = start->grid_period;
        grid = start->grid;
        t0 = start->t0;
        level = start->level;
        st.be_steps_done = std::max<long>(st.be_steps_done, sim::kBeStartupSteps);
    } else {
        // Warm-up: the brute-force capture's own prefix, until the period
        // and amplitude of the probe settle from one period to the next.
        const long budget = static_cast<long>(std::ceil((opt.settle + opt.capture) / dt));
        double v_prev = sh.probe(st.x_acc);
        double cross_level = v_prev;
        double vmin = v_prev, vmax = v_prev;
        double t_cross = -1.0, period_prev = 0.0, amp_prev = 0.0;
        for (long k = 1; k <= budget && period == 0.0; ++k) {
            sh.step(static_cast<double>(k - 1) * dt, dt);
            const double v = sh.probe(st.x_acc);
            vmin = std::min(vmin, v);
            vmax = std::max(vmax, v);
            if (v_prev < cross_level && v >= cross_level) {
                const double tc = static_cast<double>(k - 1) * dt +
                                  dt * (cross_level - v_prev) / (v - v_prev);
                const double amp = 0.5 * (vmax - vmin);
                if (t_cross >= 0.0) {
                    const double pj = tc - t_cross;
                    const double f = 1.0 / pj;
                    if (period_prev > 0.0 && amp > 1e-6 && f > opt.f_min && f < opt.f_max &&
                        std::fabs(pj - period_prev) <= kWarmupDrift * pj &&
                        std::fabs(amp - amp_prev) <= kWarmupDrift * amp) {
                        period = pj;
                        level = cross_level;
                        t0 = static_cast<double>(k) * dt;
                        x = st.x_acc;
                        sh.save(img);
                    }
                    period_prev = pj;
                    amp_prev = amp;
                }
                t_cross = tc;
                cross_level = 0.5 * (vmax + vmin);
                vmin = vmax = v;
            }
            v_prev = v;
        }
        if (period == 0.0)
            throw PssError(format("oscillator PSS: no steady oscillation in [%.3g, %.3g] Hz "
                                  "within %.3g s of warm-up",
                                  opt.f_min, opt.f_max, opt.settle + opt.capture));
        obs::count("rf/pss_warmup_steps", static_cast<uint64_t>(sh.steps()));
        // The coarser grid: the largest odd step count whose steps are not
        // shorter than dt.
        grid = 2 * static_cast<long>(std::floor(0.5 * (period / dt - 1.0))) + 1;
    }
    if (grid < 9)
        throw PssError(format("oscillator PSS: period %.3g s is under 9 steps of %.3g s",
                              period, dt));

    // The orbit on the grid of `grid` equal steps, read out like a capture.
    PssKrylov own;
    const Orbit lo =
        shoot(sh, x, img, period, grid, t0, level, start ? start->krylov : nullptr, own);
    // A warm start hands on the basis it started from; its own directions
    // die with it, so every warm start of one orbit sees the same basis.
    out.krylov = start ? start->krylov : std::make_shared<PssKrylov>(std::move(own));
    OscCapture& cap = out.capture;
    cap.fc = 1.0 / lo.period;
    fundamental(lo.base.wave, cap.amplitude, cap.mean);
    cap.node_avg = lo.base.x_integral;
    for (auto& v : cap.node_avg) v /= lo.period;
    cap.wave = lo.base.wave;
    cap.fs = static_cast<double>(grid) / lo.period;
    int iterations = lo.iterations;
    if (start) {
        out.shift = start->shift;
    } else {
        // A trapezoidal orbit moves in h^2.  A second orbit on grid + 2
        // (steps shorter than dt) brackets dt; the read-out interpolated to
        // h = dt gives the shift, which warm starts reuse (DESIGN.md §15).
        PssKrylov own_hi;
        const Orbit hi = shoot(sh, lo.base.x_end, lo.base.img_end, lo.period, grid + 2, t0,
                               level, out.krylov, own_hi);
        iterations += hi.iterations;
        const double h_lo = lo.period / static_cast<double>(grid);
        const double h_hi = hi.period / static_cast<double>(grid + 2);
        const double w = (dt * dt - h_lo * h_lo) / (h_hi * h_hi - h_lo * h_lo);
        double amp_hi, mean_hi;
        fundamental(hi.base.wave, amp_hi, mean_hi);
        out.shift.fc = w * (1.0 / hi.period - cap.fc);
        out.shift.amplitude = w * (amp_hi - cap.amplitude);
        out.shift.mean = w * (mean_hi - cap.mean);
        out.shift.node_avg.resize(cap.node_avg.size());
        for (size_t i = 0; i < cap.node_avg.size(); ++i)
            out.shift.node_avg[i] = w * (hi.base.x_integral[i] / hi.period - cap.node_avg[i]);
    }
    cap.fc += out.shift.fc;
    cap.amplitude += out.shift.amplitude;
    cap.mean += out.shift.mean;
    for (size_t i = 0; i < cap.node_avg.size(); ++i) cap.node_avg[i] += out.shift.node_avg[i];
    if (!(cap.fc > opt.f_min && cap.fc < opt.f_max))
        throw PssError(format("oscillator PSS: orbit frequency %.4g Hz outside [%.3g, %.3g]",
                              cap.fc, opt.f_min, opt.f_max));
    out.period = 1.0 / cap.fc;
    out.newton_iterations = iterations;
    out.steps = sh.steps();
    out.grid = grid;
    out.grid_period = lo.period;
    out.x0 = lo.base.x_end;
    out.state0 = lo.base.img_end;
    out.dynamic = lo.dynamic;
    out.t0 = t0;
    out.level = level;
    obs::count("rf/pss_newton_iters", static_cast<uint64_t>(out.newton_iterations));
    obs::count("rf/pss_periods", static_cast<uint64_t>(sh.periods()));
    return out;
}

} // namespace snim::rf
