#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>

#include "mor/elimination.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace snim::mor {

namespace {

/// Right-hand sides one block CG sweep serves: one SpMV and one IC(0)
/// forward/backward sweep over Gii advance this many columns, and the inner
/// loop over the lanes gives the CPU that many independent dependency
/// chains per row of the (latency-bound) triangular sweeps.
constexpr size_t kLanes = 4;

/// The internal-internal conductance block Gii of a conductance network:
/// its strictly lower triangle in CSR (columns ascending, parallel edges
/// merged) plus the diagonal, and the IC(0) factor L on the same pattern,
/// Gii ~= L L^T.  Gii is a symmetric M-matrix, so the incomplete Cholesky
/// pivots are positive by construction and no mesh geometry is needed.
/// The block operations take kLanes interleaved columns, v[i * kLanes + c],
/// and run each column in exactly the order of a one-column loop.
struct InternalBlock {
    size_t n = 0;
    std::vector<int> ptr, idx;   // strict lower triangle
    std::vector<double> val;     // Gii(i, idx) = minus the edge conductance
    std::vector<double> diag;    // Gii(i, i)
    std::vector<double> lval;    // L(i, idx)
    std::vector<double> linv;    // 1 / L(i, i)

    /// Y = Gii X from the lower triangle (each edge read once, used twice).
    void multiply(const double* x, double* y) const {
        for (size_t i = 0; i < n; ++i) {
            double xi[kLanes], s[kLanes];
            for (size_t c = 0; c < kLanes; ++c) {
                xi[c] = x[i * kLanes + c];
                s[c] = diag[i] * xi[c];
            }
            for (int p = ptr[i]; p < ptr[i + 1]; ++p) {
                const auto k = static_cast<size_t>(idx[static_cast<size_t>(p)]);
                const double v = val[static_cast<size_t>(p)];
                for (size_t c = 0; c < kLanes; ++c) {
                    s[c] += v * x[k * kLanes + c];
                    y[k * kLanes + c] += v * xi[c];
                }
            }
            for (size_t c = 0; c < kLanes; ++c) y[i * kLanes + c] = s[c];
        }
    }

    /// IC(0): L(i,k) = (Gii(i,k) - sum_j L(i,j) L(k,j)) / L(k,k) over the
    /// pattern of Gii, L(i,i) = sqrt(Gii(i,i) - sum_k L(i,k)^2).  A pivot
    /// that is not positive and finite names its row and raises.
    void factor(const std::vector<int>& internal_of) {
        lval.assign(val.size(), 0.0);
        linv.assign(n, 0.0);
        for (size_t i = 0; i < n; ++i) {
            const auto row_end = static_cast<size_t>(ptr[i + 1]);
            double d = diag[i];
            for (auto p = static_cast<size_t>(ptr[i]); p < row_end; ++p) {
                const auto k = static_cast<size_t>(idx[p]);
                double s = val[p];
                // Sparse dot of row i (columns before k) with row k.
                auto q = static_cast<size_t>(ptr[i]);
                auto r = static_cast<size_t>(ptr[k]);
                const auto k_end = static_cast<size_t>(ptr[k + 1]);
                while (q < p && r < k_end) {
                    if (idx[q] < idx[r]) {
                        ++q;
                    } else if (idx[r] < idx[q]) {
                        ++r;
                    } else {
                        s -= lval[q++] * lval[r++];
                    }
                }
                lval[p] = s * linv[k];
                d -= lval[p] * lval[p];
            }
            if (!(d > 0.0) || !std::isfinite(d)) {
                const auto node = std::find(internal_of.begin(), internal_of.end(),
                                            static_cast<int>(i)) -
                                  internal_of.begin();
                raise("substrate reduction: IC(0) pivot %g at Gii row %zu "
                      "(network node %td) is not positive and finite",
                      d, i, node);
            }
            linv[i] = 1.0 / std::sqrt(d);
        }
    }

    /// Z = (L L^T)^-1 R: forward substitution, then backward in place.
    void precondition(const double* r, double* z) const {
        for (size_t i = 0; i < n; ++i) {
            double s[kLanes];
            for (size_t c = 0; c < kLanes; ++c) s[c] = r[i * kLanes + c];
            for (int p = ptr[i]; p < ptr[i + 1]; ++p) {
                const double l = lval[static_cast<size_t>(p)];
                const double* zk =
                    z + static_cast<size_t>(idx[static_cast<size_t>(p)]) * kLanes;
                for (size_t c = 0; c < kLanes; ++c) s[c] -= l * zk[c];
            }
            for (size_t c = 0; c < kLanes; ++c) z[i * kLanes + c] = s[c] * linv[i];
        }
        for (size_t i = n; i-- > 0;) {
            double zi[kLanes];
            for (size_t c = 0; c < kLanes; ++c) {
                zi[c] = z[i * kLanes + c] * linv[i];
                z[i * kLanes + c] = zi[c];
            }
            for (int p = ptr[i]; p < ptr[i + 1]; ++p) {
                const double l = lval[static_cast<size_t>(p)];
                double* zk = z + static_cast<size_t>(idx[static_cast<size_t>(p)]) * kLanes;
                for (size_t c = 0; c < kLanes; ++c) zk[c] -= l * zi[c];
            }
        }
    }
};

/// Outcome of one CG solve: iterations done and relative residual reached
/// (the defaults are a solve that has not iterated yet).
struct CgResult {
    bool converged = false;
    int iters = 0;
    double rel_res = 1.0;
};

/// The column a block CG stopped at, and how far its solve got.
struct CgFailure {
    size_t col = 0;
    CgResult res;
};

/// IC(0)-preconditioned block CG for Gii x_c = b_c, c = 0..ncols-1, on a
/// pool of kLanes lanes: a lane whose column finishes takes the next one.
/// Each column runs the one-column recurrence in its operation order (the
/// same per-row sums, dot products accumulated over ascending rows, the same
/// exits), so x_c is bitwise what solving column c alone gives, whatever
/// shares its sweeps.  A column stops at ||r|| <= tol ||b||, and fails on a
/// non-positive or NaN curvature, a non-finite residual or max_iter.
///
/// `load(c, b)` adds b_c into b[k * kLanes] (zero on entry).  `done(c, x)`
/// gets the converged x_c as x[k * kLanes] and copies what it keeps; a zero
/// b_c takes no lane and is done at once with x_c = 0.  After a failure no
/// column starts and the columns above it are dropped, while the ones
/// below finish: the failure returned is the lowest failing column, the one
/// a column-by-column loop stops at.  "mor/cg_iters" records each converged
/// solve and the returned failure; "mor/cg_sweeps" counts the block sweeps.
template <class Load, class Done>
std::optional<CgFailure> block_pcg(const InternalBlock& a, size_t ncols, double tol,
                                   int max_iter, Load&& load, Done&& done) {
    constexpr size_t W = kLanes;
    const size_t n = a.n;
    // q holds A p, then z: A p is dead once r is updated.
    std::vector<double> x(n * W, 0.0), r(n * W, 0.0), p(n * W, 0.0), q(n * W);
    struct Lane {
        bool busy = false, fresh = false;
        size_t col = 0;
        double bnorm = 0.0, rz = 0.0;
        CgResult res;
    };
    std::array<Lane, W> lane{};
    std::optional<CgFailure> fail;
    size_t next = 0;
    uint64_t sweeps = 0;

    auto retire = [&](size_t l) {
        lane[l].busy = false;
        for (size_t i = 0; i < n; ++i) x[i * W + l] = r[i * W + l] = p[i * W + l] = 0.0;
    };
    auto note_failure = [&](size_t l) {
        if (!fail || lane[l].col < fail->col) fail = CgFailure{lane[l].col, lane[l].res};
        retire(l);
        for (size_t m = 0; m < W; ++m)
            if (lane[m].busy && lane[m].col > fail->col) retire(m);
    };
    auto fill = [&](size_t l) {
        while (!fail && next < ncols) {
            const size_t c = next++;
            load(c, r.data() + l);
            double bnorm = 0.0;
            for (size_t i = 0; i < n; ++i) bnorm += r[i * W + l] * r[i * W + l];
            bnorm = std::sqrt(bnorm);
            if (bnorm == 0.0) {
                done(c, x.data() + l);
                retire(l); // b may hold values whose squares underflow
                continue;
            }
            lane[l] = Lane{true, true, c, bnorm, 0.0, CgResult{}};
            if (max_iter <= 0) note_failure(l);
            return;
        }
    };

    for (;;) {
        for (size_t l = 0; l < W; ++l)
            if (!lane[l].busy) fill(l);
        if (std::none_of(lane.begin(), lane.end(), [](const Lane& s) { return s.busy; }))
            break;
        ++sweeps;

        // z = M^-1 r, then p = z (first step) or z + beta p.
        a.precondition(r.data(), q.data());
        double rz[W] = {}, beta[W] = {};
        for (size_t i = 0; i < n; ++i)
            for (size_t c = 0; c < W; ++c) rz[c] += r[i * W + c] * q[i * W + c];
        for (size_t c = 0; c < W; ++c) {
            if (lane[c].busy && !lane[c].fresh) beta[c] = rz[c] / lane[c].rz;
            lane[c].rz = rz[c];
        }
        for (size_t i = 0; i < n; ++i)
            for (size_t c = 0; c < W; ++c) p[i * W + c] = q[i * W + c] + beta[c] * p[i * W + c];
        for (size_t c = 0; c < W; ++c) {
            if (!lane[c].fresh) continue;
            lane[c].fresh = false;
            // p = z exactly: z + 0 * p would turn a -0.0 into +0.0.
            for (size_t i = 0; i < n; ++i) p[i * W + c] = q[i * W + c];
        }

        a.multiply(p.data(), q.data());
        double pap[W] = {}, alpha[W] = {}, rnorm[W] = {};
        for (size_t i = 0; i < n; ++i)
            for (size_t c = 0; c < W; ++c) pap[c] += p[i * W + c] * q[i * W + c];
        for (size_t c = 0; c < W; ++c)
            if (lane[c].busy && pap[c] > 0.0) alpha[c] = lane[c].rz / pap[c];
        for (size_t i = 0; i < n; ++i)
            for (size_t c = 0; c < W; ++c) {
                x[i * W + c] += alpha[c] * p[i * W + c];
                r[i * W + c] -= alpha[c] * q[i * W + c];
                rnorm[c] += r[i * W + c] * r[i * W + c];
            }

        // Failures first: each one drops the columns above it, which must
        // then not be recorded even if they converged in this sweep.
        for (size_t l = 0; l < W; ++l) {
            Lane& s = lane[l];
            if (!s.busy) continue;
            const bool broke = !(pap[l] > 0.0); // lost positive definiteness, or NaN
            if (!broke) {
                ++s.res.iters;
                s.res.rel_res = std::sqrt(rnorm[l]) / s.bnorm;
                s.res.converged = s.res.rel_res <= tol;
            }
            if (broke || !std::isfinite(s.res.rel_res) ||
                (!s.res.converged && s.res.iters >= max_iter))
                note_failure(l);
        }
        for (size_t l = 0; l < W; ++l) {
            if (!lane[l].busy || !lane[l].res.converged) continue;
            if (obs::enabled()) obs::record_value("mor/cg_iters", lane[l].res.iters);
            done(lane[l].col, x.data() + l);
            retire(l);
        }
    }
    if (obs::enabled()) {
        obs::count("mor/cg_sweeps", sweeps);
        if (fail) obs::record_value("mor/cg_iters", fail->res.iters);
    }
    return fail;
}

/// The conductance network partitioned into port/internal blocks:
/// Gii (with its IC(0) factor), Gip (per-port sparse columns), dense Gpp,
/// ground legs.  Shared by the Schur reduction and the reduction-error
/// probes so both sides of the comparison see the identical assembly
/// (regularisation included).
struct PartitionedG {
    size_t np = 0, ni = 0;
    std::vector<int> port_of, internal_of; // global node -> block index or -1
    InternalBlock a;                       // Gii, factored
    std::vector<std::vector<std::pair<int, double>>> gip; // port -> (internal, g)
    std::vector<std::vector<double>> gpp;
    std::vector<double> gnd_port;
};

PartitionedG partition_conductance(const RcNetwork& net,
                                   const std::vector<int>& ports) {
    const size_t n = net.node_count;
    const size_t np = ports.size();
    SNIM_ASSERT(np >= 1, "need at least one port");

    PartitionedG out;
    out.np = np;
    // Index maps: global -> internal index or port index.
    out.port_of.assign(n, -1);
    out.internal_of.assign(n, -1);
    for (size_t j = 0; j < np; ++j) {
        const int p = ports[j];
        SNIM_ASSERT(p >= 0 && static_cast<size_t>(p) < n, "bad port %d", p);
        SNIM_ASSERT(out.port_of[static_cast<size_t>(p)] < 0, "duplicate port %d", p);
        out.port_of[static_cast<size_t>(p)] = static_cast<int>(j);
    }
    size_t ni = 0;
    for (size_t i = 0; i < n; ++i)
        if (out.port_of[i] < 0) out.internal_of[i] = static_cast<int>(ni++);
    out.ni = ni;

    // Assemble Gii, Gip (per-port sparse rhs), Gpp, ground terms.  Gii's
    // lower triangle goes straight into CSR: count entries per row, then
    // fill.
    InternalBlock& a = out.a;
    a.n = ni;
    a.diag.assign(ni, 0.0);
    a.ptr.assign(ni + 1, 0);
    out.gip.assign(np, {});
    out.gpp.assign(np, std::vector<double>(np, 0.0));
    std::vector<double> gnd_int(ni, 0.0);
    out.gnd_port.assign(np, 0.0);
    auto& gip = out.gip;
    auto& gpp = out.gpp;
    auto& diag = a.diag;

    const auto& internal_of = out.internal_of;
    for (const auto& e : net.conductances) {
        if (e.b < 0) continue;
        const int ia = internal_of[static_cast<size_t>(e.a)];
        const int ib = internal_of[static_cast<size_t>(e.b)];
        if (ia >= 0 && ib >= 0) ++a.ptr[static_cast<size_t>(std::max(ia, ib)) + 1];
    }
    for (size_t i = 0; i < ni; ++i) a.ptr[i + 1] += a.ptr[i];
    a.idx.resize(static_cast<size_t>(a.ptr[ni]));
    a.val.resize(static_cast<size_t>(a.ptr[ni]));

    for (const auto& e : net.conductances) {
        const int pa = out.port_of[static_cast<size_t>(e.a)];
        const int pb = e.b < 0 ? -2 : out.port_of[static_cast<size_t>(e.b)];
        const int ia = internal_of[static_cast<size_t>(e.a)];
        const int ib = e.b < 0 ? -2 : internal_of[static_cast<size_t>(e.b)];
        if (e.b < 0) {
            if (pa >= 0)
                out.gnd_port[static_cast<size_t>(pa)] += e.value;
            else
                gnd_int[static_cast<size_t>(ia)] += e.value;
            continue;
        }
        if (pa >= 0 && pb >= 0) {
            gpp[static_cast<size_t>(pa)][static_cast<size_t>(pb)] -= e.value;
            gpp[static_cast<size_t>(pb)][static_cast<size_t>(pa)] -= e.value;
            gpp[static_cast<size_t>(pa)][static_cast<size_t>(pa)] += e.value;
            gpp[static_cast<size_t>(pb)][static_cast<size_t>(pb)] += e.value;
        } else if (pa >= 0) {
            gip[static_cast<size_t>(pa)].emplace_back(ib, e.value);
            diag[static_cast<size_t>(ib)] += e.value;
            gpp[static_cast<size_t>(pa)][static_cast<size_t>(pa)] += e.value;
        } else if (pb >= 0) {
            gip[static_cast<size_t>(pb)].emplace_back(ia, e.value);
            diag[static_cast<size_t>(ia)] += e.value;
            gpp[static_cast<size_t>(pb)][static_cast<size_t>(pb)] += e.value;
        } else {
            // a.ptr[row] is the row's fill cursor until the shift below.
            const auto p = static_cast<size_t>(a.ptr[static_cast<size_t>(std::max(ia, ib))]++);
            a.idx[p] = std::min(ia, ib);
            a.val[p] = -e.value;
            diag[static_cast<size_t>(ia)] += e.value;
            diag[static_cast<size_t>(ib)] += e.value;
        }
    }
    for (size_t i = 0; i < ni; ++i) {
        diag[i] += gnd_int[i];
        // Regularise isolated internal nodes.
        if (diag[i] <= 0.0) diag[i] = 1e-15;
    }

    // The fill cursors stopped at the next row's start: shift them back.
    for (size_t i = ni; i > 0; --i) a.ptr[i] = a.ptr[i - 1];
    a.ptr[0] = 0;

    // Sort each row by column and merge parallel edges, compacting in place.
    std::vector<std::pair<int, double>> row;
    int w = 0;
    for (size_t i = 0; i < ni; ++i) {
        row.clear();
        for (int p = a.ptr[i]; p < a.ptr[i + 1]; ++p)
            row.emplace_back(a.idx[static_cast<size_t>(p)], a.val[static_cast<size_t>(p)]);
        std::sort(row.begin(), row.end());
        a.ptr[i] = w;
        for (const auto& [c, v] : row) {
            if (w > a.ptr[i] && a.idx[static_cast<size_t>(w) - 1] == c) {
                a.val[static_cast<size_t>(w) - 1] += v;
            } else {
                a.idx[static_cast<size_t>(w)] = c;
                a.val[static_cast<size_t>(w)] = v;
                ++w;
            }
        }
    }
    a.ptr[ni] = w;
    a.idx.resize(static_cast<size_t>(w));
    a.val.resize(static_cast<size_t>(w));

    a.factor(out.internal_of);
    return out;
}

} // namespace

RcNetwork reduce_by_solve(const RcNetwork& net, const std::vector<int>& ports,
                          double cg_tol, int max_iter) {
    obs::ScopedTimer obs_timer("mor/reduce_by_solve");
    if (fault::fires("mor.cg.fail"))
        raise("substrate reduction: CG failed to converge for port 0 "
              "(fault injected)");
    const size_t np = ports.size();
    PartitionedG part = partition_conductance(net, ports);
    const size_t ni = part.ni;
    const auto& gip = part.gip;
    const auto& port_of = part.port_of;
    const auto& internal_of = part.internal_of;

    // --- capacitance classification ---------------------------------------
    std::vector<double> cgnd_int(ni, 0.0);
    std::vector<double> cgnd_port(np, 0.0);
    std::unordered_map<long long, double> cpair; // (i<j) port pair caps
    auto pair_key = [](int i, int j) {
        return (static_cast<long long>(std::min(i, j)) << 32) ^
               static_cast<unsigned>(std::max(i, j));
    };
    struct PortCap {
        size_t row; // internal plate
        int port;
        double c;
    };
    std::vector<PortCap> portcaps; // port-attached caps, by ascending row

    for (const auto& e : net.capacitances) {
        const int pa = port_of[static_cast<size_t>(e.a)];
        const int pb = e.b < 0 ? -2 : port_of[static_cast<size_t>(e.b)];
        const int ia = internal_of[static_cast<size_t>(e.a)];
        const int ib = e.b < 0 ? -2 : internal_of[static_cast<size_t>(e.b)];
        if (e.b < 0) {
            if (pa >= 0)
                cgnd_port[static_cast<size_t>(pa)] += e.value;
            else
                cgnd_int[static_cast<size_t>(ia)] += e.value;
        } else if (pa >= 0 && pb >= 0) {
            cpair[pair_key(pa, pb)] += e.value;
        } else if (pa >= 0) {
            portcaps.push_back({static_cast<size_t>(ib), pa, e.value});
        } else if (pb >= 0) {
            portcaps.push_back({static_cast<size_t>(ia), pb, e.value});
        } else {
            cgnd_int[static_cast<size_t>(ia)] += 0.5 * e.value;
            cgnd_int[static_cast<size_t>(ib)] += 0.5 * e.value;
        }
    }

    std::stable_sort(portcaps.begin(), portcaps.end(),
                     [](const PortCap& u, const PortCap& v) { return u.row < v.row; });

    // What each influence vector w_j (Gii w_j = Gip(:,j), w_j[k] in [0,1])
    // keeps once its solve is done.  A port's ground cap sums its
    // internal-node terms over ascending rows, interleaved with the
    // remainders of its own port-attached caps, which need every w at that
    // row: a port with such caps keeps its whole w for the final pass.  Any
    // other port adds its ground-cap sum as soon as its solve finishes and
    // keeps w only at the plates of the port-attached caps, w_j[e] for
    // portcaps[e].
    std::vector<char> whole(np, 0);
    for (const auto& pc : portcaps) whole[static_cast<size_t>(pc.port)] = 1;
    std::vector<std::vector<double>> w(np);

    // Port conductance matrix: Gpp - Gip^T Gii^-1 Gip, column j as w_j
    // arrives (entries i <= j, mirrored below).
    std::vector<std::vector<double>> gport = part.gpp;
    if (ni > 0) {
        auto load = [&](size_t j, double* b) {
            obs::count("mor/cg_solves");
            for (const auto& [k, g] : gip[j]) b[static_cast<size_t>(k) * kLanes] += g;
        };
        auto done = [&](size_t j, const double* x) {
            for (size_t i = 0; i <= j; ++i) {
                double s = 0.0;
                for (const auto& [k, g] : gip[i]) s += g * x[static_cast<size_t>(k) * kLanes];
                gport[i][j] -= s;
            }
            if (whole[j]) {
                w[j].resize(ni);
                for (size_t k = 0; k < ni; ++k) w[j][k] = x[k * kLanes];
                return;
            }
            for (size_t k = 0; k < ni; ++k) {
                const double m = x[k * kLanes];
                if (cgnd_int[k] > 0.0 && m > 1e-12) cgnd_port[j] += cgnd_int[k] * m;
            }
            w[j].resize(portcaps.size());
            for (size_t e = 0; e < portcaps.size(); ++e) w[j][e] = x[portcaps[e].row * kLanes];
        };
        if (const auto fail = block_pcg(part.a, np, cg_tol, max_iter, load, done))
            raise("substrate reduction: CG failed to converge for port %zu after "
                  "%d iterations (relative residual %.3g, cg_tol %.3g)",
                  fail->col, fail->res.iters, fail->res.rel_res, cg_tol);
    }
    for (size_t i = 0; i < np; ++i)
        for (size_t j = i + 1; j < np; ++j) gport[j][i] = gport[i][j];

    RcNetwork out;
    out.node_count = np;
    // Ground conductance per port: row sum (includes direct ground legs and
    // the current lost to grounded internal nodes).
    for (size_t i = 0; i < np; ++i) {
        double row = part.gnd_port[i];
        for (size_t j = 0; j < np; ++j) row += gport[i][j];
        // Account for internal ground legs: current into ground via Gii^-1
        // is already part of the Schur row sum when the network is grounded.
        if (row > 1e-18) out.add_g(static_cast<int>(i), -1, row);
        for (size_t j = i + 1; j < np; ++j) {
            const double g = -gport[i][j];
            if (g > 1e-18) out.add_g(static_cast<int>(i), static_cast<int>(j), g);
        }
    }

    // --- capacitance projection -----------------------------------------
    // Ground caps at internal nodes lump onto ports with influence weights;
    // port-attached caps redistribute their internal plate exactly.
    size_t e = 0; // cursor into portcaps
    for (size_t k = 0; k < ni; ++k) {
        if (cgnd_int[k] > 0.0) {
            for (size_t j = 0; j < np; ++j) {
                if (!whole[j]) continue; // summed when its solve finished
                const double m = w[j][k];
                if (m > 1e-12) cgnd_port[j] += cgnd_int[k] * m;
            }
        }
        for (; e < portcaps.size() && portcaps[e].row == k; ++e) {
            const int port = portcaps[e].port;
            const double c = portcaps[e].c;
            double covered = 0.0;
            for (size_t j = 0; j < np; ++j) {
                const double m = whole[j] ? w[j][k] : w[j][e];
                if (m <= 1e-12) continue;
                covered += m;
                if (static_cast<int>(j) == port) continue; // shorted plate
                cpair[pair_key(port, static_cast<int>(j))] += c * m;
            }
            // Remainder flows to ground (grounded networks only).
            const double rest = c * std::max(0.0, 1.0 - covered);
            if (rest > 1e-21) cgnd_port[static_cast<size_t>(port)] += rest;
        }
    }

    for (size_t i = 0; i < np; ++i)
        if (cgnd_port[i] > 0.0) out.add_c(static_cast<int>(i), -1, cgnd_port[i]);
    for (const auto& [key, c] : cpair) {
        if (c <= 0.0) continue;
        const int i = static_cast<int>(key >> 32);
        const int j = static_cast<int>(key & 0xffffffff);
        out.add_c(i, j, c);
    }
    return out;
}

double probe_reduction_error(const RcNetwork& full, const RcNetwork& reduced,
                             const std::vector<int>& ports, int probes,
                             double cg_tol, int max_iter) {
    obs::ScopedTimer obs_timer("mor/probe_reduction_error");
    const size_t np = ports.size();
    SNIM_ASSERT(reduced.node_count == np,
                "reduced network has %zu nodes for %zu ports",
                reduced.node_count, np);
    if (probes <= 0 || np == 0) return 0.0;
    PartitionedG part = partition_conductance(full, ports);

    // Fixed-seed xorshift64 so the probe excitations — hence the reported
    // error — are identical run to run and thread-count independent.
    uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next_sign = [&state]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return (state >> 32) & 1 ? 1.0 : -1.0;
    };

    const auto nprobes = static_cast<size_t>(probes);
    std::vector<std::vector<double>> excite(nprobes, std::vector<double>(np));
    for (auto& v : excite) {
        for (double& vi : v) vi = next_sign();
        // Remove the common mode (np > 1): an equal-potential excitation of
        // a weakly grounded substrate drives almost no current, so both
        // sides of the comparison would be CG-tolerance noise and the ratio
        // meaningless.  The differential response is what the reduction must
        // preserve; for a single port the ground admittance IS the model.
        if (np > 1) {
            double mean = 0.0;
            for (double vi : v) mean += vi;
            mean /= static_cast<double>(np);
            if (mean == 1.0 || mean == -1.0) {
                v[0] = -v[0]; // all-equal pattern: flip one to keep a signal
                mean += 2.0 * v[0] / static_cast<double>(np);
            }
            for (double& vi : v) vi -= mean;
        }
    }

    // Relative port-current error of probe t, given the internal response
    // u[k * kLanes] to its excitation.
    std::vector<double> rel(nprobes, 0.0);
    auto measure = [&](size_t t, const double* u) {
        const auto& v = excite[t];
        // Full-side port currents: i = (Gpp + diag(gnd)) v - Gip^T Gii^-1 Gip v.
        std::vector<double> ifull(np, 0.0);
        for (size_t j = 0; j < np; ++j) {
            double s = part.gnd_port[j] * v[j];
            for (size_t q = 0; q < np; ++q) s += part.gpp[j][q] * v[q];
            for (const auto& [k, g] : part.gip[j])
                s -= g * u[static_cast<size_t>(k) * kLanes];
            ifull[j] = s;
        }

        // Reduced-side currents straight from the macromodel's elements
        // (every reduced node IS a port by the ports-first convention).
        std::vector<double> ired(np, 0.0);
        for (const auto& e : reduced.conductances) {
            const double va = v[static_cast<size_t>(e.a)];
            const double vb = e.b < 0 ? 0.0 : v[static_cast<size_t>(e.b)];
            ired[static_cast<size_t>(e.a)] += e.value * (va - vb);
            if (e.b >= 0) ired[static_cast<size_t>(e.b)] += e.value * (vb - va);
        }

        double dn = 0.0, fn = 0.0;
        for (size_t j = 0; j < np; ++j) {
            dn += (ired[j] - ifull[j]) * (ired[j] - ifull[j]);
            fn += ifull[j] * ifull[j];
        }
        if (fn > 0.0)
            rel[t] = std::sqrt(dn / fn);
        else
            rel[t] = dn > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
    };

    if (part.ni > 0) {
        auto load = [&](size_t t, double* b) {
            obs::count("mor/probe_cg_solves");
            for (size_t j = 0; j < np; ++j)
                for (const auto& [k, g] : part.gip[j])
                    b[static_cast<size_t>(k) * kLanes] += g * excite[t][j];
        };
        if (const auto fail = block_pcg(part.a, nprobes, cg_tol, max_iter, load, measure))
            raise("substrate reduction probe: CG failed to converge for probe "
                  "%zu after %d iterations (relative residual %.3g, cg_tol %.3g)",
                  fail->col, fail->res.iters, fail->res.rel_res, cg_tol);
    } else {
        for (size_t t = 0; t < nprobes; ++t) measure(t, nullptr); // no Gip entries
    }

    double worst = 0.0;
    for (const double r : rel)
        if (!(r <= worst)) // NaN ranks worst instead of vanishing
            worst = std::isfinite(r) ? r : std::numeric_limits<double>::infinity();
    return worst;
}

} // namespace snim::mor
