#include "sim/assembly.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "circuit/passives.hpp"
#include "numeric/condest.hpp"
#include "obs/registry.hpp"
#include "sim/mna.hpp"

namespace snim::sim {

namespace {
std::uint64_t dt_key(double dt) {
    // The retry ladder only visits power-of-two fractions of the nominal
    // dt, so keying on the exact bit pattern keeps the cache tiny while
    // never conflating two steps that stamp different companion values.
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(dt));
    std::memcpy(&bits, &dt, sizeof(bits));
    return bits;
}

/// Kuhn augmenting path for the bipartite row/column matching of A11:
/// tries to match local column `c`, re-routing earlier matches.  `loc` maps
/// a full row index to its A11-local index (-1 for rows in N).
bool augment(int c, int stamp, const SparseCSC<double>& a,
             const std::vector<int>& lset, const std::vector<int>& loc,
             std::vector<int>& row_match, std::vector<int>& seen) {
    const auto& cp = a.col_ptr();
    const auto& ri = a.row_idx();
    const auto j = static_cast<size_t>(lset[static_cast<size_t>(c)]);
    for (int p = cp[j]; p < cp[j + 1]; ++p) {
        const int r = loc[static_cast<size_t>(ri[static_cast<size_t>(p)])];
        if (r < 0 || seen[static_cast<size_t>(r)] == stamp) continue;
        seen[static_cast<size_t>(r)] = stamp;
        const int prev = row_match[static_cast<size_t>(r)];
        if (prev < 0 || augment(prev, stamp, a, lset, loc, row_match, seen)) {
            row_match[static_cast<size_t>(r)] = c;
            return true;
        }
    }
    return false;
}
} // namespace

// --- CondensedLU -----------------------------------------------------------

void CondensedLU::partition(const SparseCSC<double>& a, std::vector<char> seed) {
    n_ = a.size();
    SNIM_ASSERT(seed.size() == n_, "partition seed size %zu != %zu", seed.size(), n_);
    const auto& cp = a.col_ptr();
    const auto& ri = a.row_idx();

    // Grow N until A11 has a perfect matching: every unmatched row and
    // column of A11 moves its unknown into N, and the matching reruns on
    // the smaller block (each round moves at least one unknown).
    std::vector<int> loc(n_, -1);
    for (;;) {
        lset_.clear();
        for (size_t i = 0; i < n_; ++i) {
            loc[i] = seed[i] ? -1 : static_cast<int>(lset_.size());
            if (!seed[i]) lset_.push_back(static_cast<int>(i));
        }
        const size_t n1 = lset_.size();
        std::vector<int> row_match(n1, -1), seen(n1, -1);
        std::vector<char> col_matched(n1, 0);
        // Diagonals first: node rows carry gmin, so nearly every column
        // matches its own row and the augmenting search only runs for the
        // few left (branch currents, mostly).
        for (size_t c = 0; c < n1; ++c) {
            const auto j = static_cast<size_t>(lset_[c]);
            for (int p = cp[j]; p < cp[j + 1]; ++p)
                if (static_cast<size_t>(ri[static_cast<size_t>(p)]) == j) {
                    row_match[c] = static_cast<int>(c);
                    col_matched[c] = 1;
                    break;
                }
        }
        for (size_t c = 0; c < n1; ++c)
            if (!col_matched[c])
                col_matched[c] = augment(static_cast<int>(c), static_cast<int>(c), a,
                                         lset_, loc, row_match, seen);
        bool perfect = true;
        for (size_t k = 0; k < n1; ++k)
            if (!col_matched[k] || row_match[k] < 0) {
                seed[static_cast<size_t>(lset_[k])] = 1;
                perfect = false;
            }
        if (perfect) break;
    }
    nset_.clear();
    for (size_t i = 0; i < n_; ++i)
        if (seed[i]) {
            loc[i] = static_cast<int>(nset_.size());
            nset_.push_back(static_cast<int>(i));
        }

    // Block entry lists in CSC order.  A11 keeps its structural zeros so a
    // key image that happens to hold a zero still factors on the pattern.
    const size_t n1 = lset_.size();
    Triplets<double> t(n1);
    t.set_keep_zeros(true);
    a11_slot_.clear();
    a12_.clear();
    a21_.clear();
    a22_.clear();
    for (size_t j = 0; j < n_; ++j) {
        const auto cj = static_cast<std::int32_t>(loc[j]);
        for (int p = cp[j]; p < cp[j + 1]; ++p) {
            const auto i = static_cast<size_t>(ri[static_cast<size_t>(p)]);
            const auto ci = static_cast<std::int32_t>(loc[i]);
            if (!seed[i] && !seed[j]) {
                t.add(static_cast<size_t>(ci), static_cast<size_t>(cj), 0.0);
                a11_slot_.push_back(p);
            } else if (!seed[i]) {
                a12_.push_back({ci, cj, p});
            } else if (!seed[j]) {
                a21_.push_back({ci, cj, p});
            } else {
                a22_.push_back({ci, cj, p});
            }
        }
    }
    // Columns are visited in ascending order with rows ascending inside
    // each, so the A11 CSC holds its entries in exactly the order pushed.
    a11_ = SparseCSC<double>(t);
    SNIM_ASSERT(a11_.nnz() == a11_slot_.size(), "A11 pattern merged entries");

    const size_t m = nset_.size();
    s_.assign(m * m, 0.0);
    s_piv_.assign(m, 0);
    b1_.assign(n1, 0.0);
    z1_.assign(n1, 0.0);
    c_.assign(m, 0.0);
    x2_.assign(m, 0.0);
}

CondensedLU::KeyFactors CondensedLU::factor_linear(const std::vector<double>& values) {
    obs::count("sim/condensed_a11_factors");
    const size_t n1 = lset_.size();
    const size_t m = nset_.size();
    KeyFactors f;
    size_t stored = 0;
    if (n1 > 0) {
        auto& av = a11_.values_mut();
        for (size_t q = 0; q < av.size(); ++q)
            av[q] = values[static_cast<size_t>(a11_slot_[q])];
        f.a11 = std::make_unique<SparseLU<double>>(a11_, ReusableLU<double>::kPivotTol);
        f.min_pivot = f.a11->factor_stats().min_pivot;
        stored = f.a11->nnz();
    }
    // W = A11^{-1} A12, one sparse solve per condensed column.
    f.w.assign(n1 * m, 0.0);
    if (n1 > 0) {
        std::vector<std::vector<double>> cols(m, std::vector<double>(n1, 0.0));
        for (const Entry& e : a12_)
            cols[static_cast<size_t>(e.col)][static_cast<size_t>(e.row)] =
                values[static_cast<size_t>(e.slot)];
        std::vector<double> wcol;
        for (size_t j = 0; j < m; ++j) {
            f.a11->solve_into(cols[j], wcol, scratch_);
            for (size_t l = 0; l < n1; ++l) f.w[l * m + j] = wcol[l];
        }
    }
    // C = A21 W.
    f.c.assign(m * m, 0.0);
    f.a21.resize(a21_.size());
    for (size_t k = 0; k < a21_.size(); ++k) {
        const Entry& e = a21_[k];
        const double v = values[static_cast<size_t>(e.slot)];
        f.a21[k] = v;
        const double* wl = f.w.data() + static_cast<size_t>(e.col) * m;
        for (size_t j = 0; j < m; ++j) f.c[static_cast<size_t>(e.row) + m * j] += v * wl[j];
    }
    stored += n1 * m + m * m;
    const size_t nnz = a11_slot_.size() + a12_.size() + a21_.size() + a22_.size();
    f.fill_growth = nnz > 0 ? static_cast<double>(stored) / static_cast<double>(nnz) : 0.0;
    return f;
}

void CondensedLU::begin_attempt(const KeyFactors& kf, const std::vector<double>& b) {
    kf_ = &kf;
    const size_t n1 = lset_.size();
    if (n1 > 0) {
        for (size_t l = 0; l < n1; ++l) b1_[l] = b[static_cast<size_t>(lset_[l])];
        kf.a11->solve_into(b1_, z1_, scratch_);
    }
    std::fill(c_.begin(), c_.end(), 0.0);
    for (size_t k = 0; k < a21_.size(); ++k)
        c_[static_cast<size_t>(a21_[k].row)] +=
            kf.a21[k] * z1_[static_cast<size_t>(a21_[k].col)];
}

void CondensedLU::factor(const SparseCSC<double>& a) {
    obs::count("sim/condensed_s_factors");
    a_ = &a;
    rcond_cache_ = -1.0;
    const size_t m = nset_.size();
    // S = A22 - C, gathered as (-C) + A22: the same value bit for bit.
    for (size_t k = 0; k < m * m; ++k) s_[k] = -kf_->c[k];
    const auto& vx = a.values();
    for (const Entry& e : a22_)
        s_[static_cast<size_t>(e.row) + m * static_cast<size_t>(e.col)] +=
            vx[static_cast<size_t>(e.slot)];

    // Dense LU with partial pivoting, in place (column-major).
    s_min_pivot_ = std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < m; ++k) {
        size_t piv = m;
        double best = 0.0;
        for (size_t i = k; i < m; ++i) {
            const double v = std::fabs(s_[i + m * k]);
            if (v > best) { // NaN never wins: a poisoned column reads singular
                best = v;
                piv = i;
            }
        }
        if (piv == m)
            raise("condensed solve: Schur complement singular at unknown %d",
                  nset_[k]);
        s_piv_[k] = static_cast<int>(piv);
        if (piv != k)
            for (size_t j = 0; j < m; ++j) std::swap(s_[k + m * j], s_[piv + m * j]);
        s_min_pivot_ = std::min(s_min_pivot_, best);
        const double d = s_[k + m * k];
        for (size_t i = k + 1; i < m; ++i) s_[i + m * k] /= d;
        for (size_t j = k + 1; j < m; ++j) {
            const double u = s_[k + m * j];
            if (u == 0.0) continue;
            for (size_t i = k + 1; i < m; ++i) s_[i + m * j] -= s_[i + m * k] * u;
        }
    }
}

// r <- S^{-1} r in place on the LU held in s_ (P S = L U, P the row swaps
// s_piv_ applied in order).
void CondensedLU::dense_solve(std::vector<double>& r) const {
    const size_t m = nset_.size();
    for (size_t k = 0; k < m; ++k) std::swap(r[k], r[static_cast<size_t>(s_piv_[k])]);
    for (size_t k = 0; k < m; ++k)
        for (size_t i = k + 1; i < m; ++i) r[i] -= s_[i + m * k] * r[k];
    for (size_t k = m; k-- > 0;) {
        r[k] /= s_[k + m * k];
        for (size_t i = 0; i < k; ++i) r[i] -= s_[i + m * k] * r[k];
    }
}

// r <- S^{-T} r in place: S^T = U^T L^T P, so solve U^T, then L^T, then
// undo the row swaps in reverse order.
void CondensedLU::dense_solve_transpose(std::vector<double>& r) const {
    const size_t m = nset_.size();
    for (size_t k = 0; k < m; ++k) {
        double acc = r[k];
        for (size_t i = 0; i < k; ++i) acc -= s_[i + m * k] * r[i];
        r[k] = acc / s_[k + m * k];
    }
    for (size_t k = m; k-- > 0;) {
        double acc = r[k];
        for (size_t i = k + 1; i < m; ++i) acc -= s_[i + m * k] * r[i];
        r[k] = acc;
    }
    for (size_t k = m; k-- > 0;) std::swap(r[k], r[static_cast<size_t>(s_piv_[k])]);
}

void CondensedLU::solve_newton(const std::vector<double>& b, std::vector<double>& x) {
    const size_t n1 = lset_.size();
    const size_t m = nset_.size();
    for (size_t i = 0; i < m; ++i) x2_[i] = b[static_cast<size_t>(nset_[i])] - c_[i];
    dense_solve(x2_);
    x.resize(n_);
    for (size_t i = 0; i < m; ++i) x[static_cast<size_t>(nset_[i])] = x2_[i];
    const double* w = kf_->w.data();
    for (size_t l = 0; l < n1; ++l, w += m) {
        double v = z1_[l];
        for (size_t j = 0; j < m; ++j) v -= w[j] * x2_[j];
        x[static_cast<size_t>(lset_[l])] = v;
    }
}

std::vector<double> CondensedLU::solve(const std::vector<double>& b) const {
    const size_t n1 = lset_.size();
    const size_t m = nset_.size();
    std::vector<double> b1(n1), z1(n1), x2(m), scratch;
    for (size_t l = 0; l < n1; ++l) b1[l] = b[static_cast<size_t>(lset_[l])];
    if (n1 > 0) kf_->a11->solve_into(b1, z1, scratch);
    for (size_t i = 0; i < m; ++i) x2[i] = b[static_cast<size_t>(nset_[i])];
    for (size_t k = 0; k < a21_.size(); ++k)
        x2[static_cast<size_t>(a21_[k].row)] -=
            kf_->a21[k] * z1[static_cast<size_t>(a21_[k].col)];
    dense_solve(x2);
    std::vector<double> x(n_);
    for (size_t i = 0; i < m; ++i) x[static_cast<size_t>(nset_[i])] = x2[i];
    for (size_t l = 0; l < n1; ++l) {
        double v = z1[l];
        for (size_t j = 0; j < m; ++j) v -= kf_->w[l * m + j] * x2[j];
        x[static_cast<size_t>(lset_[l])] = v;
    }
    return x;
}

// A^T y = b by the transposed block elimination: S^T y2 = b2 - W^T b1,
// then A11^T y1 = b1 - A21^T y2.
std::vector<double> CondensedLU::solve_transpose(const std::vector<double>& b) const {
    const size_t n1 = lset_.size();
    const size_t m = nset_.size();
    std::vector<double> t1(n1), y2(m);
    for (size_t l = 0; l < n1; ++l) t1[l] = b[static_cast<size_t>(lset_[l])];
    for (size_t j = 0; j < m; ++j) {
        double v = b[static_cast<size_t>(nset_[j])];
        for (size_t l = 0; l < n1; ++l) v -= kf_->w[l * m + j] * t1[l];
        y2[j] = v;
    }
    dense_solve_transpose(y2);
    for (size_t k = 0; k < a21_.size(); ++k)
        t1[static_cast<size_t>(a21_[k].col)] -=
            kf_->a21[k] * y2[static_cast<size_t>(a21_[k].row)];
    std::vector<double> y(n_);
    if (n1 > 0) {
        const std::vector<double> y1 = kf_->a11->solve_transpose(t1);
        for (size_t l = 0; l < n1; ++l) y[static_cast<size_t>(lset_[l])] = y1[l];
    }
    for (size_t i = 0; i < m; ++i) y[static_cast<size_t>(nset_[i])] = y2[i];
    return y;
}

double CondensedLU::rcond_estimate() const {
    if (rcond_cache_ < 0.0) rcond_cache_ = rcond_from_norm1<double>(*this, n_, norm1(*a_));
    return rcond_cache_;
}

// --- TranAssembler ---------------------------------------------------------

TranAssembler::TranAssembler(const circuit::Netlist& netlist,
                             circuit::RealStamper& s, double gmin)
    : netlist_(netlist), s_(s), gmin_(gmin) {
    SNIM_ASSERT(!s_.compiled_mode(), "TranAssembler needs a stamper with no learned tape");
    s_.enable_compiled_assembly();
    s_.enable_rhs_tape();
    // partition() is a structural constant per device, so the commit list
    // can be fixed up front; disabled devices stay on it (the reference
    // loop calls commit_tran unconditionally).
    for (const auto& d : netlist_.devices())
        if (d->partition() != circuit::Partition::LinearStatic)
            commit_list_.push_back(d.get());
}

void TranAssembler::full_pass(const std::vector<double>& x,
                              const circuit::TranParams& tp) {
    obs::count("sim/assemble_full");
    s_.clear();
    s_.set_source_scale(1.0);
    const auto& devices = netlist_.devices();
    spans_.assign(devices.size(), Span{});
    for (size_t i = 0; i < devices.size(); ++i) {
        Span& sp = spans_[i];
        sp.mat_begin = static_cast<std::uint32_t>(s_.matrix().rows().size());
        sp.rhs_begin = static_cast<std::uint32_t>(s_.rhs_tape_nodes().size());
        if (!devices[i]->disabled()) devices[i]->stamp_tran(s_, x, tp);
        sp.mat_end = static_cast<std::uint32_t>(s_.matrix().rows().size());
        sp.rhs_end = static_cast<std::uint32_t>(s_.rhs_tape_nodes().size());
    }
    stamp_gmin(netlist_, s_, gmin_);
    s_.csc(); // learns the scatter map; the pass above becomes the tape
    compile(tp);
    // Baselines for the remaining iterations of this attempt come straight
    // from the freshly recorded tape.
    image_ = &key_image(tp);
    build_rhs_base();
}

void TranAssembler::compile(const circuit::TranParams& tp) {
    const auto& devices = netlist_.devices();
    const size_t ncalls = s_.tape_rows().size();
    const size_t nrhs = s_.rhs_tape_nodes().size();

    std::vector<char> nl_call(ncalls, 0);
    std::vector<char> nl_rhs(nrhs, 0);
    for (size_t i = 0; i < devices.size(); ++i) {
        if (devices[i]->disabled()) continue;
        const Span& sp = spans_[i];
        switch (devices[i]->partition()) {
            case circuit::Partition::Nonlinear:
                nonlinear_.push_back(static_cast<std::uint32_t>(i));
                for (std::uint32_t k = sp.mat_begin; k < sp.mat_end; ++k)
                    nl_call[k] = 1;
                for (std::uint32_t k = sp.rhs_begin; k < sp.rhs_end; ++k)
                    nl_rhs[k] = 1;
                break;
            case circuit::Partition::LinearDynamic:
                refresh_.push_back(static_cast<std::uint32_t>(i));
                break;
            case circuit::Partition::LinearStatic:
                // Static matrix entries never move, but source waveforms
                // live on the RHS: any static device that made an RHS call
                // must be re-evaluated once per attempt for tp.time.
                if (sp.rhs_end > sp.rhs_begin)
                    refresh_.push_back(static_cast<std::uint32_t>(i));
                break;
        }
    }

    for (size_t k = 0; k < ncalls; ++k)
        if (!nl_call[k]) linear_calls_.push_back(static_cast<std::int32_t>(k));
    for (size_t k = 0; k < nrhs; ++k)
        if (!nl_rhs[k]) linear_rhs_calls_.push_back(static_cast<std::int32_t>(k));

    // Mixed slots: a linear stamp landing after a nonlinear one in the same
    // CSC slot (the trailing gmin diagonal on a transistor node is the
    // canonical case).  Baseline-then-overlay would reorder the sum there,
    // so those slots are replayed call-by-call instead.
    const size_t nnz = s_.csc_values_mut().size();
    std::vector<std::vector<std::int32_t>> by_slot(nnz);
    const auto& slots = s_.tape_slots();
    for (size_t k = 0; k < ncalls; ++k)
        by_slot[static_cast<size_t>(slots[k])].push_back(static_cast<std::int32_t>(k));
    for (size_t slot = 0; slot < nnz; ++slot) {
        const auto& calls = by_slot[slot];
        bool seen_nl = false, mixed = false;
        for (const std::int32_t k : calls) {
            if (nl_call[static_cast<size_t>(k)]) seen_nl = true;
            else if (seen_nl) { mixed = true; break; }
        }
        if (mixed)
            mixed_slots_.push_back({static_cast<std::int32_t>(slot), calls});
    }

    // The nonlinear dirty sets: CSC slots the overlay writes (mixed slots
    // included — a slot is only "mixed" because a nonlinear call lands in
    // it) and RHS nodes it writes.  Their rows, columns and nodes seed the
    // condensed set of the block-elimination solve.
    std::vector<char> seed(s_.size(), 0);
    {
        const auto& a = s_.csc();
        const auto& cp = a.col_ptr();
        const auto& ri = a.row_idx();
        std::vector<char> slothit(nnz, 0);
        for (size_t k = 0; k < ncalls; ++k)
            if (nl_call[k]) slothit[static_cast<size_t>(slots[k])] = 1;
        for (size_t j = 0; j < s_.size(); ++j)
            for (int p = cp[j]; p < cp[j + 1]; ++p)
                if (slothit[static_cast<size_t>(p)]) {
                    nl_slots_.push_back(p);
                    seed[j] = 1;
                    seed[static_cast<size_t>(ri[static_cast<size_t>(p)])] = 1;
                }
    }
    {
        std::vector<char> nodehit(s_.size(), 0);
        const auto& rn = s_.rhs_tape_nodes();
        for (size_t k = 0; k < nrhs; ++k)
            if (nl_rhs[k]) nodehit[static_cast<size_t>(rn[k])] = 1;
        for (size_t i = 0; i < s_.size(); ++i)
            if (nodehit[i]) {
                nl_rhs_nodes_.push_back(static_cast<std::int32_t>(i));
                seed[i] = 1;
            }
    }
    cond_.partition(s_.csc(), std::move(seed));

    std::vector<std::vector<std::int32_t>> by_node(s_.size());
    const auto& rnodes = s_.rhs_tape_nodes();
    for (size_t k = 0; k < nrhs; ++k)
        by_node[static_cast<size_t>(rnodes[k])].push_back(static_cast<std::int32_t>(k));
    for (size_t node = 0; node < by_node.size(); ++node) {
        const auto& calls = by_node[node];
        bool seen_nl = false, mixed = false;
        for (const std::int32_t k : calls) {
            if (nl_rhs[static_cast<size_t>(k)]) seen_nl = true;
            else if (seen_nl) { mixed = true; break; }
        }
        if (mixed)
            mixed_nodes_.push_back({static_cast<std::int32_t>(node), calls});
    }

    // Compiled capacitor refreshes: a capacitor's stamp layout never
    // depends on values, and every recorded call is exactly ±geq (matrix)
    // or ±ieq (RHS), so the per-attempt refresh reduces to direct tape
    // writes.  Signs come from the stamp structure (admittance order
    // (a,a) (b,b) (a,b) (b,a), RHS order -ieq@a +ieq@b, ground dropped)
    // and are cross-checked bitwise against the learned tape; any
    // surprise leaves the device on the slow overlay path.
    const double kord = (tp.order == 2 ? 2.0 : 1.0);
    for (const std::uint32_t i : refresh_) {
        auto* cap = dynamic_cast<circuit::Capacitor*>(devices[i].get());
        if (cap == nullptr) {
            slow_refresh_.push_back(i);
            continue;
        }
        const Span& sp = spans_[i];
        const circuit::NodeId a = cap->nodes()[0];
        const circuit::NodeId b = cap->nodes()[1];
        const double geq = kord * cap->capacitance() / tp.dt;
        const double ieq = (tp.order == 2)
                               ? (-geq * cap->tran_v_prev() - cap->tran_i_prev())
                               : (-geq * cap->tran_v_prev());
        CapPlan plan;
        plan.cap = cap;
        plan.a = a;
        plan.b = b;
        plan.geq = geq;
        bool ok = true;
        if (a >= 0 && b >= 0) {
            ok = sp.mat_end - sp.mat_begin == 4;
            for (int j = 0; ok && j < 4; ++j)
                plan.mat.emplace_back(static_cast<std::int32_t>(sp.mat_begin + j),
                                      static_cast<std::int8_t>(j < 2 ? 1 : -1));
        } else if (a >= 0 || b >= 0) {
            ok = sp.mat_end - sp.mat_begin == 1;
            plan.mat.emplace_back(static_cast<std::int32_t>(sp.mat_begin),
                                  static_cast<std::int8_t>(1));
        } else {
            ok = sp.mat_end == sp.mat_begin;
        }
        std::uint32_t r = sp.rhs_begin;
        if (a >= 0)
            plan.rhs.emplace_back(static_cast<std::int32_t>(r++),
                                  static_cast<std::int8_t>(-1));
        if (b >= 0)
            plan.rhs.emplace_back(static_cast<std::int32_t>(r++),
                                  static_cast<std::int8_t>(1));
        ok = ok && r == sp.rhs_end;
        const auto& tvals = s_.tape_values();
        for (const auto& [k, sign] : plan.mat)
            ok = ok && tvals[static_cast<size_t>(k)] == (sign > 0 ? geq : -geq);
        const auto& rvals = s_.rhs_tape_values();
        const auto& rnodes = s_.rhs_tape_nodes();
        for (const auto& [k, sign] : plan.rhs) {
            ok = ok && rvals[static_cast<size_t>(k)] == (sign > 0 ? ieq : -ieq);
            ok = ok && rnodes[static_cast<size_t>(k)] == (sign > 0 ? b : a);
        }
        if (ok)
            cap_plans_.push_back(std::move(plan));
        else
            slow_refresh_.push_back(i);
    }
    // Planned capacitors commit through their plan from here on.
    std::vector<circuit::Device*> planned;
    for (const CapPlan& p : cap_plans_) planned.push_back(p.cap);
    std::sort(planned.begin(), planned.end());
    commit_list_.erase(std::remove_if(commit_list_.begin(), commit_list_.end(),
                                      [&](circuit::Device* d) {
                                          return std::binary_search(planned.begin(),
                                                                    planned.end(), d);
                                      }),
                       commit_list_.end());
}

void TranAssembler::refresh_tapes(const std::vector<double>& x,
                                  const circuit::TranParams& tp) {
    // Planned capacitors: recompute ±geq/±ieq straight into the tape.  The
    // arithmetic is copied from Capacitor::stamp_tran, so the written
    // values are bit-identical to an overlay replay; the CSC/RHS
    // write-through the overlay would also do is skipped because the next
    // assemble restores the full baseline anyway.
    if (!cap_plans_.empty()) {
        auto& tv = s_.tape_values_mut();
        auto& rv = s_.rhs_tape_values_mut();
        const double kord = (tp.order == 2 ? 2.0 : 1.0);
        for (CapPlan& p : cap_plans_) {
            const double geq = kord * p.cap->capacitance() / tp.dt;
            p.geq = geq;
            const double ieq =
                (tp.order == 2)
                    ? (-geq * p.cap->tran_v_prev() - p.cap->tran_i_prev())
                    : (-geq * p.cap->tran_v_prev());
            for (const auto& [k, sign] : p.mat)
                tv[static_cast<size_t>(k)] = sign > 0 ? geq : -geq;
            for (const auto& [k, sign] : p.rhs)
                rv[static_cast<size_t>(k)] = sign > 0 ? ieq : -ieq;
        }
    }
    const auto& devices = netlist_.devices();
    for (const std::uint32_t i : slow_refresh_) {
        const Span& sp = spans_[i];
        s_.overlay_seek(sp.mat_begin, sp.rhs_begin);
        devices[i]->stamp_tran(s_, x, tp);
        s_.overlay_check(sp.mat_end, sp.rhs_end);
    }
    s_.end_overlay();
}

TranAssembler::KeyImage& TranAssembler::key_image(const circuit::TranParams& tp) {
    const std::uint64_t bits = dt_key(tp.dt);
    for (auto& e : cache_)
        if (e.dt_bits == bits && e.order == tp.order) {
            obs::count("sim/assemble_cache_hits");
            return e;
        }
    obs::count("sim/assemble_cache_misses");
    // The retry ladder and the BE startup visit a handful of keys; a PSS
    // visits a new one per Newton update of its period, which this bounds.
    if (cache_.size() >= 8) cache_.clear();
    KeyImage img;
    img.dt_bits = bits;
    img.order = tp.order;
    img.values.assign(s_.csc_values_mut().size(), 0.0);
    const auto& slots = s_.tape_slots();
    const auto& assigns = s_.tape_assigns();
    const auto& vals = s_.tape_values();
    for (const std::int32_t k : linear_calls_) {
        const size_t slot = static_cast<size_t>(slots[static_cast<size_t>(k)]);
        if (assigns[static_cast<size_t>(k)])
            img.values[slot] = vals[static_cast<size_t>(k)];
        else
            img.values[slot] += vals[static_cast<size_t>(k)];
    }
    cache_.push_back(std::move(img));
    return cache_.back();
}

void TranAssembler::build_rhs_base() {
    attempt_solved_ = false;
    rhs_base_.assign(s_.size(), 0.0);
    const auto& nodes = s_.rhs_tape_nodes();
    const auto& vals = s_.rhs_tape_values();
    for (const std::int32_t k : linear_rhs_calls_)
        rhs_base_[static_cast<size_t>(nodes[static_cast<size_t>(k)])] +=
            vals[static_cast<size_t>(k)];
}

void TranAssembler::begin_attempt(const std::vector<double>& x,
                                  const circuit::TranParams& tp) {
    if (image_ == nullptr) return;
    refresh_tapes(x, tp);
    image_ = &key_image(tp);
    build_rhs_base();
    // The tape refresh above wrote through to the stamper's CSC/RHS at
    // linear positions, so the first assemble of this attempt must restore
    // the whole baseline, not just the nonlinear dirty set.
    restore_full_ = true;
}

void TranAssembler::assemble(const std::vector<double>& x,
                             const circuit::TranParams& tp) {
    if (image_ == nullptr) {
        full_pass(x, tp);
        return;
    }
    if (restore_full_) {
        s_.csc_values_mut() = image_->values;
        s_.rhs_mut() = rhs_base_;
        restore_full_ = false;
    } else {
        // Everything outside the nonlinear dirty set still holds its
        // baseline value from the previous iteration's restore.
        auto& vals = s_.csc_values_mut();
        const auto& img = image_->values;
        for (const std::int32_t p : nl_slots_)
            vals[static_cast<size_t>(p)] = img[static_cast<size_t>(p)];
        auto& b = s_.rhs_mut();
        for (const std::int32_t i : nl_rhs_nodes_)
            b[static_cast<size_t>(i)] = rhs_base_[static_cast<size_t>(i)];
    }
    const auto& devices = netlist_.devices();
    for (const std::uint32_t i : nonlinear_) {
        const Span& sp = spans_[i];
        s_.overlay_seek(sp.mat_begin, sp.rhs_begin);
        devices[i]->stamp_tran(s_, x, tp);
        s_.overlay_check(sp.mat_end, sp.rhs_end);
    }
    s_.end_overlay();
    auto& csc_vals = s_.csc_values_mut();
    const auto& tvals = s_.tape_values();
    for (const auto& m : mixed_slots_) {
        double v = 0.0;
        bool first = true;
        for (const std::int32_t k : m.calls) {
            if (first) {
                v = tvals[static_cast<size_t>(k)];
                first = false;
            } else {
                v += tvals[static_cast<size_t>(k)];
            }
        }
        csc_vals[static_cast<size_t>(m.target)] = v;
    }
    auto& b = s_.rhs_mut();
    const auto& rvals = s_.rhs_tape_values();
    for (const auto& m : mixed_nodes_) {
        double v = 0.0;
        for (const std::int32_t k : m.calls) v += rvals[static_cast<size_t>(k)];
        b[static_cast<size_t>(m.target)] = v;
    }
    obs::count("sim/assemble_incremental");
}

void TranAssembler::commit(const std::vector<double>& x, const circuit::TranParams& tp) {
    for (circuit::Device* d : commit_list_) d->commit_tran(x, tp);
    for (const CapPlan& p : cap_plans_)
        p.cap->commit_companion(circuit::volt(x, p.a) - circuit::volt(x, p.b), p.geq,
                                tp.order);
}

void TranAssembler::solve(std::vector<double>& x) {
    SNIM_ASSERT(image_ != nullptr, "TranAssembler::solve before the first assemble");
    if (!attempt_solved_) {
        if (!image_->factors)
            image_->factors = std::make_unique<CondensedLU::KeyFactors>(
                cond_.factor_linear(image_->values));
        cond_.begin_attempt(*image_->factors, rhs_base_);
        attempt_solved_ = true;
    }
    cond_.factor(s_.csc());
    cond_.solve_newton(s_.rhs(), x);
}

} // namespace snim::sim
