// Left-looking sparse LU with threshold partial pivoting (Gilbert-Peierls,
// the algorithm behind CSparse/KLU).  This is the workhorse solver for MNA
// systems and substrate meshes.
//
// Ordering: columns are pre-permuted by a greedy minimum-degree ordering on
// the symmetrized pattern (applied symmetrically, so the diagonal stays the
// diagonal).  MNA matrices carry a dense port-coupling block from the
// substrate macromodel; factored in natural order that block smears fill
// across the whole matrix, while min-degree pushes it to the trailing
// columns and keeps the rest sparse.  The ordering is a pure function of
// the pattern with lowest-index tie-breaking, so it is deterministic.
//
// Pivoting: for each column the candidate with the largest magnitude is
// found; the diagonal entry is kept whenever it is within `pivot_tol` of the
// maximum, which preserves sparsity on the diagonally dominant matrices that
// dominate this workload while staying robust for MNA voltage-source rows.
//
// Factorizations on a fixed sparsity pattern can be refreshed in place with
// `refactor(values)`: the symbolic pattern and pivot sequence from the last
// full factorization are reused and only the numeric sweep reruns, which is
// what makes Newton iterations and AC/transient sweeps cheap.  `ReusableLU`
// wraps the full-vs-refactor decision with a pivot-health guard.
#pragma once

#include <complex>
#include <memory>
#include <vector>

#include "numeric/sparse.hpp"

namespace snim {

/// Numerical health of one factorization, for solver-health telemetry and
/// failure diagnosis: a shrinking min |pivot| or a growing fill ratio is
/// the classic early warning of an ill-conditioned MNA system.
struct LuFactorStats {
    double min_pivot = 0.0;   // smallest |pivot| over all columns
    double max_pivot = 0.0;   // largest |pivot|
    double fill_growth = 0.0; // nnz(L+U) / nnz(A)
    size_t pivot_swaps = 0;   // off-diagonal pivots chosen
    /// Hager/Higham reciprocal 1-norm condition estimate.  Computed lazily —
    /// it costs a few extra triangular solves — so it is 0 until the first
    /// rcond_estimate() call after a (re)factorization fills it in.
    double rcond = 0.0;
};

template <class T>
class SparseLU {
public:
    explicit SparseLU(const SparseCSC<T>& a, double pivot_tol = 0.1);
    explicit SparseLU(const Triplets<T>& t, double pivot_tol = 0.1)
        : SparseLU(SparseCSC<T>(t), pivot_tol) {}

    /// Re-runs the numeric factorization on `a` reusing this factorization's
    /// pattern and pivot sequence.  `a` must have exactly the sparsity
    /// pattern of the matrix this object was constructed from (the caller —
    /// normally ReusableLU — checks; violating it is undefined).  Column
    /// updates are applied in ascending pivot order, the same order the full
    /// constructor uses, so when the fixed pivot sequence matches what a
    /// fresh factorization would choose the result is bit-identical to one.
    /// Returns false on an exactly zero pivot (the factorization is then
    /// partially overwritten and must not be used for solves).
    bool refactor(const SparseCSC<T>& a);

    /// Solves A x = b.
    std::vector<T> solve(const std::vector<T>& b) const;
    /// Allocation-free solve for hot loops: x = A^{-1} b using the caller's
    /// scratch buffer.  `b`, `x` and `scratch` must be distinct objects.
    /// Bit-identical to solve().
    void solve_into(const std::vector<T>& b, std::vector<T>& x,
                    std::vector<T>& scratch) const;
    /// Solves A^T x = b.
    std::vector<T> solve_transpose(const std::vector<T>& b) const;

    size_t size() const { return n_; }
    size_t nnz() const;

    /// Health of this factorization (valid once the constructor returns).
    const LuFactorStats& factor_stats() const { return stats_; }

    /// Reciprocal 1-norm condition estimate 1 / (||A||_1 * est ||A^{-1}||_1)
    /// on the current factors (Hager/Higham, a few solve/solve_transpose
    /// sweeps).  Cached per factorization — refactor() invalidates it — and
    /// mirrored into factor_stats().rcond on first computation.
    double rcond_estimate() const;

    /// ||A||_1 of the matrix this factorization was built from (refreshed by
    /// refactor()); the certificate layer reuses it for error scaling.
    double norm1() const { return a_norm1_; }

private:
    struct Entry {
        int row;
        T value;
    };
    using Column = std::vector<Entry>;

    size_t n_ = 0;
    std::vector<Column> l_;  // unit-lower; first entry of column k is the diagonal (1)
    std::vector<Column> u_;  // upper; diagonal stored last in each column
    std::vector<int> perm_;  // min-degree order: perm_[k] = original index factored k-th
    std::vector<int> iperm_; // original index -> permuted position
    std::vector<int> pinv_;  // permuted row -> pivot position
    mutable LuFactorStats stats_;     // mutable: rcond is filled lazily
    double a_norm1_ = 0.0;            // ||A||_1 of the factored matrix
    mutable double rcond_cache_ = -1.0; // < 0: not yet estimated
    std::vector<T> work_;               // refactor scatter column
};

/// Owns a SparseLU and decides, per factor() call, between the cheap numeric
/// refactor path and a full re-pivoting factorization:
///
///   * first call or pattern change -> full factorization; its min |pivot|
///     becomes the health reference.
///   * otherwise refactor; if the refactored min |pivot| degrades below
///     kRepivotTol times the reference (or a pivot lands on exact zero) the
///     stale pivot sequence is declared unhealthy and a full factorization
///     runs instead.
///
/// Registry counters: `numeric/lu_refactor` per reuse attempt, split into
/// `numeric/lu_symbolic_reuse` (kept) and `numeric/lu_repivot_fallbacks`
/// (guard tripped).  Fault point `numeric.lu.repivot` forces a fallback.
template <class T>
class ReusableLU {
public:
    /// Threshold partial pivoting of a full factorization.
    static constexpr double kPivotTol = 0.1;
    /// Min-pivot degradation guard of a refactor vs. the reference.
    static constexpr double kRepivotTol = 1e-3;

    /// Factors `a`, reusing the cached symbolic analysis when healthy.
    /// Raises (like the SparseLU constructor) on a singular matrix; the
    /// object is then empty, never stale.
    void factor(const SparseCSC<T>& a);

    bool has_factor() const { return lu_ != nullptr; }
    const SparseLU<T>& lu() const {
        SNIM_ASSERT(lu_ != nullptr, "ReusableLU used before factor()");
        return *lu_;
    }

    std::vector<T> solve(const std::vector<T>& b) const { return lu().solve(b); }
    std::vector<T> solve_transpose(const std::vector<T>& b) const {
        return lu().solve_transpose(b);
    }
    const LuFactorStats& factor_stats() const { return lu().factor_stats(); }
    double rcond_estimate() const { return lu().rcond_estimate(); }

private:
    void full_factor(const SparseCSC<T>& a);

    std::unique_ptr<SparseLU<T>> lu_;
    std::vector<int> pattern_cp_, pattern_ri_; // pattern the cache was built on
    double ref_min_pivot_ = 0.0; // min |pivot| of the last full factorization
};

extern template class SparseLU<double>;
extern template class SparseLU<std::complex<double>>;
extern template class ReusableLU<double>;
extern template class ReusableLU<std::complex<double>>;

} // namespace snim
