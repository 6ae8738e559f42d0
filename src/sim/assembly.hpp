// Incremental transient assembly (DESIGN.md §14).
//
// The transient Newton loop re-stamps every device each iteration even
// though most stamps never change: resistor and controlled-source entries
// are constant for the whole run, and companion (C/L) entries are a pure
// function of the step size and integration order.  TranAssembler splits
// the netlist by circuit::Partition and rebuilds only what moved:
//
//   * one full learning pass records the stamp-call tape and each device's
//     span in it (the Stamper's compiled scatter map supplies the
//     call -> CSC-slot mapping);
//   * linear matrix images are cached per (dt, order) key — the retry
//     ladder only ever visits power-of-two fractions of the nominal dt, so
//     the key set stays tiny;
//   * per step attempt, companion and source stamps are refreshed into the
//     tape and the linear RHS baseline is rebuilt (it depends on time and
//     integration state);
//   * per Newton iteration, the CSC value image and RHS are restored from
//     the baselines (two vector copies) and only nonlinear devices
//     re-stamp, overlaying their recorded tape spans.
//
// Bit-identity with the full pass is a hard invariant, not a tolerance:
// CSC slot values are per-slot left-associated sums over the slot's stamp
// calls in pass order, so a slot whose linear calls all precede its
// nonlinear calls ("clean") gets the exact same sum from
// baseline-then-overlay.  Slots and RHS nodes where a linear call follows
// a nonlinear one ("mixed" — e.g. the trailing gmin diagonal stamp on a
// MOSFET node) are recomputed from the tape call-by-call after the
// overlay.  Every device stamp is value-independent (a MOSFET whose vds
// crosses zero changes values, not call positions), so the tape learned by
// the one full pass holds for the whole run; an overlay that deviates from
// it raises the Stamper's tape-deviation error.
//
// The assembled system is then solved by block elimination (CondensedLU):
// everything outside the few rows and columns the nonlinear overlay writes
// is the cached linear image, so its elimination is done once per (dt,
// order) key and once per attempt, and each Newton iteration only factors
// the small dense Schur complement of the nonlinear block.
//
// Registry counters: sim/assemble_full, sim/assemble_incremental,
// sim/assemble_cache_hits, sim/assemble_cache_misses,
// sim/condensed_a11_factors (one per linear image), sim/condensed_s_factors
// (one per Newton solve).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "numeric/sparse_lu.hpp"

namespace snim::circuit {
class Capacitor;
} // namespace snim::circuit

namespace snim::sim {

/// Block-elimination solver for the transient Newton system A x = b.
///
/// The unknowns split into the condensed set N and the linear rest L.  N
/// holds every row and column the nonlinear overlay writes and every RHS
/// node it writes, grown until A11 = A(L, L) is structurally nonsingular
/// (e.g. the branch current of a voltage source between two nonlinear
/// nodes has no entry left in A11).  Under one (dt, order) key A11,
/// A12 = A(L, N), A21 = A(N, L) and b1 = b(L) are linear, so
///
///   per key:       sparse LU of A11, W = A11^{-1} A12 (dense |L| x |N|),
///                  C = A21 W;
///   per attempt:   z1 = A11^{-1} b1, c = A21 z1;
///   per iteration: S = A22(x) - C, dense LU with partial pivoting,
///                  x2 = S^{-1} (b2(x) - c), x1 = z1 - W x2.
///
/// solve / solve_transpose / rcond_estimate act on the whole system through
/// the current factors, which is what certify_solve needs.
class CondensedLU {
public:
    /// The linear-block factors of one (dt, order) key.
    struct KeyFactors {
        std::unique_ptr<SparseLU<double>> a11; // null when L is empty
        std::vector<double> w;   // A11^{-1} A12, |L| x |N| row-major
        std::vector<double> c;   // A21 W, |N| x |N| column-major
        std::vector<double> a21; // A21 values, aligned with the A21 entry list
        double min_pivot = std::numeric_limits<double>::infinity(); // of A11
        double fill_growth = 0.0; // stored factor entries / nnz(A)
    };

    /// Splits the unknowns of `a`'s pattern; `seed[i]` != 0 puts unknown i
    /// in N.  N then grows until A11 admits a perfect row/column matching.
    void partition(const SparseCSC<double>& a, std::vector<char> seed);

    /// Per key: factors A11 from the linear CSC image `values` (same
    /// pattern as the partitioned matrix).  Raises on a singular A11.
    KeyFactors factor_linear(const std::vector<double>& values);
    /// Per attempt: z1 and c for the RHS `b` (only b(L) is read).
    void begin_attempt(const KeyFactors& kf, const std::vector<double>& b);
    /// Per iteration: S = A22 - C from the assembled `a`, which must match
    /// the key image outside N x N.  Raises when S is singular.  `a` must
    /// outlive the factors (rcond_estimate reads its norm).
    void factor(const SparseCSC<double>& a);
    /// Newton solve x = A^{-1} b, where b must equal the attempt's RHS at
    /// the L rows (the nonlinear overlay only writes N rows).
    void solve_newton(const std::vector<double>& b, std::vector<double>& x);

    /// Full solves on the current factors, any right-hand side.
    std::vector<double> solve(const std::vector<double>& b) const;
    std::vector<double> solve_transpose(const std::vector<double>& b) const;
    /// Hager/Higham reciprocal 1-norm condition estimate of A, cached per
    /// factor().
    double rcond_estimate() const;

    /// Smallest |pivot| over the A11 and S factorizations.
    double min_pivot() const { return std::min(kf_->min_pivot, s_min_pivot_); }
    double fill_growth() const { return kf_->fill_growth; }
    /// The condensed unknowns N, ascending.
    const std::vector<int>& condensed() const { return nset_; }

private:
    struct Entry {
        std::int32_t row = 0, col = 0; // block-local indices
        std::int32_t slot = 0;         // CSC slot in the full matrix
    };

    void dense_solve(std::vector<double>& r) const;
    void dense_solve_transpose(std::vector<double>& r) const;

    size_t n_ = 0;
    std::vector<int> nset_, lset_;     // N and L unknowns, ascending
    SparseCSC<double> a11_;            // A11 pattern; values filled per key
    std::vector<std::int32_t> a11_slot_; // A11 entry -> full CSC slot
    std::vector<Entry> a12_, a21_, a22_;

    const KeyFactors* kf_ = nullptr;   // factors of the current key
    const SparseCSC<double>* a_ = nullptr; // last factored system
    std::vector<double> s_;            // LU of S in place, column-major
    std::vector<int> s_piv_;           // row swapped with row k at step k
    double s_min_pivot_ = std::numeric_limits<double>::infinity();
    mutable double rcond_cache_ = -1.0;

    // Per-attempt state and hot-loop scratch.
    std::vector<double> b1_, z1_, c_, x2_, scratch_;
};

class TranAssembler {
public:
    /// Binds to the netlist/stamper pair for one transient run.  The
    /// stamper must have compiled assembly enabled and no learned map yet;
    /// the assembler enables its RHS tape.  `gmin` must match what
    /// assemble_tran would stamp.  Each device must stay enabled or
    /// disabled for the assembler's whole life: the one learning pass fixes
    /// the tape (ablation studies toggle devices between runs, each with its
    /// own assembler).
    TranAssembler(const circuit::Netlist& netlist, circuit::RealStamper& s,
                  double gmin);

    /// Called once per step attempt, before the Newton loop: refreshes the
    /// companion/source tape values for `tp`, looks up (or builds) the
    /// (dt, order) linear matrix image and rebuilds the linear RHS
    /// baseline.  A no-op until the first full pass has learned the tape.
    void begin_attempt(const std::vector<double>& x, const circuit::TranParams& tp);

    /// Assembles the Newton system at iterate `x` into the stamper,
    /// equivalent bit-for-bit to `s.clear(); assemble_tran(...)`.  The
    /// first call is the full learning pass.
    void assemble(const std::vector<double>& x, const circuit::TranParams& tp);

    /// Solves the system the last assemble() left in the stamper into `x`
    /// by block elimination: the key's linear factors are built on first
    /// use and the attempt's linear solve on the first call after
    /// begin_attempt().  Raises snim::Error on a singular system.
    void solve(std::vector<double>& x);

    /// The solver holding the factors of the last solve().
    const CondensedLU& solver() const { return cond_; }

    /// Commits the accepted step into device state, equivalent to calling
    /// commit_tran on every device: only non-LinearStatic devices override
    /// it (the partition/commit pairing is asserted by the netlist tests),
    /// so the static majority is skipped, and planned capacitors commit
    /// through their plan.  `tp` must be the attempt's begin_attempt() /
    /// assemble() parameters.
    void commit(const std::vector<double>& x, const circuit::TranParams& tp);

private:
    struct Span {
        std::uint32_t mat_begin = 0, mat_end = 0;
        std::uint32_t rhs_begin = 0, rhs_end = 0;
    };
    /// A matrix slot (or RHS node) whose call sequence interleaves linear
    /// and nonlinear stamps; recomputed from the tape after each overlay.
    struct Replay {
        std::int32_t target = 0;          // CSC slot / RHS node
        std::vector<std::int32_t> calls;  // tape indices, in pass order
    };
    struct KeyImage {
        std::uint64_t dt_bits = 0;
        int order = 0;
        std::vector<double> values; // linear CSC baseline for this key
        std::unique_ptr<CondensedLU::KeyFactors> factors; // built on first solve
    };

    /// Compiled per-attempt refresh and commit for a capacitor: its stamp
    /// layout is value-independent and every recorded call value is exactly
    /// ±geq or ±ieq, so the refresh is a handful of direct tape writes
    /// instead of a stamp_tran replay through overlay mode, and the commit
    /// reuses the attempt's geq instead of a virtual commit_tran.  Built
    /// (and sign-validated bitwise against the learned tape) in compile();
    /// any mismatch leaves the device on the slow overlay path.
    struct CapPlan {
        circuit::Capacitor* cap = nullptr;
        circuit::NodeId a = -1, b = -1; // terminals (ground < 0)
        double geq = 0.0;               // companion conductance of the attempt
        // (tape index, +1/-1) pairs; matrix entries scale geq, RHS ieq.
        std::vector<std::pair<std::int32_t, std::int8_t>> mat;
        std::vector<std::pair<std::int32_t, std::int8_t>> rhs;
    };

    void full_pass(const std::vector<double>& x, const circuit::TranParams& tp);
    void compile(const circuit::TranParams& tp);
    void refresh_tapes(const std::vector<double>& x, const circuit::TranParams& tp);
    KeyImage& key_image(const circuit::TranParams& tp);
    void build_rhs_base();

    const circuit::Netlist& netlist_;
    circuit::RealStamper& s_;
    const double gmin_;

    std::vector<Span> spans_;          // per device, netlist order
    std::vector<std::uint32_t> nonlinear_;  // device indices, netlist order
    std::vector<std::uint32_t> refresh_;    // linear devices refreshed per attempt
    std::vector<std::uint32_t> slow_refresh_; // refresh_ minus planned capacitors
    std::vector<CapPlan> cap_plans_;        // compiled capacitor refreshes
    std::vector<std::int32_t> linear_calls_;     // tape indices of linear mat calls
    std::vector<std::int32_t> linear_rhs_calls_; // tape indices of linear rhs calls
    std::vector<Replay> mixed_slots_;
    std::vector<Replay> mixed_nodes_;

    std::vector<KeyImage> cache_;          // (dt, order) -> linear image
    KeyImage* image_ = nullptr;            // current key; null until learned
    std::vector<double> rhs_base_;         // linear RHS baseline for this attempt
    CondensedLU cond_;
    bool attempt_solved_ = false;          // z1/c are current for this attempt

    std::vector<circuit::Device*> commit_list_; // unplanned devices with real commit_tran

    // Slots / RHS nodes the nonlinear overlay writes.  After the first
    // assemble of an attempt has done a full baseline copy, later
    // iterations only need to restore these (everything else still holds
    // its baseline value), which turns the per-iteration restore from
    // O(nnz) copies into O(|nonlinear stamp|).
    std::vector<std::int32_t> nl_slots_;
    std::vector<std::int32_t> nl_rhs_nodes_;
    bool restore_full_ = true; // begin_attempt invalidates sparse restore
};

} // namespace snim::sim
