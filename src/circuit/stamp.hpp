// MNA stamping interfaces.
//
// Analyses build a matrix/RHS pair by asking every device to stamp itself.
// NodeId -1 is ground; stamps touching ground are silently dropped, which
// keeps device code free of special cases.
//
// Repeated assembly (Newton iterations, transient steps, AC points) can run
// in compiled mode: the first pass is recorded as a triplet sequence, the
// Stamper learns a one-time triplet->CSC index map, and every later pass
// scatters values straight into the CSC value array — no triplet rebuild,
// sort, or duplicate merge.  Device stamp sequences are value-independent
// (same entry() calls in the same order every pass), which is what makes the
// fixed map valid.  That is a contract, not a hint: a compiled pass that
// deviates from the tape, or ends short of it, raises a "stamp tape
// deviation" snim::Error naming the call index and the call it expected and
// got.  A MOSFET whose drain and source trade places keeps its call
// positions and changes only values.  The compiled image is bit-identical to
// the triplet-built CSC: the CSC constructor merges duplicates in insertion
// order (stable sort) and the scatter path assigns the first duplicate and
// accumulates the rest in the same stamp order.
#pragma once

#include <algorithm>
#include <complex>
#include <string>

#include "numeric/sparse.hpp"
#include "util/error.hpp"

namespace snim::circuit {

using NodeId = int;
inline constexpr NodeId kGround = -1;

/// Voltage of node `n` in solution vector `x` (ground reads as 0).
inline double volt(const std::vector<double>& x, NodeId n) {
    return n < 0 ? 0.0 : x[static_cast<size_t>(n)];
}

template <class T>
class Stamper {
public:
    explicit Stamper(size_t n_unknowns) : a_(n_unknowns), b_(n_unknowns, T{}) {}

    size_t size() const { return b_.size(); }

    void clear() {
        if (mapped_) {
            // Compiled mode: the CSC values are overwritten in place by the
            // next pass (assign-on-first-write), so only the sequence cursor
            // and RHS reset here.
            cursor_ = 0;
            rhs_cursor_ = 0;
        } else {
            a_.clear();
            rhs_nodes_seq_.clear();
            rhs_vals_seq_.clear();
        }
        std::fill(b_.begin(), b_.end(), T{});
    }

    /// Opts this stamper into compiled assembly: the next csc() call learns
    /// the triplet->CSC map from the pass assembled so far, and later passes
    /// scatter in place.  Must be called before the first assembly so the
    /// learned pattern keeps structural zeros (a stamp value that happens to
    /// be zero on the learning pass can be nonzero later).
    void enable_compiled_assembly() {
        compile_enabled_ = true;
        a_.set_keep_zeros(true);
    }
    bool compiled_mode() const { return mapped_; }

    /// Additionally records the RHS call sequence (node per rhs_current /
    /// rhs_entry call) alongside the matrix tape, so the incremental
    /// transient assembler can rebuild RHS baselines call-by-call.  Must be
    /// enabled before the first assembly, like compiled mode.
    void enable_rhs_tape() { rhs_tape_ = true; }

    /// Raw matrix entry A(row, col) += v; ground rows/cols dropped.
    void entry(NodeId row, NodeId col, T v) {
        if (row < 0 || col < 0) return;
        if (!mapped_) {
            a_.add(static_cast<size_t>(row), static_cast<size_t>(col), v);
            return;
        }
        if (cursor_ >= rows_seq_.size() || rows_seq_[cursor_] != row ||
            cols_seq_[cursor_] != col)
            deviation("matrix", cursor_, mat_call(cursor_), format("(%d,%d)", row, col));
        seq_vals_[cursor_] = v;
        T& slot = csc_.values_mut()[static_cast<size_t>(map_[cursor_])];
        if (first_[cursor_])
            slot = v;
        else
            slot += v;
        ++cursor_;
    }

    /// Two-terminal admittance stamp between nodes a and b.
    void admittance(NodeId a, NodeId b, T y) {
        entry(a, a, y);
        entry(b, b, y);
        entry(a, b, -y);
        entry(b, a, -y);
    }

    /// Transconductance: current y*(v(cp)-v(cn)) flows from `to` out of `from`
    /// (i.e. a VCCS with output current from -> to through the element).
    void transconductance(NodeId from, NodeId to, NodeId cp, NodeId cn, T y) {
        entry(from, cp, y);
        entry(from, cn, -y);
        entry(to, cp, -y);
        entry(to, cn, y);
    }

    /// RHS: current `i` flowing INTO node `n` from an independent source.
    void rhs_current(NodeId n, T i) {
        if (n < 0) return;
        if (rhs_tape_) {
            if (!mapped_) {
                rhs_nodes_seq_.push_back(n);
                rhs_vals_seq_.push_back(i);
            } else {
                if (rhs_cursor_ >= rhs_nodes_seq_.size() ||
                    rhs_nodes_seq_[rhs_cursor_] != n)
                    deviation("rhs", rhs_cursor_, rhs_call(rhs_cursor_),
                              format("node %d", n));
                rhs_vals_seq_[rhs_cursor_] = i;
                ++rhs_cursor_;
            }
        }
        b_[static_cast<size_t>(n)] += i;
    }

    /// RHS entry for a branch (auxiliary) equation row.
    void rhs_entry(NodeId row, T v) { rhs_current(row, v); }

    const Triplets<T>& matrix() const { return a_; }
    Triplets<T>& matrix() { return a_; }
    const std::vector<T>& rhs() const { return b_; }

    /// CSC image of the pass assembled since the last clear().  With
    /// compiled assembly enabled, the first call builds it from the triplets
    /// and learns the scatter map; later passes return the image entry()
    /// already filled in place, after checking they ran the whole tape.
    const SparseCSC<T>& csc() {
        if (mapped_) {
            expect_cursor(rows_seq_.size(), rhs_nodes_seq_.size(), "pass");
            return csc_;
        }
        csc_ = SparseCSC<T>(a_);
        if (compile_enabled_) learn_map();
        return csc_;
    }

    // --- partitioned incremental assembly ------------------------------
    // The transient assembler restores a precomputed linear baseline into
    // the CSC value array / RHS, then re-stamps only the nonlinear devices
    // ("overlay"): each device's calls are verified against the learned
    // tape from its recorded span position, exactly as in a full pass.

    /// Positions the matrix/RHS cursors at a recorded device span so the
    /// device's stamp calls overwrite exactly its learned tape positions.
    void overlay_seek(size_t mat_pos, size_t rhs_pos) {
        SNIM_ASSERT(mapped_, "stamp overlay before the tape was learned");
        cursor_ = mat_pos;
        rhs_cursor_ = rhs_pos;
    }
    /// Raises the tape-deviation error unless the re-stamped span ended
    /// exactly at its recorded end.
    void overlay_check(size_t mat_end, size_t rhs_end) const {
        expect_cursor(mat_end, rhs_end, "span");
    }
    /// Marks the overlaid pass complete, so csc() returns the image.
    void end_overlay() {
        cursor_ = rows_seq_.size();
        rhs_cursor_ = rhs_nodes_seq_.size();
    }

    // Tape/scatter introspection for the incremental assembler.  All views
    // are only meaningful in compiled mode with a learned map.
    const std::vector<int>& tape_rows() const { return rows_seq_; }
    const std::vector<int>& tape_cols() const { return cols_seq_; }
    const std::vector<T>& tape_values() const { return seq_vals_; }
    /// Stamp call -> CSC value slot.
    const std::vector<int>& tape_slots() const { return map_; }
    /// Nonzero when the call is the first landing in its slot (assign
    /// instead of accumulate).
    const std::vector<char>& tape_assigns() const { return first_; }
    const std::vector<int>& rhs_tape_nodes() const { return rhs_nodes_seq_; }
    const std::vector<T>& rhs_tape_values() const { return rhs_vals_seq_; }
    /// Mutable per-call tape values, for the assembler's compiled refresh
    /// plans: a device whose stamp layout is value-independent can rewrite
    /// its recorded call values in place instead of replaying the stamp
    /// through overlay mode.  The call sequence itself must not change.
    std::vector<T>& tape_values_mut() { return seq_vals_; }
    std::vector<T>& rhs_tape_values_mut() { return rhs_vals_seq_; }
    /// Direct value-image access for baseline restore (memcpy of a
    /// precomputed linear image); the pattern must not change.
    std::vector<T>& csc_values_mut() { return csc_.values_mut(); }
    std::vector<T>& rhs_mut() { return b_; }

    /// Multiplier independent sources apply to their excitation value.
    /// 1.0 everywhere except during the op solver's source-stepping
    /// homotopy rung, which ramps it from ~0 to 1 (sim::assemble_dc sets
    /// it; nonlinear companion stamps must NOT scale by it).
    void set_source_scale(double scale) { source_scale_ = scale; }
    double source_scale() const { return source_scale_; }

private:
    std::string mat_call(size_t k) const {
        return k < rows_seq_.size() ? format("(%d,%d)", rows_seq_[k], cols_seq_[k])
                                    : std::string("end of tape");
    }
    std::string rhs_call(size_t k) const {
        return k < rhs_nodes_seq_.size() ? format("node %d", rhs_nodes_seq_[k])
                                         : std::string("end of tape");
    }

    /// A compiled pass left the learned call sequence: device stamps must
    /// make the same calls in the same order every pass.
    [[noreturn]] static void deviation(const char* tape, size_t k,
                                       const std::string& expected,
                                       const std::string& got) {
        raise("stamp tape deviation: %s call %zu expected %s, got %s", tape, k,
              expected.c_str(), got.c_str());
    }

    /// Raises unless the cursors stopped exactly at (mat_end, rhs_end): a
    /// cursor short of it made fewer calls, one past it made extra calls.
    void expect_cursor(size_t mat_end, size_t rhs_end, const char* what) const {
        if (cursor_ == mat_end && rhs_cursor_ == rhs_end) return;
        const std::string end = format("end of %s", what);
        if (cursor_ < mat_end) deviation("matrix", cursor_, mat_call(cursor_), end);
        if (cursor_ > mat_end) deviation("matrix", mat_end, end, mat_call(mat_end));
        if (rhs_cursor_ < rhs_end)
            deviation("rhs", rhs_cursor_, rhs_call(rhs_cursor_), end);
        deviation("rhs", rhs_end, end, rhs_call(rhs_end));
    }

    void learn_map() {
        const auto& rows = a_.rows();
        const auto& cols = a_.cols();
        const auto& vals = a_.values();
        const size_t nz = rows.size();
        rows_seq_.assign(rows.begin(), rows.end());
        cols_seq_.assign(cols.begin(), cols.end());
        seq_vals_.assign(vals.begin(), vals.end());
        map_.resize(nz);
        first_.assign(nz, 0);
        std::vector<char> seen(csc_.nnz(), 0);
        const auto& cp = csc_.col_ptr();
        const auto& ri = csc_.row_idx();
        for (size_t k = 0; k < nz; ++k) {
            const size_t c = static_cast<size_t>(cols[k]);
            const int* lo = ri.data() + cp[c];
            const int* hi = ri.data() + cp[c + 1];
            const int* it = std::lower_bound(lo, hi, rows[k]);
            SNIM_ASSERT(it != hi && *it == rows[k], "stamp map: slot (%d,%d) missing",
                        rows[k], cols[k]);
            const size_t slot = static_cast<size_t>(it - ri.data());
            map_[k] = static_cast<int>(slot);
            if (!seen[slot]) {
                seen[slot] = 1;
                first_[k] = 1;
            }
        }
        mapped_ = true;
        cursor_ = nz; // the learning pass itself is complete and consistent
        rhs_cursor_ = rhs_nodes_seq_.size();
    }

    Triplets<T> a_;
    std::vector<T> b_;
    double source_scale_ = 1.0;

    bool compile_enabled_ = false;
    bool mapped_ = false;
    size_t cursor_ = 0;          // position in the learned stamp sequence
    SparseCSC<T> csc_;           // compiled image (values of the current pass)
    std::vector<int> rows_seq_;  // learned sequence: row per stamp call
    std::vector<int> cols_seq_;  // learned sequence: col per stamp call
    std::vector<T> seq_vals_;    // values of the current pass
    std::vector<int> map_;       // stamp call -> CSC value slot
    std::vector<char> first_;    // first stamp landing in its slot -> assign

    bool rhs_tape_ = false;          // record the RHS call sequence
    size_t rhs_cursor_ = 0;          // position in the learned RHS sequence
    std::vector<int> rhs_nodes_seq_; // learned sequence: node per rhs call
    std::vector<T> rhs_vals_seq_;    // RHS values of the current pass
};

using RealStamper = Stamper<double>;
using ComplexStamper = Stamper<std::complex<double>>;

/// Transient integration context handed to stamp_tran/commit_tran.
struct TranParams {
    double time = 0.0; // end of the step being solved
    double dt = 0.0;
    /// 1 = backward Euler, 2 = trapezoidal.
    int order = 2;
};

} // namespace snim::circuit
