// Periodic steady state of an autonomous oscillator by shooting Newton
// (Aprille & Trick 1972; DESIGN.md §15).
//
// The state is the unknown vector x plus every device's integration-state
// image (save_tran_state / load_tran_state), and the period T.  One period
// is integrated by the transient engine's own stepper (sim::TranStepper:
// same assembler, condensed solve, Newton, integrator and order as
// capture_oscillator) in an odd number S of equal steps T / S.  Newton
// solves
//
//     P(z, T) - z = 0,   probe(x(T)) = c
//
// where P is the period map and the phase condition pins a rising crossing
// of the probe at level c.  The bordered Jacobian [P_z - I, P_T; g_z, g_T]
// is solved matrix-free by GCR: each product P_z v is one extra period
// integrated from a perturbed start state (a forward difference); P_T and
// g_T come from the base period's last three states.
//
// A cold start runs a warm-up transient from the operating point, exactly
// the brute-force capture's prefix, until the probe's period and amplitude
// drift by less than 1% from one period to the next.  It then solves the
// orbit on the largest odd S whose step is not shorter than dt and on
// S + 2, and reads fc, amplitude and the averages out at step dt by
// interpolating in step^2.  A warm start (a nearby circuit, e.g. the noise
// source moved by +-dv) begins at a previous orbit, needs no warm-up,
// solves on that orbit's S only and applies its read-out shift.
//
// The circuit must be autonomous once the warm-up ends: DC sources, and any
// startup kick finished.
#pragma once

#include <memory>

#include "rf/oscillator.hpp"
#include "util/error.hpp"

namespace snim::rf {

/// Raised when no periodic orbit is found: no steady oscillation within the
/// warm-up budget, a Newton iteration that does not converge, or an orbit
/// outside [f_min, f_max].
class PssError : public Error {
public:
    using Error::Error;
};

/// Directions of the shooting Jacobian a cold-start PSS learned, in its
/// scaled coordinates (the unknowns and their scales).  Its warm starts
/// share the basis read-only as their first Krylov directions, so each
/// one's result does not depend on the others.
struct PssKrylov {
    std::vector<size_t> active; // image entries that are unknowns
    std::vector<double> scale;  // their scales
    double probe_scale = 0.0;   // of the phase condition
    double time_scale = 0.0;    // of the period
    std::vector<std::vector<double>> u, c; // c = J u, orthonormal
};

struct OscPss {
    /// The orbit read out like a capture: wave = the probe at the `grid`
    /// steps of one period (fs = grid / grid_period); fc, amplitude and
    /// mean of the probe's fundamental and node_avg (the period average of
    /// every unknown), each moved by `shift` from the grid's step to dt.
    OscCapture capture;
    /// 1 / capture.fc.
    double period = 0.0;
    /// Read-out shift from the orbit on the grid to the step dt, measured
    /// by a cold start (two grids) and reused by its warm starts.
    struct Shift {
        double fc = 0.0, amplitude = 0.0, mean = 0.0;
        std::vector<double> node_avg;
    } shift;
    /// Newton iterations and accepted transient steps, warm-up included.
    int newton_iterations = 0;
    long steps = 0;

    // The orbit on the coarser of the two grids (see oscillator_pss), the
    // warm start of a nearby PSS.
    long grid = 0;              // steps per period
    double grid_period = 0.0;   // its period
    std::vector<double> x0;     // solution at the orbit start
    std::vector<double> state0; // device integration-state image there
    std::vector<char> dynamic;  // image entries that move along the orbit
    double t0 = 0.0;            // source time of the orbit start
    double level = 0.0;         // probe level of the phase condition
    std::shared_ptr<const PssKrylov> krylov;
};

/// Finds the oscillator's periodic steady state.  `opt` is read as by
/// capture_oscillator (probe, dt, order, gmin, certify, band; settle +
/// capture bound the warm-up).  With `start`, Newton begins at that orbit
/// (same netlist topology, e.g. another source value) instead of running a
/// warm-up.  Throws PssError when no orbit is found.
OscPss oscillator_pss(circuit::Netlist& netlist, const OscOptions& opt,
                      const OscPss* start = nullptr);

} // namespace snim::rf
