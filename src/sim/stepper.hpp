// The accepted-step loop of the transient engine, one step at a time.
//
// TranStepper owns the assembler, the Newton iteration, the dt backoff
// ladder, the solve certificates and the per-step telemetry of one engine
// run.  sim::transient() drives it over the nominal grid and adds recording
// and checkpoints; rf::oscillator_pss drives the same stepper over single
// oscillator periods, so the PSS orbit is the transient's own discrete orbit
// (DESIGN.md §15).
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "circuit/netlist.hpp"
#include "sim/assembly.hpp"
#include "sim/diagnostics.hpp"
#include "sim/transient.hpp"

namespace snim::sim {

/// Bounded FIFO of retry events for the diagnosis bundle.
class RetryLog {
public:
    explicit RetryLog(size_t capacity) : cap_(std::max<size_t>(1, capacity)) {}

    void push(RetryEvent e) {
        if (events_.size() == cap_) events_.erase(events_.begin());
        events_.push_back(std::move(e));
        ++total_;
    }
    const std::vector<RetryEvent>& events() const { return events_; }
    long total() const { return total_; }

private:
    size_t cap_;
    std::vector<RetryEvent> events_;
    long total_ = 0;
};

class TranStepper {
public:
    /// Binds to `netlist`, whose devices already hold their integration
    /// state (init_tran or load_tran_state), starting from the accepted
    /// solution `x`.  `opt` must outlive the stepper.
    TranStepper(circuit::Netlist& netlist, const TranOptions& opt, std::vector<double> x);

    /// Integrates one step of length `h` from `t_base` to `t_end`,
    /// subdividing by the retry ladder when Newton fails; the last
    /// micro-step lands on `t_end` exactly.  Returns nullptr once the step
    /// is accepted, or why the retry budget ran out ("did not converge",
    /// ...), with the state left at the last accepted micro-step.  `step`
    /// labels retry events and log lines.
    const char* advance(long step, double t_base, double h, double t_end);

    // The accepted state and the resumable counters (checkpointed by
    // transient(); reset by the PSS at the start of each period).
    std::vector<double> x_acc;  // last accepted (committed) solution
    std::vector<double> x_prev; // accepted solution one micro-step back
    long attempt_no = 0;        // global step-attempt counter (telemetry "step")
    long be_steps_done = 0;     // accepted steps so far (the first kBeStartupSteps are BE)
    int level = 0;              // current subdivision depth (0 = nominal dt)
    int consecutive_accepts = 0;
    double dt_prev = 0.0;       // accepted step before the current one (predictor, LTE)
    bool lte_ok = true;         // last accepted step passed the LTE gate
    long step_retries = 0;      // rejected attempts recovered so far

    const StepTelemetryRing& ring() const { return ring_; }
    const RetryLog& retries() const { return retries_; }
    const std::vector<double>& last_dx() const { return last_dx_; }

private:
    circuit::Netlist& netlist_;
    const TranOptions& opt_;
    const size_t n_;
    int max_level_ = 0;
    double lte_reltol_ = 0.0, lte_abstol_ = 0.0;
    circuit::RealStamper s_;
    std::optional<TranAssembler> assembler_;
    std::vector<double> xit_;     // Newton iterate of the attempt
    std::vector<double> last_dx_; // per-unknown update of the last iteration
    std::vector<double> xn_;      // tentative Newton iterate
    StepTelemetryRing ring_;
    RetryLog retries_;
};

} // namespace snim::sim
