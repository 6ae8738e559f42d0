// Incremental transient-assembly suite (DESIGN.md §14).
//
// The contracts under test are bitwise, not approximate:
//   * TranAssembler's baseline-restore + nonlinear-overlay assembly must
//     reproduce `clear + assemble_tran` exactly — across iterations, step
//     attempts, (dt, order) cache keys, commits and MOSFET orientation
//     flips, all on the one tape learned by the first pass;
//   * the condensed block-elimination solve (CondensedLU) must match a
//     fresh SparseLU of the same assembled system to round-off (1e-12
//     relative), bitwise when the condensed set is empty, including the
//     netlists that force the condensed set to grow;
//   * the production engine (incremental assembly, condensed solve,
//     predictor) must land on the same waveform as the full-re-stamp,
//     fresh-factorization reference in tran_reference.hpp, to within the
//     Newton tolerance.
// Runs as its own binary (ctest label `perf`) because it asserts on the
// global registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "circuit/mosfet.hpp"
#include "circuit/netlist.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/stamp.hpp"
#include "numeric/sparse_lu.hpp"
#include "obs/registry.hpp"
#include "sim/assembly.hpp"
#include "sim/mna.hpp"
#include "sim/transient.hpp"
#include "tech/generic180.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

#include "tran_reference.hpp"

using namespace snim;

namespace {

class AssemblyTest : public ::testing::Test {
protected:
    void SetUp() override {
        fault::clear();
#if SNIM_OBS_ENABLED
        obs::reset();
        obs::set_enabled(false);
#endif
    }
    void TearDown() override {
        fault::clear();
#if SNIM_OBS_ENABLED
        obs::reset();
        obs::set_enabled(false);
#endif
    }
};

/// RC ladder with `nmos` MOSFETs tapping gates along it — the static
/// majority plus a small moving nonlinear set, like the paper testcases.
circuit::Netlist mixed_netlist(int stages, int nmos, Rng& rng) {
    circuit::Netlist nl;
    const tech::Technology t = tech::generic180();
    const tech::MosModelCard nch = t.mos_model("nch");
    nl.add<circuit::VSource>("vin", nl.node("n0"), circuit::kGround,
                             circuit::Waveform::sin(0.0, 0.5, 1e9));
    nl.add<circuit::VSource>("vdd", nl.node("vdd"), circuit::kGround,
                             circuit::Waveform::dc(1.8));
    for (int i = 0; i < stages; ++i) {
        nl.add<circuit::Resistor>(format("r%d", i), nl.node(format("n%d", i)),
                                  nl.node(format("n%d", i + 1)),
                                  10.0 + rng.uniform(0, 90));
        nl.add<circuit::Capacitor>(format("c%d", i), nl.node(format("n%d", i + 1)),
                                   circuit::kGround, 1e-13 * (1 + rng.uniform(0, 3)));
        // Floating coupling caps exercise the 4-entry compiled refresh
        // plan (grounded caps only have the 1-entry shape).
        if (i >= 2 && i % 3 == 0)
            nl.add<circuit::Capacitor>(format("cc%d", i),
                                       nl.node(format("n%d", i - 2)),
                                       nl.node(format("n%d", i + 1)),
                                       2e-14 * (1 + rng.uniform(0, 2)));
    }
    for (int m = 0; m < nmos; ++m) {
        nl.add<circuit::Resistor>(format("rd%d", m), nl.node("vdd"),
                                  nl.node(format("d%d", m)), 1e3);
        nl.add<circuit::Mosfet>(
            format("m%d", m), nl.node(format("d%d", m)),
            nl.node(format("n%d", 1 + (7 * m) % stages)), circuit::kGround,
            circuit::kGround, nch, circuit::MosGeometry{});
    }
    nl.finalize();
    return nl;
}

void expect_bitwise_equal(circuit::RealStamper& inc, circuit::RealStamper& ref,
                          const char* when) {
    const auto& iv = inc.csc().values();
    const auto& rv = ref.csc().values();
    ASSERT_EQ(iv.size(), rv.size()) << when;
    EXPECT_EQ(std::memcmp(iv.data(), rv.data(), iv.size() * sizeof(double)), 0)
        << "matrix diverged: " << when;
    EXPECT_EQ(std::memcmp(inc.rhs().data(), ref.rhs().data(),
                          inc.rhs().size() * sizeof(double)),
              0)
        << "rhs diverged: " << when;
}

// --- TranAssembler vs the full pass ---------------------------------------

TEST_F(AssemblyTest, IncrementalMatchesFullAssemblyAcrossRandomNetlists) {
    Rng rng(1234);
    for (int trial = 0; trial < 5; ++trial) {
        auto nl = mixed_netlist(10 + 5 * trial, 1 + trial % 3, rng);
        const size_t n = nl.unknown_count();
        const double gmin = 1e-12;

        circuit::RealStamper inc(n), ref(n);
        inc.enable_compiled_assembly();
        ref.enable_compiled_assembly();
        sim::TranAssembler asmb(nl, inc, gmin);

        circuit::TranParams tp;
        tp.order = 2;
        std::vector<double> x(n, 0.2);
        // Attempts cycle the retry-ladder dt set (cache keys) and commit
        // between them; iterations random-walk the iterate inside
        // [-0.5, 0.5], so MOSFET drain/source orientations flip.
        const double dts[] = {10e-12, 5e-12, 10e-12, 2.5e-12, 10e-12};
        for (int a = 0; a < 5; ++a) {
            tp.dt = dts[a];
            tp.time = (a + 1) * 10e-12;
            asmb.begin_attempt(x, tp);
            for (int it = 0; it < 3; ++it) {
                for (size_t i = 0; i < n; ++i)
                    x[i] = 0.5 * x[i] + 0.25 * rng.uniform(-1, 1);
                asmb.assemble(x, tp);
                ref.clear();
                sim::assemble_tran(nl, ref, x, tp, gmin);
                expect_bitwise_equal(
                    inc, ref,
                    format("trial %d attempt %d it %d", trial, a, it).c_str());
            }
            asmb.commit(x, tp);
        }
    }
}

#if SNIM_OBS_ENABLED
TEST_F(AssemblyTest, OrientationFlipStaysIncrementalAndBitIdentical) {
    obs::set_enabled(true);
    Rng rng(7);
    auto nl = mixed_netlist(12, 2, rng);
    const size_t n = nl.unknown_count();
    const double gmin = 1e-12;

    circuit::RealStamper inc(n), ref(n);
    inc.enable_compiled_assembly();
    ref.enable_compiled_assembly();
    sim::TranAssembler asmb(nl, inc, gmin);

    circuit::TranParams tp;
    tp.dt = 10e-12;
    tp.order = 2;
    std::vector<double> x(n, 0.5);
    asmb.begin_attempt(x, tp);
    asmb.assemble(x, tp);
    ASSERT_EQ(obs::counter_value("sim/assemble_full"), 1u);
    const auto incremental0 = obs::counter_value("sim/assemble_incremental");

    // Pull every node negative: MOSFET vds flips sign.  The stamp writes
    // the same tape positions with swapped coefficients, so the overlay
    // stays on the learned tape and still hands back exactly what the full
    // pass would.
    for (size_t i = 0; i < n; ++i) x[i] = -0.5;
    asmb.assemble(x, tp);
    ref.clear();
    sim::assemble_tran(nl, ref, x, tp, gmin);
    expect_bitwise_equal(inc, ref, "after orientation flip");
    EXPECT_EQ(obs::counter_value("sim/assemble_full"), 1u);
    EXPECT_GT(obs::counter_value("sim/assemble_incremental"), incremental0);
}
#endif

// --- condensed solve ------------------------------------------------------

/// max |x - ref| / max(|ref|_inf, 1e-300): the relative distance the
/// condensed solve must keep from a fresh SparseLU.
double rel_diff(const std::vector<double>& x, const std::vector<double>& ref) {
    double d = 0.0, r = 0.0;
    for (size_t i = 0; i < ref.size(); ++i) {
        d = std::max(d, std::fabs(x[i] - ref[i]));
        r = std::max(r, std::fabs(ref[i]));
    }
    return d / std::max(r, 1e-300);
}

/// Drives a TranAssembler through two (dt, order) keys and several Newton
/// iterates, and checks every condensed solve — the Newton solve and the
/// full solve / solve_transpose certify_solve uses — against a fresh
/// SparseLU of the assembled system.  Returns the condensed set.
std::vector<int> check_condensed_against_fresh_lu(circuit::Netlist& nl, const char* name) {
    nl.finalize();
    const size_t n = nl.unknown_count();
    Rng rng(11);
    std::vector<double> x(n, 0.0);
    for (auto& v : x) v = rng.uniform(0.0, 1.2);
    for (const auto& d : nl.devices()) d->init_tran(x);

    circuit::RealStamper s(n);
    s.enable_compiled_assembly();
    sim::TranAssembler asmb(nl, s, 1e-12);
    circuit::TranParams tp;
    std::vector<double> xc;
    const double dts[] = {20e-12, 10e-12, 20e-12};
    for (int a = 0; a < 3; ++a) {
        tp.dt = dts[a];
        tp.order = a == 0 ? 1 : 2;
        tp.time = (a + 1) * 20e-12;
        asmb.begin_attempt(x, tp);
        for (int it = 0; it < 3; ++it) {
            for (auto& v : x) v += 0.05 * rng.uniform(-1, 1);
            asmb.assemble(x, tp);
            asmb.solve(xc);
            const SparseLU<double> fresh(s.csc());
            const auto xf = fresh.solve(s.rhs());
            EXPECT_LE(rel_diff(xc, xf), 1e-12)
                << name << ": Newton solve, attempt " << a << " it " << it;

            std::vector<double> b(n);
            for (auto& v : b) v = rng.uniform(-1, 1);
            EXPECT_LE(rel_diff(asmb.solver().solve(b), fresh.solve(b)), 1e-12)
                << name << ": solve, attempt " << a << " it " << it;
            EXPECT_LE(rel_diff(asmb.solver().solve_transpose(b), fresh.solve_transpose(b)),
                      1e-12)
                << name << ": solve_transpose, attempt " << a << " it " << it;
        }
        asmb.commit(xc, tp);
    }
    const double rc = asmb.solver().rcond_estimate();
    EXPECT_GT(rc, 0.0) << name;
    EXPECT_LE(rc, 1.0) << name;
    return asmb.solver().condensed();
}

bool contains(const std::vector<int>& v, int x) {
    return std::find(v.begin(), v.end(), x) != v.end();
}

TEST_F(AssemblyTest, CondensedSolveMatchesFreshSparseLu) {
    const tech::MosModelCard nch = tech::generic180().mos_model("nch");
    const auto drive = [](circuit::Netlist& nl) {
        nl.add<circuit::VSource>("vdd", nl.node("vdd"), circuit::kGround,
                                 circuit::Waveform::dc(1.8));
        nl.add<circuit::VSource>("vin", nl.node("g"), circuit::kGround,
                                 circuit::Waveform::sin(0.9, 0.3, 2e8));
        nl.add<circuit::Resistor>("rd", nl.node("vdd"), nl.node("d"), 2e3);
        nl.add<circuit::Capacitor>("cd", nl.node("d"), circuit::kGround, 1e-13);
    };

    {
        // A voltage source between two MOSFET nodes: its branch current has
        // no entry outside the nonlinear rows and columns, so A11 is
        // structurally singular until the condensed set takes it in.
        circuit::Netlist nl;
        drive(nl);
        nl.add<circuit::Mosfet>("m0", nl.node("d"), nl.node("g"), nl.node("s"),
                                circuit::kGround, nch, circuit::MosGeometry{});
        auto& vds = nl.add<circuit::VSource>("vds", nl.node("d2"), nl.node("s"),
                                             circuit::Waveform::dc(0.3));
        nl.add<circuit::Mosfet>("m1", nl.node("d2"), nl.node("g"), circuit::kGround,
                                circuit::kGround, nch, circuit::MosGeometry{});
        nl.add<circuit::Resistor>("rs", nl.node("s"), circuit::kGround, 500.0);
        const auto cond = check_condensed_against_fresh_lu(nl, "vsource between MOSFETs");
        EXPECT_TRUE(contains(cond, vds.aux_base())) << "branch current not condensed";
    }
    {
        // An inductor branch on a MOSFET drain.
        circuit::Netlist nl;
        drive(nl);
        nl.add<circuit::Inductor>("ld", nl.node("d"), nl.node("tank"), 2e-9, 1.0);
        nl.add<circuit::Capacitor>("ct", nl.node("tank"), circuit::kGround, 5e-13);
        nl.add<circuit::Resistor>("rt", nl.node("tank"), circuit::kGround, 1e3);
        nl.add<circuit::Mosfet>("m0", nl.node("d"), nl.node("g"), circuit::kGround,
                                circuit::kGround, nch, circuit::MosGeometry{});
        check_condensed_against_fresh_lu(nl, "inductor on MOSFET drain");
    }
    {
        // A 1e-4 ohm short on a MOSFET source, as the ideal-interconnect
        // ablations stamp it.
        circuit::Netlist nl;
        drive(nl);
        nl.add<circuit::Mosfet>("m0", nl.node("d"), nl.node("g"), nl.node("s"),
                                circuit::kGround, nch, circuit::MosGeometry{});
        nl.add<circuit::Resistor>("rshort", nl.node("s"), nl.node("sgnd"), 1e-4);
        nl.add<circuit::Resistor>("rsub", nl.node("sgnd"), circuit::kGround, 50.0);
        nl.add<circuit::Capacitor>("csub", nl.node("sgnd"), circuit::kGround, 1e-13);
        check_condensed_against_fresh_lu(nl, "shorted MOSFET source");
    }
    {
        // A purely linear ladder: nothing to condense.
        circuit::Netlist nl;
        nl.add<circuit::VSource>("vin", nl.node("n0"), circuit::kGround,
                                 circuit::Waveform::sin(0.0, 1.0, 1e9));
        for (int i = 0; i < 20; ++i) {
            nl.add<circuit::Resistor>(format("r%d", i), nl.node(format("n%d", i)),
                                      nl.node(format("n%d", i + 1)), 50.0);
            nl.add<circuit::Capacitor>(format("c%d", i), nl.node(format("n%d", i + 1)),
                                       circuit::kGround, 1e-13);
        }
        EXPECT_TRUE(check_condensed_against_fresh_lu(nl, "linear ladder").empty());
    }
    {
        // About half the unknowns nonlinear: every fourth ladder section
        // carries a MOSFET from its input (gate) to its output (drain).
        circuit::Netlist nl;
        nl.add<circuit::VSource>("vin", nl.node("n0"), circuit::kGround,
                                 circuit::Waveform::sin(0.9, 0.3, 2e8));
        const int stages = 16;
        for (int i = 0; i < stages; ++i) {
            nl.add<circuit::Resistor>(format("r%d", i), nl.node(format("n%d", i)),
                                      nl.node(format("n%d", i + 1)), 100.0);
            nl.add<circuit::Capacitor>(format("c%d", i), nl.node(format("n%d", i + 1)),
                                       circuit::kGround, 1e-13);
            if (i % 4 == 1)
                nl.add<circuit::Mosfet>(format("m%d", i), nl.node(format("n%d", i + 1)),
                                        nl.node(format("n%d", i)), circuit::kGround,
                                        circuit::kGround, nch, circuit::MosGeometry{});
        }
        const auto cond = check_condensed_against_fresh_lu(nl, "half nonlinear");
        const size_t n = nl.unknown_count();
        EXPECT_GE(cond.size(), n / 3);
        EXPECT_LE(cond.size(), 2 * n / 3);
    }
}

TEST_F(AssemblyTest, EmptyCondensedSetSolvesBitwiseLikeSparseLu) {
    // With no nonlinear device A11 is the whole matrix, so the condensed
    // solve is exactly a SparseLU solve: same pattern, same ordering, same
    // pivots, bit for bit.
    circuit::Netlist nl;
    nl.add<circuit::VSource>("vin", nl.node("n0"), circuit::kGround,
                             circuit::Waveform::sin(0.0, 1.0, 1e9));
    for (int i = 0; i < 30; ++i) {
        nl.add<circuit::Resistor>(format("r%d", i), nl.node(format("n%d", i)),
                                  nl.node(format("n%d", i + 1)), 20.0 + i);
        nl.add<circuit::Capacitor>(format("c%d", i), nl.node(format("n%d", i + 1)),
                                   circuit::kGround, 1e-13);
    }
    nl.finalize();
    const size_t n = nl.unknown_count();
    std::vector<double> x(n, 0.1);
    for (const auto& d : nl.devices()) d->init_tran(x);
    circuit::RealStamper s(n);
    s.enable_compiled_assembly();
    sim::TranAssembler asmb(nl, s, 1e-12);
    circuit::TranParams tp;
    tp.dt = 10e-12;
    tp.order = 2;
    std::vector<double> xc;
    for (int a = 0; a < 3; ++a) {
        tp.time = (a + 1) * tp.dt;
        asmb.begin_attempt(x, tp);
        asmb.assemble(x, tp);
        asmb.solve(xc);
        EXPECT_TRUE(asmb.solver().condensed().empty());
        const auto xf = SparseLU<double>(s.csc()).solve(s.rhs());
        ASSERT_EQ(xc.size(), xf.size());
        EXPECT_EQ(std::memcmp(xc.data(), xf.data(), n * sizeof(double)), 0)
            << "attempt " << a;
        asmb.commit(xc, tp);
        x = xc;
    }
}

// --- transient engine integration -----------------------------------------

circuit::Netlist ladder_with_mosfet(int stages) {
    circuit::Netlist nl;
    const tech::Technology t = tech::generic180();
    const tech::MosModelCard nch = t.mos_model("nch");
    nl.add<circuit::VSource>("vin", nl.node("n0"), circuit::kGround,
                             circuit::Waveform::sin(0.9, 0.2, 2e8));
    nl.add<circuit::VSource>("vdd", nl.node("vdd"), circuit::kGround,
                             circuit::Waveform::dc(1.8));
    for (int i = 0; i < stages; ++i) {
        nl.add<circuit::Resistor>(format("r%d", i), nl.node(format("n%d", i)),
                                  nl.node(format("n%d", i + 1)), 100.0);
        nl.add<circuit::Capacitor>(format("c%d", i), nl.node(format("n%d", i + 1)),
                                   circuit::kGround, 2e-13);
    }
    nl.add<circuit::Resistor>("rd", nl.node("vdd"), nl.node("out"), 2e3);
    nl.add<circuit::Mosfet>("m0", nl.node("out"), nl.node(format("n%d", stages)),
                            circuit::kGround, circuit::kGround,
                            tech::generic180().mos_model("nch"),
                            circuit::MosGeometry{});
    nl.add<circuit::Capacitor>("cl", nl.node("out"), circuit::kGround, 1e-13);
    (void)nch;
    return nl;
}

TEST_F(AssemblyTest, IncrementalEngineMatchesFullRestampWithinTolerance) {
    // The reference re-stamps and freshly factors every Newton iteration,
    // while the engine solves by block elimination and starts Newton from
    // the linear predictor, so the two are deliberately NOT bitwise
    // comparable — but both converge every step to the same Newton
    // tolerance, so the waveforms must agree well inside it.
    sim::TranOptions opt;
    opt.dt = 20e-12;
    opt.tstop = 4e-9;

    auto nl1 = ladder_with_mosfet(40);
    const auto engine = sim::transient(nl1, {"out"}, opt);

    auto nl2 = ladder_with_mosfet(40);
    const auto ref = test::reference_transient(nl2, {"out"}, opt);

    ASSERT_EQ(engine.time, ref.time);
    const auto& we = engine.wave("out");
    const auto& wr = ref.wave("out");
    ASSERT_EQ(we.size(), wr.size());
    for (size_t k = 0; k < we.size(); ++k)
        EXPECT_NEAR(we[k], wr[k], 1e-6) << "sample " << k;
}

TEST_F(AssemblyTest, PredictorKeepsWaveformWithinNewtonTolerance) {
    // Newton starts every step from the linear predictor, so each step stops
    // at a different point inside the tolerance box than a cold start
    // would.  Against the same engine converged a thousand times tighter,
    // the default-tolerance waveform must stay within that box.
    sim::TranOptions opt;
    opt.dt = 20e-12;
    opt.tstop = 4e-9;

    auto nl1 = ladder_with_mosfet(40);
    const auto predicted = sim::transient(nl1, {"out"}, opt);

    opt.vntol *= 1e-3;
    opt.reltol *= 1e-3;
    auto nl2 = ladder_with_mosfet(40);
    const auto converged = sim::transient(nl2, {"out"}, opt);

    ASSERT_EQ(predicted.time, converged.time);
    const auto& wp = predicted.wave("out");
    const auto& wc = converged.wave("out");
    ASSERT_EQ(wp.size(), wc.size());
    for (size_t k = 0; k < wp.size(); ++k)
        EXPECT_NEAR(wp[k], wc[k], 1e-6) << "sample " << k;
}

#if SNIM_OBS_ENABLED
TEST_F(AssemblyTest, DefaultRunDoesExactlyOneFullAssembly) {
    obs::set_enabled(true);
    sim::TranOptions opt;
    opt.dt = 20e-12;
    opt.tstop = 4e-9;
    auto nl = ladder_with_mosfet(40);
    (void)sim::transient(nl, {"out"}, opt);

    EXPECT_EQ(obs::counter_value("sim/assemble_full"), 1u);
    EXPECT_GT(obs::counter_value("sim/assemble_incremental"), 0u);
    EXPECT_GT(obs::counter_value("sim/assemble_cache_hits"), 0u);
    EXPECT_GT(obs::counter_value("sim/condensed_s_factors"), 0u);
}

TEST_F(AssemblyTest, CondensedEngineFactorsA11OncePerKeyAndSOncePerIteration) {
    // The linear block is factored once per (dt, order) image, never per
    // iteration; each Newton iteration factors only the dense Schur
    // complement.  A forced retry adds the halved-dt key to the count.
    obs::set_enabled(true);
    sim::TranOptions opt;
    opt.dt = 20e-12;
    opt.tstop = 4e-9;
#if SNIM_FAULTS_ENABLED
    fault::arm({"tran.step.fail", 40, 1});
#endif
    auto nl = ladder_with_mosfet(40);
    const auto res = sim::transient(nl, {"out"}, opt);

    const uint64_t keys = obs::counter_value("sim/assemble_cache_misses");
    EXPECT_EQ(obs::counter_value("sim/condensed_a11_factors"), keys);
#if SNIM_FAULTS_ENABLED
    EXPECT_EQ(res.step_retries, 1);
    EXPECT_EQ(keys, 3u); // BE startup, trapezoidal, trapezoidal at dt/2
#else
    EXPECT_EQ(res.step_retries, 0);
    EXPECT_EQ(keys, 2u); // BE startup, trapezoidal
#endif
    EXPECT_EQ(obs::counter_value("sim/condensed_s_factors"),
              obs::phase_calls("sim/transient/newton"));
    // Only the operating point still refactors a full sparse LU.
    EXPECT_LT(obs::counter_value("numeric/lu_refactor"), 100u);
}

TEST_F(AssemblyTest, AntiphasePassGateRunsOneLearningPass) {
    // An NMOS pass gate between two antiphase sine sources: vds crosses
    // zero every half period, so the channel stamp flips orientation
    // throughout the run.  One learning pass must serve all of it, the
    // condensed solve must carry every iteration, and the waveform must
    // still match the full-re-stamp reference.
    const auto pass_gate = [] {
        circuit::Netlist nl;
        const tech::MosModelCard nch = tech::generic180().mos_model("nch");
        nl.add<circuit::VSource>("va", nl.node("a"), circuit::kGround,
                                 circuit::Waveform::sin(0.6, 0.4, 2e8));
        nl.add<circuit::VSource>("vb", nl.node("b"), circuit::kGround,
                                 circuit::Waveform::sin(0.6, -0.4, 2e8));
        nl.add<circuit::VSource>("vg", nl.node("g"), circuit::kGround,
                                 circuit::Waveform::dc(1.8));
        nl.add<circuit::Resistor>("ra", nl.node("a"), nl.node("na"), 2e3);
        nl.add<circuit::Resistor>("rb", nl.node("b"), nl.node("nb"), 2e3);
        nl.add<circuit::Capacitor>("ca", nl.node("na"), circuit::kGround, 1e-13);
        nl.add<circuit::Capacitor>("cb", nl.node("nb"), circuit::kGround, 1e-13);
        nl.add<circuit::Mosfet>("mpass", nl.node("na"), nl.node("g"), nl.node("nb"),
                                circuit::kGround, nch, circuit::MosGeometry{});
        return nl;
    };
    obs::set_enabled(true);
    sim::TranOptions opt;
    opt.dt = 20e-12;
    opt.tstop = 10e-9; // two periods: four vds zero crossings
    auto nl1 = pass_gate();
    const auto engine = sim::transient(nl1, {"na", "nb"}, opt);
    EXPECT_EQ(obs::counter_value("sim/assemble_full"), 1u);
    EXPECT_EQ(obs::counter_value("sim/condensed_s_factors"),
              obs::phase_calls("sim/transient/newton"));
    obs::set_enabled(false);

    auto nl2 = pass_gate();
    const auto ref = test::reference_transient(nl2, {"na", "nb"}, opt);
    ASSERT_EQ(engine.time, ref.time);
    for (const char* probe : {"na", "nb"}) {
        const auto& we = engine.wave(probe);
        const auto& wr = ref.wave(probe);
        ASSERT_EQ(we.size(), wr.size());
        for (size_t k = 0; k < we.size(); ++k)
            EXPECT_NEAR(we[k], wr[k], 1e-6) << probe << " sample " << k;
    }
    const auto& va = engine.wave("na");
    const auto& vb = engine.wave("nb");
    int crossings = 0;
    for (size_t k = 1; k < va.size(); ++k)
        if ((va[k] - vb[k] > 0) != (va[k - 1] - vb[k - 1] > 0)) ++crossings;
    EXPECT_GE(crossings, 3);
}
#endif

} // namespace
