// Incremental transient-assembly suite (DESIGN.md §14).
//
// The contracts under test are bitwise, not approximate:
//   * TranAssembler's baseline-restore + nonlinear-overlay assembly must
//     reproduce `clear + assemble_tran` exactly — across iterations, step
//     attempts, (dt, order) cache keys, commits and MOSFET orientation
//     flips, all on the one tape learned by the first pass;
//   * SparseLU::refactor_partial must reproduce a full numeric refactor
//     exactly (unchanged columns would recompute to their stored values, so
//     skipping them cannot change anything downstream);
//   * the production engine (incremental assembly, partial refactors,
//     predictor) must land on the same waveform as the full-re-stamp,
//     fresh-factorization reference in tran_reference.hpp, to within the
//     Newton tolerance.
// Runs as its own binary (ctest label `perf`) because it asserts on the
// global registry.
#include <gtest/gtest.h>

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

// --- partial refactorization ----------------------------------------------

Triplets<double> random_system(size_t n, int extra_per_row, Rng& rng) {
    Triplets<double> t(n);
    for (size_t i = 0; i < n; ++i) t.add(i, i, 5.0 + rng.uniform(0, 1));
    for (size_t i = 0; i < n; ++i)
        for (int k = 0; k < extra_per_row; ++k)
            t.add(i, static_cast<size_t>(rng.uniform_int(0, static_cast<int>(n) - 1)),
                  rng.uniform(-1, 1));
    return t;
}

TEST_F(AssemblyTest, PartialRefactorMatchesFullRefactorBitwise) {
    Rng rng(42);
    for (int trial = 0; trial < 5; ++trial) {
        const size_t n = 30 + 10 * static_cast<size_t>(trial);
        auto t = random_system(n, 3, rng);
        SparseCSC<double> a1(t);

        // Perturb a handful of columns in place: the partial contract is
        // "identical outside changed_cols", which editing CSC values of a
        // copy guarantees structurally.
        std::vector<int> changed = {1, static_cast<int>(n) / 2,
                                    static_cast<int>(n) - 2};
        SparseCSC<double> a2 = a1;
        for (int c : changed) {
            const auto cp = a2.col_ptr();
            for (int p = cp[c]; p < cp[c + 1]; ++p)
                a2.values_mut()[static_cast<size_t>(p)] *= 1.0 + 0.1 * (c + 1);
        }

        SparseLU<double> partial(a1);
        SparseLU<double> full(a1);
        ASSERT_TRUE(partial.refactor_partial(a2, changed));
        ASSERT_TRUE(full.refactor(a2));

        std::vector<double> b(n);
        for (auto& v : b) v = rng.uniform(-1, 1);
        const auto xp = partial.solve(b);
        const auto xf = full.solve(b);
        EXPECT_EQ(std::memcmp(xp.data(), xf.data(), n * sizeof(double)), 0)
            << "trial " << trial;
        EXPECT_EQ(partial.factor_stats().min_pivot, full.factor_stats().min_pivot);
        EXPECT_EQ(partial.factor_stats().max_pivot, full.factor_stats().max_pivot);
    }
}

TEST_F(AssemblyTest, EmptyChangedSetPartialRefactorKeepsFactors) {
    Rng rng(3);
    auto t = random_system(40, 3, rng);
    SparseCSC<double> a(t);
    SparseLU<double> lu(a);
    std::vector<double> b(40, 1.0);
    const auto x0 = lu.solve(b);
    ASSERT_TRUE(lu.refactor_partial(a, {}));
    const auto x1 = lu.solve(b);
    EXPECT_EQ(std::memcmp(x0.data(), x1.data(), b.size() * sizeof(double)), 0);
}

#if SNIM_OBS_ENABLED
TEST_F(AssemblyTest, ReusableLuTakesPartialPathOnlyUnderMatchingKey) {
    obs::set_enabled(true);
    Rng rng(9);
    auto t = random_system(32, 3, rng);
    SparseCSC<double> a(t);
    std::vector<int> changed = {4, 20};

    ReusableLU<double> rlu;
    ReusableLU<double>::RefactorHint hint;
    hint.key[0] = 0x1111;
    hint.changed_cols = &changed;
    rlu.factor(a, hint); // first factor under this key: full, adopts the key
    EXPECT_EQ(obs::counter_value("numeric/lu_partial_refactor"), 0u);

    rlu.factor(a, hint); // same key: partial closure refresh
    EXPECT_EQ(obs::counter_value("numeric/lu_partial_refactor"), 1u);

    hint.key[0] = 0x2222; // key change: factors of a different system
    rlu.factor(a, hint);
    EXPECT_EQ(obs::counter_value("numeric/lu_partial_refactor"), 1u);

    ReusableLU<double>::RefactorHint no_key; // zero key never arms partial
    rlu.factor(a, no_key);
    rlu.factor(a, no_key);
    EXPECT_EQ(obs::counter_value("numeric/lu_partial_refactor"), 1u);
}
#endif

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
    // The reference re-stamps and freshly factors every Newton iteration in
    // the natural min-degree order, while the engine orders the nonlinear
    // columns last and starts Newton from the linear predictor, so the two
    // are deliberately NOT bitwise comparable — but both converge every
    // step to the same Newton tolerance, so the waveforms must agree well
    // inside it.
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
    EXPECT_GT(obs::counter_value("numeric/lu_partial_refactor"), 0u);
}

TEST_F(AssemblyTest, AntiphasePassGateRunsOneLearningPass) {
    // An NMOS pass gate between two antiphase sine sources: vds crosses
    // zero every half period, so the channel stamp flips orientation
    // throughout the run.  One learning pass must serve all of it, the
    // partial refactor must stay armed, and the waveform must still match
    // the full-re-stamp reference.
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
    EXPECT_GT(obs::counter_value("numeric/lu_partial_refactor"), 0u);
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
