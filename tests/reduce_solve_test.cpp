#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "mor/elimination.hpp"
#include "mor/macromodel.hpp"
#include "obs/registry.hpp"
#include "substrate/extractor.hpp"
#include "substrate/mesh.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace snim::mor {
namespace {

/// Records into a clean, enabled registry for the test's duration.
class ReduceBySolveTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::reset();
        obs::set_enabled(true);
    }
    void TearDown() override {
        obs::reset();
        obs::set_enabled(false);
    }
};

/// Most CG iterations any single solve took so far (0 when none recorded).
double max_cg_iters() {
    const auto stats = obs::value_stats("mor/cg_iters");
    return stats ? stats->max : 0.0;
}

/// 40x40 unit-conductance grid with six ports and no ground leg.
RcNetwork grid_40x40(std::vector<int>& ports) {
    const int n = 40;
    RcNetwork net;
    net.node_count = static_cast<size_t>(n * n);
    auto id = [n](int x, int y) { return y * n + x; };
    for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x) {
            if (x + 1 < n) net.add_g(id(x, y), id(x + 1, y), 1.0);
            if (y + 1 < n) net.add_g(id(x, y), id(x, y + 1), 1.0);
        }
    ports = {id(0, 0), id(39, 0), id(0, 39), id(39, 39), id(20, 20), id(10, 30)};
    return net;
}

RcNetwork random_grounded_network(size_t n, int chords, uint64_t seed) {
    Rng rng(seed);
    RcNetwork net;
    net.node_count = n;
    for (size_t i = 0; i < n; ++i)
        net.add_g(static_cast<int>(i), static_cast<int>((i + 1) % n),
                  0.3 + rng.uniform(0, 2));
    for (int k = 0; k < chords; ++k) {
        int a = rng.uniform_int(0, static_cast<int>(n) - 1);
        int b = rng.uniform_int(0, static_cast<int>(n) - 1);
        if (a != b) net.add_g(a, b, rng.uniform(0.05, 1.0));
    }
    net.add_g(2, -1, 0.8);
    net.add_g(static_cast<int>(n) - 3, -1, 1.2);
    return net;
}

std::vector<std::vector<double>> port_matrix(const RcNetwork& reduced, size_t np) {
    std::vector<int> ports(np);
    for (size_t i = 0; i < np; ++i) ports[i] = static_cast<int>(i);
    return dense_port_conductance(reduced, ports);
}

TEST_F(ReduceBySolveTest, MatchesEliminationOnRandomNetworks) {
    for (uint64_t seed : {1u, 7u, 19u}) {
        auto net = random_grounded_network(60, 90, seed);
        const std::vector<int> ports{0, 13, 27, 41, 55};
        auto by_elim = eliminate_internal(net, ports);
        auto by_solve = reduce_by_solve(net, ports);
        auto ge = port_matrix(by_elim, ports.size());
        auto gs = port_matrix(by_solve, ports.size());
        for (size_t i = 0; i < ports.size(); ++i)
            for (size_t j = 0; j < ports.size(); ++j)
                EXPECT_NEAR(gs[i][j], ge[i][j], 1e-7 * std::fabs(ge[i][i]) + 1e-10)
                    << "seed=" << seed << " (" << i << "," << j << ")";
    }
}

TEST_F(ReduceBySolveTest, SeriesChain) {
    RcNetwork net;
    net.node_count = 4;
    net.add_g(0, 1, 2.0);
    net.add_g(1, 2, 2.0);
    net.add_g(2, 3, 2.0);
    auto red = reduce_by_solve(net, {0, 3});
    ASSERT_EQ(red.node_count, 2u);
    double g = 0.0;
    for (const auto& e : red.conductances)
        if (e.b >= 0) g += e.value;
    EXPECT_NEAR(g, 2.0 / 3.0, 1e-9);
}

TEST_F(ReduceBySolveTest, PortMatrixIsSymmetricAndDiagonallyDominant) {
    auto net = random_grounded_network(80, 160, 3);
    const std::vector<int> ports{0, 10, 20, 30, 40, 50, 60, 70};
    auto red = reduce_by_solve(net, ports);
    // Realized netlist has only positive conductances by construction.
    for (const auto& e : red.conductances) EXPECT_GT(e.value, 0.0);
    auto g = port_matrix(red, ports.size());
    for (size_t i = 0; i < ports.size(); ++i)
        for (size_t j = i + 1; j < ports.size(); ++j)
            EXPECT_NEAR(g[i][j], g[j][i], 1e-9);
}

TEST_F(ReduceBySolveTest, CapacitanceConservedForGroundedInternals) {
    RcNetwork net;
    net.node_count = 4;
    net.add_g(0, 1, 1.0);
    net.add_g(1, 2, 1.0);
    net.add_g(2, 3, 1.0);
    net.add_c(1, -1, 10e-15);
    net.add_c(2, -1, 20e-15);
    net.add_c(0, -1, 1e-15);
    auto red = reduce_by_solve(net, {0, 3});
    EXPECT_NEAR(total_capacitance(red), 31e-15, 1e-19);
}

TEST_F(ReduceBySolveTest, PortAttachedCapKeepsSeriesTopology) {
    // Port 1 couples capacitively to internal node 2, which connects
    // resistively to port 0: the reduced model must contain a port-port
    // capacitance, NOT a cap from port 1 to ground.
    RcNetwork net;
    net.node_count = 3;
    net.add_g(0, 2, 1.0);
    net.add_c(1, 2, 50e-15);
    auto red = reduce_by_solve(net, {0, 1});
    double c01 = 0.0, c1g = 0.0;
    for (const auto& e : red.capacitances) {
        if (e.b == -1 && e.a == 1) c1g += e.value;
        if ((e.a == 0 && e.b == 1) || (e.a == 1 && e.b == 0)) c01 += e.value;
    }
    EXPECT_NEAR(c01, 50e-15, 1e-19);
    EXPECT_NEAR(c1g, 0.0, 1e-19);
}

TEST_F(ReduceBySolveTest, UngroundedNetworkHasNoGroundLegs) {
    RcNetwork net;
    net.node_count = 3;
    net.add_g(0, 1, 1.0);
    net.add_g(1, 2, 1.0);
    auto red = reduce_by_solve(net, {0, 2});
    for (const auto& e : red.conductances) EXPECT_GE(e.b, 0);
}

TEST_F(ReduceBySolveTest, LargeMeshIsFast) {
    // 40x40 floating resistive grid with 6 ports: the IC(0)-preconditioned
    // solves take at most ~70 iterations (Jacobi: ~220).
    std::vector<int> ports;
    const RcNetwork net = grid_40x40(ports);
    auto red = reduce_by_solve(net, ports);
    EXPECT_EQ(red.node_count, 6u);
    // Sanity: adjacent corners see less resistance than opposite corners.
    auto g = dense_port_conductance(red, {0, 1, 2, 3, 4, 5});
    EXPECT_GT(-g[0][1], 0.0);
#if SNIM_OBS_ENABLED
    EXPECT_EQ(obs::counter_value("mor/cg_solves"), 6u);
    EXPECT_GT(max_cg_iters(), 0.0);
    EXPECT_LE(max_cg_iters(), 80.0);
#endif
}

TEST_F(ReduceBySolveTest, MatchesDenseSchurOnGradedSubstrateMesh) {
    // A real substrate mesh: graded lateral pitch around a focus window,
    // thin top slabs over a thick bulk (surface cells 7-27x wider than
    // they are thick), high-ohmic with a floating backside, so Gii is
    // grounded only through the port contacts.
    substrate::MeshOptions opt;
    opt.fine_pitch = 4.0;
    opt.growth = 1.6;
    opt.focus = geom::Rect(10, 10, 40, 30);
    opt.margin = 20.0;
    opt.z_steps = {0.5, 1.5, 4.0, 12.0, 32.0, 100.0};
    substrate::Mesh mesh(geom::Rect(0, 0, 50, 40),
                         tech::DopingProfile::high_ohmic(20.0, 150.0), opt);
    ASSERT_GT(mesh.node_count(), 500u);
    // Contacts over surface cells, conductance spread by covered area (as
    // the extractor attaches resistive ports); one stiff probe.
    std::vector<int> ports;
    auto attach = [&mesh, &ports](const geom::Rect& r, double gtot) {
        const int pnode = mesh.add_aux_node();
        const auto cover = mesh.surface_overlap(r);
        double area = 0.0;
        for (const auto& [node, a] : cover) area += a;
        for (const auto& [node, a] : cover)
            mesh.network().add_g(pnode, node, gtot * a / area);
        ports.push_back(pnode);
    };
    attach(geom::Rect(12, 12, 18, 28), 1.0 / 5.0);
    attach(geom::Rect(32, 12, 38, 28), 1.0 / 5.0);
    attach(geom::Rect(22, 18, 26, 22), 10.0);
    attach(geom::Rect(-10, -10, 60, -5), 1.0 / 2.0); // guard strip at the edge
    const RcNetwork& net = mesh.network();

    // The 5 ohm contacts sit on kilo-ohm spreading resistances, so each
    // diagonal Schur entry cancels ~1000x against its contact conductance:
    // the production cg_tol of 1e-9 on the residual leaves ~4e-6 relative
    // error there (Jacobi: ~3e-5).  A tight tolerance shows the reduction
    // itself is exact.
    const auto gref = dense_port_conductance(net, ports);
    const auto check = [&](double cg_tol, double rel) {
        const auto gred = port_matrix(reduce_by_solve(net, ports, cg_tol), ports.size());
        for (size_t i = 0; i < ports.size(); ++i)
            for (size_t j = 0; j < ports.size(); ++j)
                EXPECT_NEAR(gred[i][j], gref[i][j],
                            rel * std::max(gref[i][i], gref[j][j]))
                    << "cg_tol " << cg_tol << " (" << i << "," << j << ")";
    };
    check(1e-12, 1e-7);
    obs::reset();
    check(1e-9, 1e-5);
#if SNIM_OBS_ENABLED
    // At the production tolerance: ~30 iterations per solve (Jacobi: ~120).
    EXPECT_EQ(obs::counter_value("mor/cg_solves"), ports.size());
    EXPECT_LE(max_cg_iters(), 50.0);
#endif
}

TEST_F(ReduceBySolveTest, NanConductanceRaisesNamedErrorBeforeAnyCgIteration) {
    std::vector<int> ports;
    RcNetwork net = grid_40x40(ports);
    // add_g rejects NaN, so inject it the way a corrupted input would.
    net.conductances.push_back({5, 6, std::numeric_limits<double>::quiet_NaN()});
    try {
        reduce_by_solve(net, ports);
        FAIL() << "expected the IC(0) factorization to reject the NaN";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("IC(0) pivot"), std::string::npos) << what;
        EXPECT_NE(what.find("row"), std::string::npos) << what;
    }
    EXPECT_EQ(max_cg_iters(), 0.0); // failed at the factor, not after max_iter
}

TEST_F(ReduceBySolveTest, IterationCapRaisesWithCountAndResidual) {
    std::vector<int> ports;
    const RcNetwork net = grid_40x40(ports);
    try {
        reduce_by_solve(net, ports, 1e-9, /*max_iter=*/3);
        FAIL() << "expected CG to stop at the iteration cap";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("port 0"), std::string::npos) << what;
        EXPECT_NE(what.find("after 3 iterations"), std::string::npos) << what;
        EXPECT_NE(what.find("relative residual"), std::string::npos) << what;
        EXPECT_NE(what.find("cg_tol 1e-09"), std::string::npos) << what;
    }
#if SNIM_OBS_ENABLED
    const auto stats = obs::value_stats("mor/cg_iters");
    ASSERT_TRUE(stats.has_value()); // recorded on failure too
    EXPECT_EQ(stats->count, 1u);
    EXPECT_EQ(stats->max, 3.0);
#endif
}

TEST_F(ReduceBySolveTest, IterationCapNamesTheLaterPortAfterPortZeroConverged) {
    // Port 0 drives one grounded internal node of its own, a diagonal block
    // of Gii that IC(0) solves exactly: it converges in one iteration, and
    // the first grid port is the one that hits the cap.
    std::vector<int> grid_ports;
    RcNetwork net = grid_40x40(grid_ports);
    const int p0 = static_cast<int>(net.node_count);
    const int x0 = p0 + 1;
    net.node_count += 2;
    net.add_g(p0, x0, 1.0);
    net.add_g(x0, -1, 0.5);
    std::vector<int> ports{p0};
    ports.insert(ports.end(), grid_ports.begin(), grid_ports.end());
    try {
        reduce_by_solve(net, ports, 1e-9, /*max_iter=*/3);
        FAIL() << "expected CG to stop at the iteration cap";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("for port 1 after 3 iterations"), std::string::npos) << what;
        EXPECT_NE(what.find("relative residual"), std::string::npos) << what;
    }
#if SNIM_OBS_ENABLED
    // Port 0's finished solve and the failing one; the solves that shared
    // the failing sweep are dropped unrecorded.
    const auto stats = obs::value_stats("mor/cg_iters");
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->count, 2u);
    EXPECT_EQ(stats->min, 1.0);
    EXPECT_EQ(stats->max, 3.0);
#endif
}

/// Ground capacitance at each reduced port (node i == port i).
std::vector<double> ground_caps(const RcNetwork& reduced) {
    std::vector<double> c(reduced.node_count, 0.0);
    for (const auto& e : reduced.capacitances)
        if (e.b < 0) c[static_cast<size_t>(e.a)] += e.value;
    return c;
}

TEST_F(ReduceBySolveTest, PortPermutationPermutesInfluenceVectorsBitwise) {
    // Every internal node carries a ground cap, so a port's reduced ground
    // cap is sum_k c_k w_j[k] over ascending rows: it exposes the influence
    // vector w_j bit for bit.  Permuting the ports reshuffles which columns
    // share the block CG's lanes and when each one starts, yet every w_j --
    // hence every ground cap and every column's iteration count -- must be
    // unchanged.  The conductances agree to the CG tolerance only: a port
    // pair's Schur product is Gip(:,i)^T w_j with i the earlier port in
    // the list, so a permutation can evaluate it from the other side.
    for (const size_t live : {3u, 4u, 9u}) { // below, at and above the lane count
        RcNetwork net = random_grounded_network(150, 300, 11);
        for (size_t k = 0; k < net.node_count; ++k)
            net.add_c(static_cast<int>(k), -1, 1e-15 * static_cast<double>(k % 7 + 1));
        // A port with an empty Gip column: its right-hand side is zero.
        const int lone = static_cast<int>(net.node_count++);
        net.add_c(lone, -1, 3e-15);
        std::vector<int> ports;
        for (size_t i = 0; i < live; ++i)
            ports.push_back(static_cast<int>(5 + i * 140 / live));
        ports.insert(ports.begin() + 1, lone);

        obs::reset();
        const RcNetwork base = reduce_by_solve(net, ports);
        const auto base_caps = ground_caps(base);
        const auto base_g = port_matrix(base, ports.size());
#if SNIM_OBS_ENABLED
        const auto base_iters = obs::value_stats("mor/cg_iters");
        ASSERT_TRUE(base_iters.has_value());
        EXPECT_EQ(base_iters->count, live); // the empty column took no solve
        EXPECT_EQ(obs::counter_value("mor/cg_solves"), live + 1);
#endif
        std::vector<size_t> reversed(ports.size()), rotated(ports.size());
        for (size_t i = 0; i < ports.size(); ++i) {
            reversed[i] = ports.size() - 1 - i;
            rotated[i] = (i + 2) % ports.size();
        }
        for (const auto& perm : {reversed, rotated}) {
            // Position i of the permuted list holds the base list's port perm[i].
            std::vector<int> permuted(ports.size());
            for (size_t i = 0; i < ports.size(); ++i) permuted[i] = ports[perm[i]];
            obs::reset();
            const RcNetwork red = reduce_by_solve(net, permuted);
            const auto caps = ground_caps(red);
            const auto g = port_matrix(red, ports.size());
            for (size_t i = 0; i < ports.size(); ++i) {
                EXPECT_EQ(caps[i], base_caps[perm[i]])
                    << "live=" << live << " position " << i;
                for (size_t j = 0; j < ports.size(); ++j)
                    EXPECT_NEAR(g[i][j], base_g[perm[i]][perm[j]],
                                1e-8 * std::fabs(base_g[perm[i]][perm[i]]))
                        << "live=" << live << " (" << i << "," << j << ")";
            }
#if SNIM_OBS_ENABLED
            const auto iters = obs::value_stats("mor/cg_iters");
            ASSERT_TRUE(iters.has_value());
            EXPECT_EQ(iters->count, base_iters->count);
            EXPECT_EQ(iters->sum, base_iters->sum);
            EXPECT_EQ(iters->max, base_iters->max);
#endif
        }
    }
}

TEST_F(ReduceBySolveTest, ExtractorFallsBackWhenFactorizationFails) {
    // A contact resistance so small that its conductance overflows to +inf:
    // the IC(0) pivot under the contact is not finite, the reduction raises,
    // and the extractor stitches in the unreduced mesh instead.
    substrate::ExtractOptions opt;
    opt.mesh.fine_pitch = 10.0;
    opt.mesh.focus = geom::Rect(0, 0, 60, 20);
    opt.mesh.margin = 20.0;
    opt.mesh.z_steps = {2.0, 8.0};
    std::vector<substrate::PortSpec> specs(2);
    specs[0].name = "c1";
    specs[0].region.add(geom::Rect(0, 0, 10, 20));
    specs[0].contact_resistance = std::numeric_limits<double>::denorm_min();
    specs[1].name = "c2";
    specs[1].region.add(geom::Rect(50, 0, 60, 20));
    ASSERT_TRUE(opt.unreduced_fallback);
    const auto model = substrate::extract_substrate(
        geom::Rect(0, 0, 60, 20), tech::DopingProfile::high_ohmic(20.0, 50.0), specs,
        opt);
    EXPECT_TRUE(model.mor_fallback);
    EXPECT_GT(model.reduced.node_count, 2u);
    ASSERT_EQ(model.port_names.size(), 2u);
#if SNIM_OBS_ENABLED
    EXPECT_EQ(obs::counter_value("substrate/mor_fallbacks"), 1u);
#endif
}

struct SolveCase {
    size_t n;
    size_t ports;
};

class ReduceSweep : public ::testing::TestWithParam<SolveCase> {};

TEST_P(ReduceSweep, AgreesWithDenseSchur) {
    const auto param = GetParam();
    auto net = random_grounded_network(param.n, static_cast<int>(2 * param.n), 77);
    std::vector<int> ports;
    for (size_t i = 0; i < param.ports; ++i)
        ports.push_back(static_cast<int>(i * param.n / param.ports));
    const auto gref = dense_port_conductance(net, ports);
    auto red = reduce_by_solve(net, ports);
    auto gred = port_matrix(red, ports.size());
    for (size_t i = 0; i < ports.size(); ++i)
        for (size_t j = 0; j < ports.size(); ++j)
            EXPECT_NEAR(gred[i][j], gref[i][j], 1e-6 * std::fabs(gref[i][i]) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ReduceSweep,
                         ::testing::Values(SolveCase{20, 3}, SolveCase{50, 5},
                                           SolveCase{120, 8}, SolveCase{250, 12}));

} // namespace
} // namespace snim::mor
