// MOSFET channel-stamp oracle.
//
// The channel stamp writes rows D and S over columns D, G, S, B in one fixed
// order and lets the drain/source orientation pick only the coefficients.
// These tests pin that contract down independently of the stamping code:
//   * the stamped Jacobian row matches a central finite difference of
//     small_signal(x).ids, and the row applied to x minus the RHS gives ids
//     back (the companion current is consistent);
//   * the recorded tape (rows, cols, RHS nodes) is identical whichever way
//     vds points, so a compiled stamper never sees the flip;
//   * a device with drain and source exchanged stamps the same matrix.
// Biases cover NMOS and PMOS at vds > 0, vds < 0 and vds = 0, away from
// region boundaries so the finite difference is smooth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "circuit/mosfet.hpp"
#include "circuit/netlist.hpp"
#include "circuit/stamp.hpp"
#include "tech/generic180.hpp"

using namespace snim;
using namespace snim::circuit;

namespace {

struct Bias {
    const char* model;
    double vd, vg, vs, vb; // terminal voltages [V]
    int vds_sign;          // sign of vds in device polarity
};

// NMOS: saturation forward, triode reversed, triode at vds = 0.  PMOS: the
// mirrored set below its 1.8 V bulk.
const Bias kBiases[] = {
    {"nch", 1.2, 1.3, 0.2, 0.0, +1}, {"nch", 0.3, 1.6, 0.6, 0.0, -1},
    {"nch", 0.5, 1.5, 0.5, 0.0, 0},  {"pch", 0.6, 0.5, 1.8, 1.8, +1},
    {"pch", 1.5, 0.2, 1.1, 1.8, -1}, {"pch", 1.0, 0.0, 1.0, 1.8, 0},
};

void PrintTo(const Bias& b, std::ostream* os) {
    *os << b.model << " vd=" << b.vd << " vg=" << b.vg << " vs=" << b.vs << " vb=" << b.vb;
}

class MosfetStampTest : public ::testing::TestWithParam<Bias> {};

struct Fixture {
    Netlist nl;
    Mosfet* m = nullptr;
    NodeId d, g, s, b;
    std::vector<double> x;

    explicit Fixture(const Bias& bias) {
        d = nl.node("d");
        g = nl.node("g");
        s = nl.node("s");
        b = nl.node("b");
        m = &nl.add<Mosfet>("m1", d, g, s, b, tech::generic180().mos_model(bias.model),
                            MosGeometry{.w = 10, .l = 0.18});
        nl.finalize();
        x.assign(nl.unknown_count(), 0.0);
        x[static_cast<size_t>(d)] = bias.vd;
        x[static_cast<size_t>(g)] = bias.vg;
        x[static_cast<size_t>(s)] = bias.vs;
        x[static_cast<size_t>(b)] = bias.vb;
    }
    std::vector<NodeId> terms() const { return {d, g, s, b}; }
};

double max_abs(const std::vector<double>& v) {
    double m = 0.0;
    for (double e : v) m = std::max(m, std::fabs(e));
    return m;
}

TEST_P(MosfetStampTest, JacobianRowMatchesFiniteDifferenceOfIds) {
    Fixture f(GetParam());
    const auto ss = f.m->small_signal(f.x);
    ASSERT_TRUE(ss.on);
    EXPECT_EQ(ss.swapped, GetParam().vds_sign < 0);

    RealStamper st(f.x.size());
    f.m->stamp_dc(st, f.x);
    const auto a = st.csc().to_dense();
    const auto t = f.terms();
    std::vector<double> row(4), fd(4);
    for (size_t j = 0; j < 4; ++j) {
        const auto col = static_cast<size_t>(t[j]);
        row[j] = a(static_cast<size_t>(f.d), col);
        // Row S carries the negatives of row D.
        EXPECT_EQ(a(static_cast<size_t>(f.s), col), -row[j]) << "column " << j;

        std::vector<double> xp = f.x, xm = f.x;
        xp[col] += 1e-7;
        xm[col] -= 1e-7;
        fd[j] = (f.m->small_signal(xp).ids - f.m->small_signal(xm).ids) /
                (xp[col] - xm[col]);
    }
    const double scale = max_abs(row);
    ASSERT_GT(scale, 0.0);
    for (size_t j = 0; j < 4; ++j)
        EXPECT_NEAR(row[j], fd[j], 1e-6 * scale) << "column " << j;

    // The linearised current at x itself is ids: row . x - rhs_D = ids.
    double i_lin = -st.rhs()[static_cast<size_t>(f.d)];
    for (size_t j = 0; j < 4; ++j) i_lin += row[j] * f.x[static_cast<size_t>(t[j])];
    EXPECT_NEAR(i_lin, ss.ids, 1e-12 * std::max(std::fabs(ss.ids), 1e-6));
    EXPECT_EQ(st.rhs()[static_cast<size_t>(f.s)], -st.rhs()[static_cast<size_t>(f.d)]);
}

TEST_P(MosfetStampTest, TapeIsIdenticalAcrossOrientations) {
    // Stamp this bias and its mirror of the opposite orientation (vds
    // negated; at vds = 0, the drain nudged past the source) and compare
    // the recorded call sequences.
    Fixture f(GetParam());
    std::vector<double> mirrored = f.x;
    std::swap(mirrored[static_cast<size_t>(f.d)], mirrored[static_cast<size_t>(f.s)]);
    if (GetParam().vds_sign == 0)
        mirrored[static_cast<size_t>(f.d)] += f.m->model().is_nmos ? -0.1 : 0.1;
    ASSERT_NE(f.m->small_signal(f.x).swapped, f.m->small_signal(mirrored).swapped);

    // Compiled stampers keep structural zeros (gm = gmb = 0 at vds = 0), so
    // record like one.
    RealStamper s1(f.x.size()), s2(f.x.size());
    for (RealStamper* st : {&s1, &s2}) {
        st->enable_compiled_assembly();
        st->enable_rhs_tape();
    }
    f.m->stamp_dc(s1, f.x);
    f.m->stamp_dc(s2, mirrored);
    EXPECT_EQ(s1.matrix().rows().size(), 8u);
    EXPECT_EQ(s1.matrix().rows(), s2.matrix().rows());
    EXPECT_EQ(s1.matrix().cols(), s2.matrix().cols());
    EXPECT_EQ(s1.rhs_tape_nodes(), s2.rhs_tape_nodes());

    // AC shares the channel stamp: its leading eight calls follow the same
    // tape whatever the orientation.
    ComplexStamper c1(f.x.size()), c2(f.x.size());
    c1.enable_compiled_assembly();
    c2.enable_compiled_assembly();
    f.m->stamp_ac(c1, f.x, 1e9);
    f.m->stamp_ac(c2, mirrored, 1e9);
    EXPECT_EQ(c1.matrix().rows(), c2.matrix().rows());
    EXPECT_EQ(c1.matrix().cols(), c2.matrix().cols());
    ASSERT_GE(c1.matrix().rows().size(), 8u);
    for (size_t k = 0; k < 8; ++k) {
        EXPECT_EQ(c1.matrix().rows()[k], s1.matrix().rows()[k]);
        EXPECT_EQ(c1.matrix().cols()[k], s1.matrix().cols()[k]);
    }
}

TEST_P(MosfetStampTest, ExchangedTerminalsStampTheSameSystem) {
    // M(d=a, s=b) and M(d=b, s=a) are the same symmetric device; at the
    // same x one stamps forward and the other swapped.
    const Bias& bias = GetParam();
    Netlist nl;
    const NodeId a = nl.node("a"), g = nl.node("g"), bn = nl.node("b"),
                 bulk = nl.node("bulk");
    const auto card = tech::generic180().mos_model(bias.model);
    auto& m1 = nl.add<Mosfet>("m1", a, g, bn, bulk, card, MosGeometry{});
    auto& m2 = nl.add<Mosfet>("m2", bn, g, a, bulk, card, MosGeometry{});
    nl.finalize();
    std::vector<double> x(nl.unknown_count(), 0.0);
    x[static_cast<size_t>(a)] = bias.vd;
    x[static_cast<size_t>(g)] = bias.vg;
    x[static_cast<size_t>(bn)] = bias.vs;
    x[static_cast<size_t>(bulk)] = bias.vb;

    RealStamper s1(x.size()), s2(x.size());
    m1.stamp_dc(s1, x);
    m2.stamp_dc(s2, x);
    const auto d1 = s1.csc().to_dense();
    const auto d2 = s2.csc().to_dense();
    double amax = 0.0;
    for (size_t i = 0; i < x.size(); ++i)
        for (size_t j = 0; j < x.size(); ++j) amax = std::max(amax, std::fabs(d1(i, j)));
    ASSERT_GT(amax, 0.0);
    for (size_t i = 0; i < x.size(); ++i)
        for (size_t j = 0; j < x.size(); ++j)
            EXPECT_NEAR(d1(i, j), d2(i, j), 1e-14 * amax) << "(" << i << "," << j << ")";
    // RHS entries are sums of terms up to |A| |x| in size.
    const double bscale = max_abs(s1.rhs()) + amax * max_abs(x);
    for (size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(s1.rhs()[i], s2.rhs()[i], 1e-14 * bscale) << "rhs " << i;
}

std::string bias_name(const ::testing::TestParamInfo<Bias>& info) {
    const Bias& b = info.param;
    const char* sign = b.vds_sign > 0 ? "VdsPos" : b.vds_sign < 0 ? "VdsNeg" : "VdsZero";
    return std::string(b.model[0] == 'n' ? "Nmos" : "Pmos") + sign;
}

INSTANTIATE_TEST_SUITE_P(Biases, MosfetStampTest, ::testing::ValuesIn(kBiases), bias_name);

} // namespace
