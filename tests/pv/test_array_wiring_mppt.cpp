/// Tests for panel aggregation (the paper's min-rules), the wiring
/// overhead model (Fig. 4, Section V-C numbers), and the MPPT utilities.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "pvfp/pv/array.hpp"
#include "pvfp/pv/mppt.hpp"
#include "pvfp/pv/one_diode.hpp"
#include "pvfp/pv/wiring.hpp"
#include "pvfp/util/error.hpp"

namespace pvfp::pv {
namespace {

OperatingPoint op(double p, double v) { return {p, v, v > 0 ? p / v : 0.0}; }

// ------------------------------------------------------------- array --

TEST(Aggregate, UniformModulesHaveNoMismatchLoss) {
    // 2 strings x 3 series of identical modules: panel power equals the
    // ideal sum.
    std::vector<OperatingPoint> points(6, op(100.0, 24.0));
    const Topology topo{3, 2};
    const PanelOperating panel = aggregate_panel(points, topo);
    EXPECT_NEAR(panel.voltage_v, 72.0, 1e-12);
    EXPECT_NEAR(panel.current_a, 2.0 * 100.0 / 24.0, 1e-12);
    EXPECT_NEAR(panel.power_w, 600.0, 1e-9);
    EXPECT_NEAR(panel.mismatch_loss_w, 0.0, 1e-9);
    EXPECT_NEAR(panel.ideal_power_w, 600.0, 1e-9);
}

TEST(Aggregate, WeakModuleBottlenecksItsString) {
    // Paper Section V-B: a "weak" module determines the current of the
    // entire series string.
    std::vector<OperatingPoint> points(4, op(100.0, 24.0));
    points[1] = op(25.0, 23.0);  // weak module in string 0
    const Topology topo{2, 2};
    const PanelOperating panel = aggregate_panel(points, topo);
    // String 0 current = weak current; string 1 unaffected.
    const double weak_current = 25.0 / 23.0;
    EXPECT_NEAR(panel.strings[0].current_a, weak_current, 1e-12);
    EXPECT_NEAR(panel.strings[1].current_a, 100.0 / 24.0, 1e-12);
    EXPECT_GT(panel.mismatch_loss_w, 50.0);  // big topology loss
}

TEST(Aggregate, ParallelStringsShareMinimumVoltage) {
    std::vector<OperatingPoint> points{op(100.0, 30.0), op(100.0, 20.0)};
    const Topology topo{1, 2};
    const PanelOperating panel = aggregate_panel(points, topo);
    EXPECT_DOUBLE_EQ(panel.voltage_v, 20.0);
    EXPECT_NEAR(panel.current_a, 100.0 / 30.0 + 100.0 / 20.0, 1e-12);
}

TEST(Aggregate, SeriesFirstIndexing) {
    // Index j*m+i: verify the weak module lands in the intended string.
    std::vector<OperatingPoint> points(6, op(100.0, 24.0));
    points[4] = op(10.0, 22.0);  // j=1 (second string), i=1
    const Topology topo{3, 2};
    const PanelOperating panel = aggregate_panel(points, topo);
    EXPECT_NEAR(panel.strings[0].current_a, 100.0 / 24.0, 1e-12);
    EXPECT_NEAR(panel.strings[1].current_a, 10.0 / 22.0, 1e-12);
}

TEST(Aggregate, DarkPanelIsZero) {
    std::vector<OperatingPoint> points(4);
    const PanelOperating panel = aggregate_panel(points, Topology{2, 2});
    EXPECT_DOUBLE_EQ(panel.power_w, 0.0);
    EXPECT_DOUBLE_EQ(panel.mismatch_loss_w, 0.0);
}

TEST(Aggregate, RefilledPanelMatchesFreshAggregate) {
    // A caller-owned panel reused across steps and topologies carries
    // nothing over from its previous fill.
    std::vector<OperatingPoint> six(6, op(100.0, 24.0));
    six[4] = op(10.0, 22.0);
    std::vector<OperatingPoint> four(4, op(80.0, 20.0));
    four[1] = op(25.0, 23.0);
    PanelOperating panel;
    aggregate_panel(six, Topology{2, 3}, panel);
    for (const auto& [points, topo] :
         {std::pair{four, Topology{2, 2}}, std::pair{six, Topology{3, 2}},
          std::pair{four, Topology{4, 1}}}) {
        aggregate_panel(points, topo, panel);
        const PanelOperating fresh = aggregate_panel(points, topo);
        EXPECT_EQ(panel.voltage_v, fresh.voltage_v);
        EXPECT_EQ(panel.current_a, fresh.current_a);
        EXPECT_EQ(panel.power_w, fresh.power_w);
        EXPECT_EQ(panel.ideal_power_w, fresh.ideal_power_w);
        EXPECT_EQ(panel.mismatch_loss_w, fresh.mismatch_loss_w);
        ASSERT_EQ(panel.strings.size(), fresh.strings.size());
        for (std::size_t j = 0; j < fresh.strings.size(); ++j) {
            EXPECT_EQ(panel.strings[j].voltage_v, fresh.strings[j].voltage_v);
            EXPECT_EQ(panel.strings[j].current_a, fresh.strings[j].current_a);
        }
    }
}

TEST(Aggregate, TopologyValidation) {
    std::vector<OperatingPoint> points(4);
    EXPECT_THROW(aggregate_panel(points, Topology{3, 2}), InvalidArgument);
    EXPECT_THROW(aggregate_panel(points, Topology{0, 4}), InvalidArgument);
    EXPECT_NO_THROW(check_topology(Topology{8, 4}, 32));
    EXPECT_THROW(check_topology(Topology{8, 4}, 16), InvalidArgument);
}

// ------------------------------------------------------------ wiring --

TEST(Wiring, CompactAdjacentStringNeedsNoExtraCable) {
    // Modules side by side, centers one module-width (1.6 m) apart: the
    // default connector covers it (paper Fig. 4a).
    const WiringSpec spec;
    std::vector<ModulePosition> mods{{0.8, 0.4}, {2.4, 0.4}, {4.0, 0.4}};
    EXPECT_DOUBLE_EQ(string_extra_length(mods, spec), 0.0);
}

TEST(Wiring, DisplacementAddsManhattanExtra) {
    // Paper Fig. 4b: extra = dh + dv - L.
    const WiringSpec spec;  // L = 1.6
    std::vector<ModulePosition> mods{{0.0, 0.0}, {2.0, 1.0}};
    EXPECT_NEAR(string_extra_length(mods, spec), 2.0 + 1.0 - 1.6, 1e-12);
    // Never negative.
    std::vector<ModulePosition> close{{0.0, 0.0}, {0.5, 0.0}};
    EXPECT_DOUBLE_EQ(string_extra_length(close, spec), 0.0);
}

TEST(Wiring, PanelSplitsByString) {
    const WiringSpec spec;
    // 2 strings of 2: string 0 compact, string 1 stretched.
    std::vector<ModulePosition> mods{
        {0.8, 0.4}, {2.4, 0.4},       // string 0
        {0.8, 2.0}, {6.0, 4.0},       // string 1: dh=5.2, dv=2.0
    };
    const auto lengths = panel_extra_lengths(mods, Topology{2, 2}, spec);
    ASSERT_EQ(lengths.size(), 2u);
    EXPECT_DOUBLE_EQ(lengths[0], 0.0);
    EXPECT_NEAR(lengths[1], 5.2 + 2.0 - 1.6, 1e-12);
}

TEST(Wiring, PaperSectionVcNumbers) {
    // AWG10 at 7 mOhm/m carrying 4 A: 0.112 W per meter of extra cable —
    // the paper's RI^2 ~ 0.11 W/m.
    const WiringSpec spec;
    EXPECT_NEAR(wiring_power_loss(1.0, 4.0, spec), 0.112, 1e-12);
    // 20 m of extra cable at 1 $/m: 20 $.
    std::vector<double> lengths{12.0, 8.0};
    EXPECT_DOUBLE_EQ(wiring_cost(lengths, spec), 20.0);
}

TEST(Wiring, LossQuadraticInCurrent) {
    const WiringSpec spec;
    EXPECT_NEAR(wiring_power_loss(10.0, 8.0, spec) /
                    wiring_power_loss(10.0, 4.0, spec),
                4.0, 1e-12);
    EXPECT_DOUBLE_EQ(wiring_power_loss(0.0, 10.0, spec), 0.0);
    EXPECT_THROW(wiring_power_loss(-1.0, 1.0, spec), InvalidArgument);
}

TEST(Wiring, SingleModuleStringHasNoWiring) {
    const WiringSpec spec;
    std::vector<ModulePosition> one{{3.0, 3.0}};
    EXPECT_DOUBLE_EQ(string_extra_length(one, spec), 0.0);
}

// -------------------------------------------------------------- mppt --

TEST(GoldenSection, FindsParabolaMaximum) {
    const double x = golden_section_max(
        [](double v) { return -(v - 3.7) * (v - 3.7) + 10.0; }, 0.0, 10.0);
    EXPECT_NEAR(x, 3.7, 1e-6);
    EXPECT_THROW(golden_section_max([](double) { return 0.0; }, 1.0, 0.0),
                 InvalidArgument);
}

TEST(TrackMpp, MatchesOneDiodeMppOnSmoothCurve) {
    const OneDiodeModel model = OneDiodeModel::fit_datasheet(ModuleSpec{});
    const double voc = model.open_circuit_voltage(1000.0, 25.0);
    const OperatingPoint scanned = track_mpp(
        [&](double v) { return std::max(0.0, model.current_at(v, 1000.0, 25.0)); },
        voc);
    const OperatingPoint direct = model.max_power_point(1000.0, 25.0);
    EXPECT_NEAR(scanned.power_w, direct.power_w, 0.2);
    EXPECT_NEAR(scanned.voltage_v, direct.voltage_v, 0.3);
}

TEST(TrackMpp, FindsGlobalMaxOfMultiModalCurve) {
    // Synthetic two-hump P(v) curve mimicking a bypass-diode kink:
    // local max P~3.3 at v~3.3, global max P~6.7 at v=5.
    const auto current = [](double v) {
        if (v < 4.0) return 2.0 - 0.3 * v;
        return std::max(0.0, 1.6 * (10.0 - v) / (10.0 - 4.0));
    };
    const OperatingPoint mpp = track_mpp(current, 10.0);
    EXPECT_GT(mpp.voltage_v, 4.0);  // picked the global hump
    EXPECT_NEAR(mpp.voltage_v, 5.0, 0.2);
}

TEST(MpptEfficiency, RatioAndEdgeCases) {
    EXPECT_DOUBLE_EQ(mppt_efficiency(80.0, 100.0), 0.8);
    EXPECT_DOUBLE_EQ(mppt_efficiency(0.0, 0.0), 1.0);
    EXPECT_THROW(mppt_efficiency(-1.0, 2.0), InvalidArgument);
}

}  // namespace
}  // namespace pvfp::pv
