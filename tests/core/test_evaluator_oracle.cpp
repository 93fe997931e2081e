/// Differential suite for the step-major floorplan evaluation: every
/// field of core::evaluate_floorplan's EvaluationResult, the per-string
/// breakdown included, must be *bitwise equal* to the module-major
/// series oracle (tests/oracles) across every runnable SIMD level, the
/// three ModuleIrradiance modes, time strides 1 / 4 / 96, wiring loss
/// on/off and per-cell normals on/off.  The plans cover merged runs (a
/// compact block), scattered footprints (the greedy plan), two modules
/// one cell apart in the same rows (must not merge), two modules that
/// share only some rows, and a plan on the window's last column and
/// last row.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "oracles/evaluate_reference.hpp"
#include "pvfp/core/compact_placer.hpp"
#include "pvfp/core/evaluator.hpp"
#include "pvfp/core/greedy_placer.hpp"
#include "pvfp/core/suitability.hpp"
#include "pvfp/geo/raster.hpp"
#include "pvfp/solar/irradiance.hpp"
#include "pvfp/util/rng.hpp"
#include "pvfp/util/simd.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pvfp;

/// Restores auto dispatch when a test that forces a level exits.
struct SimdLevelGuard {
    ~SimdLevelGuard() { set_simd_level_auto(); }
};

std::vector<SimdLevel> runnable_levels() {
    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    if (cpu_supports_avx2()) levels.push_back(SimdLevel::Avx2);
    if (cpu_supports_avx512()) levels.push_back(SimdLevel::Avx512);
    return levels;
}

constexpr int kWidth = 37;
constexpr int kHeight = 11;
const core::PanelGeometry kGeometry{4, 3};

/// A rough roof with random obstacles under random weather, so every
/// footprint cell sees its own irradiance.  Six days of 20-minute
/// steps: stride 1 spans two 256-sample shards, and stride 96 samples
/// 08:00 and 16:00, its last sample a daylight one whose interval is
/// clamped (432 = 4 * 96 + 48).
solar::IrradianceField random_field(std::uint64_t seed, bool normals) {
    Rng rng(seed);
    geo::Raster dsm(kWidth + 4, kHeight + 4, 0.2, 5.0);
    for (int y = 0; y < dsm.height(); ++y)
        for (int x = 0; x < dsm.width(); ++x)
            dsm(x, y) += rng.uniform(0.0, 0.3);
    for (int o = 0; o < 4; ++o) {
        const int ox = static_cast<int>(rng.uniform_int(
            static_cast<std::uint64_t>(dsm.width())));
        const int oy = static_cast<int>(rng.uniform_int(
            static_cast<std::uint64_t>(dsm.height())));
        dsm(ox, oy) += rng.uniform(1.0, 5.0);
    }

    const TimeGrid grid(20, 120, 6);
    std::vector<solar::EnvSample> env(
        static_cast<std::size_t>(grid.total_steps()));
    for (auto& e : env) {
        e.ghi = rng.uniform(0.0, 900.0);
        e.dni = rng.uniform(0.0, 850.0);
        e.dhi = rng.uniform(0.0, 350.0);
        e.temp_air_c = rng.uniform(-5.0, 35.0);
    }

    geo::HorizonOptions hopt;
    hopt.azimuth_sectors = 24;
    hopt.max_distance = 12.0;
    geo::HorizonMap horizon(dsm, 2, 2, kWidth, kHeight, hopt);
    geo::NormalMap normal_map;
    if (normals)
        normal_map = geo::NormalMap::from_dsm(dsm, 2, 2, kWidth, kHeight);
    return solar::IrradianceField(std::move(horizon), std::move(env), grid,
                                  deg2rad(30.0),
                                  deg2rad(rng.uniform(90.0, 270.0)),
                                  solar::FieldConfig{},
                                  std::move(normal_map));
}

core::Floorplan plan_of(std::vector<core::ModulePlacement> modules,
                        pv::Topology topology) {
    core::Floorplan plan;
    plan.geometry = kGeometry;
    plan.topology = topology;
    plan.modules = std::move(modules);
    return plan;
}

struct NamedPlan {
    std::string name;
    core::Floorplan plan;
};

/// The five plans of the suite on \p field's window.
std::vector<NamedPlan> plans_for(const solar::IrradianceField& field,
                                 const geo::PlacementArea& area) {
    const auto suit = core::compute_suitability(field, area);
    const pv::Topology topology{4, 2};
    const core::CompactResult compact =
        core::place_compact(area, suit.suitability, kGeometry, topology);
    EXPECT_EQ(compact.mode, core::CompactMode::FullBlock);
    const int w = kGeometry.k1;
    const int h = kGeometry.k2;
    return {
        {"compact", compact.plan},
        {"greedy",
         core::place_greedy(area, suit.suitability, kGeometry, topology)},
        {"gap", plan_of({{3, 2}, {3 + w + 1, 2}}, {2, 1})},
        {"offset", plan_of({{3, 4}, {3 + w, 5}, {3 + 2 * w + 1, 6}},
                           {3, 1})},
        {"edge", plan_of({{kWidth - w, kHeight - h},
                          {kWidth - 2 * w, kHeight - h},
                          {kWidth - w, 0},
                          {0, kHeight - h}},
                         {2, 2})},
    };
}

/// Same bytes (so +0.0 vs -0.0 would differ).
bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_bitwise_equal(const core::EvaluationResult& got,
                          const core::EvaluationResult& want,
                          const std::string& where) {
    EXPECT_TRUE(same_bits(got.energy_kwh, want.energy_kwh)) << where;
    EXPECT_TRUE(same_bits(got.ideal_energy_kwh, want.ideal_energy_kwh))
        << where;
    EXPECT_TRUE(same_bits(got.mismatch_loss_kwh, want.mismatch_loss_kwh))
        << where;
    EXPECT_TRUE(same_bits(got.wiring_loss_kwh, want.wiring_loss_kwh))
        << where;
    EXPECT_TRUE(same_bits(got.extra_cable_m, want.extra_cable_m)) << where;
    EXPECT_TRUE(same_bits(got.wiring_cost_usd, want.wiring_cost_usd))
        << where;
    ASSERT_EQ(got.strings.size(), want.strings.size()) << where;
    for (std::size_t j = 0; j < got.strings.size(); ++j) {
        const std::string at = where + " string=" + std::to_string(j);
        EXPECT_TRUE(same_bits(got.strings[j].energy_kwh,
                              want.strings[j].energy_kwh))
            << at;
        EXPECT_TRUE(same_bits(got.strings[j].wiring_loss_kwh,
                              want.strings[j].wiring_loss_kwh))
            << at;
        EXPECT_TRUE(same_bits(got.strings[j].extra_cable_m,
                              want.strings[j].extra_cable_m))
            << at;
    }
}

const char* mode_name(core::ModuleIrradiance mode) {
    switch (mode) {
        case core::ModuleIrradiance::FootprintMean: return "mean";
        case core::ModuleIrradiance::WorstCell: return "worst";
        case core::ModuleIrradiance::AnchorCell: return "anchor";
    }
    return "?";
}

TEST(EvaluatorOracle, RowRunSweepMatchesSeriesOracleBitwise) {
    SimdLevelGuard guard;
    const geo::PlacementArea area = pvfp::testing::flat_area(kWidth, kHeight);
    const pv::EmpiricalModuleModel model;
    std::uint64_t seed = 500;
    for (const bool normals : {false, true}) {
        const auto field = random_field(seed++, normals);
        set_simd_level(SimdLevel::Scalar);
        for (const NamedPlan& np : plans_for(field, area)) {
            ASSERT_TRUE(core::floorplan_feasible(np.plan, area)) << np.name;
            for (const auto mode : {core::ModuleIrradiance::FootprintMean,
                                    core::ModuleIrradiance::WorstCell,
                                    core::ModuleIrradiance::AnchorCell}) {
                for (const long stride : {1L, 4L, 96L}) {
                    for (const bool wiring : {true, false}) {
                        core::EvaluationOptions opt;
                        opt.module_irradiance = mode;
                        opt.step_stride = stride;
                        opt.include_wiring_loss = wiring;
                        const std::string where =
                            "plan=" + np.name +
                            " normals=" + std::to_string(normals) +
                            " mode=" + mode_name(mode) +
                            " stride=" + std::to_string(stride) +
                            " wiring=" + std::to_string(wiring);
                        set_simd_level(SimdLevel::Scalar);
                        const auto want =
                            oracles::evaluate_floorplan_reference(
                                np.plan, area, field, model, opt);
                        ASSERT_GT(want.energy_kwh, 0.0) << where;
                        for (const SimdLevel level : runnable_levels()) {
                            set_simd_level(level);
                            expect_bitwise_equal(
                                core::evaluate_floorplan(np.plan, area,
                                                         field, model, opt),
                                want,
                                where + " level=" + simd_level_name(level));
                        }
                    }
                }
            }
        }
    }
}

TEST(EvaluatorOracle, ToyScenarioMatchesSeriesOracleBitwise) {
    SimdLevelGuard guard;
    const auto& prepared = pvfp::testing::coarse_toy_scenario();
    const pv::Topology topology{8, 2};
    const core::Floorplan compact =
        core::place_compact(prepared.area, prepared.suitability.suitability,
                            prepared.geometry, topology)
            .plan;
    const core::Floorplan greedy = core::place_greedy(
        prepared.area, prepared.suitability.suitability, prepared.geometry,
        topology);
    for (const core::Floorplan* plan : {&compact, &greedy}) {
        set_simd_level(SimdLevel::Scalar);
        const auto want = oracles::evaluate_floorplan_reference(
            *plan, prepared.area, prepared.field, prepared.model);
        for (const SimdLevel level : runnable_levels()) {
            set_simd_level(level);
            expect_bitwise_equal(
                core::evaluate_floorplan(*plan, prepared.area,
                                         prepared.field, prepared.model),
                want, std::string("level=") + simd_level_name(level));
        }
    }
}

}  // namespace
