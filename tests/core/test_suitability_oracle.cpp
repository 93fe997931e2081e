/// Differential suite for the step-major suitability sweep: the g/t
/// percentile and suitability grids of core::compute_suitability must be
/// *bitwise equal* to the per-cell oracle (tests/oracles) across every
/// runnable SIMD level, time strides, the daylight/mean/temperature
/// options, per-cell normals, masks whose runs split at block
/// boundaries, and fields whose night steps are sometimes lit by the
/// sky and ground terms (so the shared dark-step path is both taken and
/// skipped).

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "oracles/suitability_reference.hpp"
#include "pvfp/core/suitability.hpp"
#include "pvfp/geo/raster.hpp"
#include "pvfp/solar/irradiance.hpp"
#include "pvfp/util/error.hpp"
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

/// A rough roof with random obstacles under random weather: every step,
/// night included, draws its own ghi/dni/dhi, and 15% of steps are all
/// zero.  Night steps with ghi/dhi > 0 carry nonzero sky or ground
/// terms (not dark); the all-zero steps are dark.  ghi, dni and dhi are
/// each zero on some steps, so every term of the dark test decides some
/// step on its own: ground-only (dhi = 0), sky-only (ghi = 0) and, on a
/// flat roof (\p tilt_deg = 0, no ground term), beam-only steps.
solar::IrradianceField random_field(std::uint64_t seed, bool normals,
                                    double tilt_deg) {
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

    const TimeGrid grid(15, 120, 3);
    std::vector<solar::EnvSample> env(
        static_cast<std::size_t>(grid.total_steps()));
    for (auto& e : env) {
        if (rng.bernoulli(0.15)) continue;
        e.ghi = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 900.0);
        e.dni = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 850.0);
        e.dhi = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 350.0);
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
                                  deg2rad(tilt_deg),
                                  deg2rad(rng.uniform(90.0, 270.0)),
                                  solar::FieldConfig{},
                                  std::move(normal_map));
}

/// Random holes plus one fully invalid column, so rows split into
/// several runs; over 256 valid cells, so some run crosses a block
/// boundary.
geo::PlacementArea holey_area(std::uint64_t seed) {
    Rng rng(seed);
    Grid2D<unsigned char> mask(kWidth, kHeight, 1);
    for (int y = 0; y < kHeight; ++y) {
        mask(kWidth / 2, y) = 0;
        for (int x = 0; x < kWidth; ++x)
            if (rng.bernoulli(0.12)) mask(x, y) = 0;
    }
    return pvfp::testing::masked_area(mask);
}

/// Counts of (dark, lit-night) sampled steps at stride 1: the dark
/// path needs both kinds present to be both taken and skipped.
std::pair<long, long> dark_and_lit_night_steps(
    const solar::IrradianceField& field) {
    const solar::detail::FieldView v = field.view();
    long dark = 0;
    long lit_night = 0;
    for (long s = 0; s < field.steps(); ++s) {
        const std::size_t si = static_cast<std::size_t>(s);
        const bool is_dark =
            v.reflected[si] == 0.0f && v.sky_diffuse[si] == 0.0f &&
            (!(v.beam_eq[si] > 0.0f) || !(v.sun_elevation[si] > 0.0f));
        if (is_dark) ++dark;
        else if (!field.is_daylight(s)) ++lit_night;
    }
    return {dark, lit_night};
}

/// Same dimensions and the same bytes (so +0.0 vs -0.0 would differ).
bool same_bits(const Grid2D<double>& a, const Grid2D<double>& b) {
    return a.width() == b.width() && a.height() == b.height() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(double)) == 0;
}

void expect_bitwise_equal(const core::SuitabilityResult& got,
                          const core::SuitabilityResult& want,
                          const std::string& where) {
    EXPECT_TRUE(same_bits(got.suitability, want.suitability)) << where;
    EXPECT_TRUE(same_bits(got.g_percentile, want.g_percentile)) << where;
    EXPECT_TRUE(same_bits(got.t_percentile, want.t_percentile)) << where;
}

TEST(SuitabilityOracle, BlockedSweepMatchesPerCellOracleBitwise) {
    SimdLevelGuard guard;
    const geo::PlacementArea area = holey_area(7);
    ASSERT_GT(area.valid_count, 256);
    struct Spec {
        bool normals;
        double tilt_deg;
    };
    std::uint64_t seed = 300;
    for (const Spec spec : {Spec{false, 30.0}, Spec{true, 15.0},
                            Spec{false, 0.0}}) {
        const bool normals = spec.normals;
        const auto field = random_field(seed++, normals, spec.tilt_deg);
        const auto [dark, lit_night] = dark_and_lit_night_steps(field);
        ASSERT_GT(dark, 0);
        ASSERT_GT(lit_night, 0);
        for (const long stride : {1L, 4L, 96L}) {
            for (const bool daylight_only : {false, true}) {
                for (const bool use_mean : {false, true}) {
                    for (const bool t_corr : {false, true}) {
                        core::SuitabilityOptions opt;
                        opt.step_stride = stride;
                        opt.daylight_only = daylight_only;
                        opt.use_mean = use_mean;
                        opt.temperature_correction = t_corr;
                        const std::string where =
                            "normals=" + std::to_string(normals) +
                            " tilt=" + std::to_string(spec.tilt_deg) +
                            " stride=" + std::to_string(stride) +
                            " daylight_only=" +
                            std::to_string(daylight_only) +
                            " use_mean=" + std::to_string(use_mean) +
                            " t_corr=" + std::to_string(t_corr);
                        set_simd_level(SimdLevel::Scalar);
                        // Stride 96 samples midnight only: with
                        // daylight_only the distribution is empty, and
                        // both paths must refuse it the same way.
                        std::optional<core::SuitabilityResult> want;
                        try {
                            want = oracles::compute_suitability_reference(
                                field, area, opt);
                        } catch (const InvalidArgument&) {
                        }
                        for (const SimdLevel level : runnable_levels()) {
                            set_simd_level(level);
                            const std::string at =
                                where + " level=" + simd_level_name(level);
                            if (!want) {
                                EXPECT_THROW(
                                    core::compute_suitability(field, area,
                                                              opt),
                                    InvalidArgument)
                                    << at;
                                continue;
                            }
                            expect_bitwise_equal(
                                core::compute_suitability(field, area, opt),
                                *want, at);
                        }
                    }
                }
            }
        }
    }
}

TEST(SuitabilityOracle, ToyScenarioMatchesPerCellOracleBitwise) {
    SimdLevelGuard guard;
    const auto& prepared = pvfp::testing::coarse_toy_scenario();
    const auto& opt = prepared.config.suitability;
    set_simd_level(SimdLevel::Scalar);
    const auto want = oracles::compute_suitability_reference(
        prepared.field, prepared.area, opt);
    for (const SimdLevel level : runnable_levels()) {
        set_simd_level(level);
        expect_bitwise_equal(
            core::compute_suitability(prepared.field, prepared.area, opt),
            want, std::string("level=") + simd_level_name(level));
    }
}

}  // namespace
