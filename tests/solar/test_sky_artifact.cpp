/// \file test_sky_artifact.cpp
/// The shared-sky batching contract: the batched prepare matches the
/// unbatched oracle bit for bit (series and step planes), an
/// IrradianceField built from a SharedSkyArtifact is bitwise identical
/// to the self-contained constructor, one artifact's step planes serve
/// many roofs in place, and the precompute is thread-count invariant.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "oracles/sky_reference.hpp"
#include "pvfp/solar/irradiance.hpp"
#include "pvfp/solar/sky_artifact.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/parallel.hpp"
#include "pvfp/util/simd.hpp"
#include "test_helpers.hpp"

namespace pvfp::solar {
namespace {

using pvfp::testing::coarse_grid;
using pvfp::testing::constant_weather;

geo::Raster shaded_dsm(int w = 20, int h = 12) {
    geo::Raster dsm(w, h, 0.2, 5.0);
    for (int y = 3; y < 5; ++y)
        for (int x = 8; x < 10; ++x) dsm(x, y) = 7.0;  // chimney
    for (int y = 0; y < h; ++y) dsm(w - 1, y) = 8.5;   // eastern wall
    return dsm;
}

constexpr int kSectors = 24;

geo::HorizonMap make_horizon(const geo::Raster& dsm) {
    geo::HorizonOptions hopt;
    hopt.azimuth_sectors = kSectors;
    hopt.max_distance = 8.0;
    return geo::HorizonMap(dsm, 0, 0, dsm.width(), dsm.height(), hopt);
}

/// Non-constant weather exercising every branch (night, overcast,
/// beam-only, diffuse-only).
std::vector<EnvSample> varied_weather(const TimeGrid& grid) {
    std::vector<EnvSample> env(
        static_cast<std::size_t>(grid.total_steps()));
    for (std::size_t i = 0; i < env.size(); ++i) {
        const double phase = static_cast<double>(i % 24);
        env[i].ghi = phase < 6 ? 0.0 : 80.0 * phase;
        env[i].dni = phase < 8 ? 0.0 : 60.0 * phase;
        env[i].dhi = phase < 6 ? 0.0 : 25.0 * phase;
        env[i].temp_air_c = 10.0 + phase;
    }
    return env;
}

/// SIMD levels this host can actually execute.
std::vector<SimdLevel> runnable_levels() {
    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    if (cpu_supports_avx2()) levels.push_back(SimdLevel::Avx2);
    if (cpu_supports_avx512()) levels.push_back(SimdLevel::Avx512);
    return levels;
}

/// Same length and the same bytes (so +0.0 vs -0.0 would differ).
template <typename T>
::testing::AssertionResult same_bits(const std::vector<T>& a,
                                     const std::vector<T>& b) {
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "sizes " << a.size() << " vs " << b.size();
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0)
            return ::testing::AssertionFailure()
                   << "first difference at " << i << ": " << a[i] << " vs "
                   << b[i];
    return ::testing::AssertionSuccess();
}

void expect_artifacts_bitwise_equal(const SharedSkyArtifact& a,
                                    const SharedSkyArtifact& b,
                                    const std::string& what) {
    // Every field any output reads: the env series, the daylight flags,
    // the isotropic diffuse share and every step plane.
    // EnvSample is four doubles with no padding.
    EXPECT_TRUE(a.env.size() == b.env.size() &&
                std::memcmp(a.env.data(), b.env.data(),
                            a.env.size() * sizeof(EnvSample)) == 0)
        << what << " env";
    EXPECT_TRUE(same_bits(a.dhi_iso, b.dhi_iso)) << what;
    EXPECT_TRUE(same_bits(a.daylight, b.daylight)) << what;
    const SkyStepPlanes& p = a.planes;
    const SkyStepPlanes& q = b.planes;
    EXPECT_EQ(p.sectors, q.sectors) << what;
    EXPECT_TRUE(same_bits(p.beam_eq, q.beam_eq)) << what << " planes";
    EXPECT_TRUE(same_bits(p.temp_air, q.temp_air)) << what << " planes";
    EXPECT_TRUE(same_bits(p.sun_azimuth, q.sun_azimuth)) << what;
    EXPECT_TRUE(same_bits(p.sun_elevation, q.sun_elevation)) << what;
    EXPECT_TRUE(same_bits(p.sun_e, q.sun_e)) << what << " planes";
    EXPECT_TRUE(same_bits(p.sun_n, q.sun_n)) << what << " planes";
    EXPECT_TRUE(same_bits(p.sun_u, q.sun_u)) << what << " planes";
    EXPECT_TRUE(same_bits(p.hor_sec0, q.hor_sec0)) << what;
    EXPECT_TRUE(same_bits(p.hor_sec1, q.hor_sec1)) << what;
    EXPECT_TRUE(same_bits(p.hor_frac, q.hor_frac)) << what;
}

TEST(SkyArtifact, BatchedPrepareMatchesReferenceBitwise) {
    // The batched prepare (per-day hoisting, elementwise geometry and
    // transposition passes, parallel plane build) must reproduce the
    // unbatched per-step oracle bit for bit, series and step planes,
    // across hemispheres (polar-night/midnight-sun latitudes included),
    // both sky models and sector counts that do and do not divide 360.
    const TimeGrid grid = coarse_grid(12);
    const auto env = varied_weather(grid);
    for (const double lat : {-35.0, 0.0, 45.07, 68.5}) {
        for (const SkyModel model :
             {SkyModel::HayDavies, SkyModel::Isotropic}) {
            for (const int sectors : {7, kSectors, 72}) {
                Location loc;
                loc.latitude_deg = lat;
                const SharedSkyArtifact ref =
                    oracles::prepare_sky_artifact_reference(loc, grid, env,
                                                            model, sectors);
                const SharedSkyArtifact batched =
                    prepare_sky_artifact(loc, grid, env, model, sectors);
                expect_artifacts_bitwise_equal(
                    ref, batched,
                    "lat " + std::to_string(lat) + " model " +
                        (model == SkyModel::HayDavies ? "hay" : "iso") +
                        " sectors " + std::to_string(sectors));
            }
        }
    }
}

TEST(SkyArtifact, FieldFromArtifactIsBitwiseIdentical) {
    const TimeGrid grid = coarse_grid(6);
    const auto env = varied_weather(grid);
    const geo::Raster dsm = shaded_dsm();
    const FieldConfig config;  // Torino, Hay-Davies

    const IrradianceField self(make_horizon(dsm), env, grid,
                               deg2rad(26.0), deg2rad(180.0), config);
    const auto sky =
        make_shared_sky(config.location, grid, env, config.sky_model,
                        kSectors);
    const IrradianceField shared(make_horizon(dsm), sky, deg2rad(26.0),
                                 deg2rad(180.0), config);

    ASSERT_EQ(self.steps(), shared.steps());
    for (long s = 0; s < self.steps(); ++s) {
        ASSERT_EQ(self.is_daylight(s), shared.is_daylight(s));
        ASSERT_EQ(self.sun(s).azimuth_rad, shared.sun(s).azimuth_rad);
        ASSERT_EQ(self.sun(s).elevation_rad, shared.sun(s).elevation_rad);
        ASSERT_EQ(self.air_temperature(s), shared.air_temperature(s));
        for (int y = 0; y < self.height(); ++y)
            for (int x = 0; x < self.width(); ++x)
                ASSERT_EQ(self.cell_irradiance(x, y, s),
                          shared.cell_irradiance(x, y, s))
                    << "cell (" << x << "," << y << ") step " << s;
    }
}

TEST(SkyArtifact, OneArtifactServesManyRoofOrientations) {
    const TimeGrid grid = coarse_grid(4);
    const auto env = varied_weather(grid);
    const geo::Raster dsm = shaded_dsm();
    const FieldConfig config;
    const auto sky =
        make_shared_sky(config.location, grid, env, config.sky_model,
                        kSectors);

    for (const auto& [tilt, azimuth] :
         {std::pair{10.0, 150.0}, std::pair{26.0, 180.0},
          std::pair{35.0, 225.0}, std::pair{0.0, 0.0}}) {
        const IrradianceField self(make_horizon(dsm), env, grid,
                                   deg2rad(tilt), deg2rad(azimuth), config);
        const IrradianceField shared(make_horizon(dsm), sky, deg2rad(tilt),
                                     deg2rad(azimuth), config);
        for (long s = 0; s < self.steps(); s += 3)
            for (int y = 0; y < self.height(); y += 3)
                for (int x = 0; x < self.width(); x += 3)
                    ASSERT_EQ(self.cell_irradiance(x, y, s),
                              shared.cell_irradiance(x, y, s))
                        << "tilt " << tilt << " azimuth " << azimuth;
    }
}

TEST(SkyArtifact, IsotropicSkyModelMatchesToo) {
    const TimeGrid grid = coarse_grid(3);
    const auto env = varied_weather(grid);
    const geo::Raster dsm = shaded_dsm();
    FieldConfig config;
    config.sky_model = SkyModel::Isotropic;

    const IrradianceField self(make_horizon(dsm), env, grid,
                               deg2rad(26.0), deg2rad(180.0), config);
    const auto sky =
        make_shared_sky(config.location, grid, env, config.sky_model,
                        kSectors);
    const IrradianceField shared(make_horizon(dsm), sky, deg2rad(26.0),
                                 deg2rad(180.0), config);
    for (long s = 0; s < self.steps(); ++s)
        for (int y = 0; y < self.height(); y += 2)
            for (int x = 0; x < self.width(); x += 2)
                ASSERT_EQ(self.cell_irradiance(x, y, s),
                          shared.cell_irradiance(x, y, s));
}

TEST(SkyArtifact, PrecomputeIsThreadCountInvariant) {
    const TimeGrid grid = coarse_grid(10);
    const auto env = varied_weather(grid);
    const FieldConfig config;

    set_thread_count(1);
    const SharedSkyArtifact one = prepare_sky_artifact(
        config.location, grid, env, config.sky_model, kSectors);
    set_thread_count(8);
    const SharedSkyArtifact eight = prepare_sky_artifact(
        config.location, grid, env, config.sky_model, kSectors);
    set_thread_count(0);
    expect_artifacts_bitwise_equal(one, eight, "1 vs 8 threads");
}

TEST(SkyArtifact, FieldsShareTheSitePlanesAndStayExact) {
    // Two roofs of one site at different tilts read the artifact's step
    // planes in place (same pointers) and own only their tilt-dependent
    // planes; every batched entry point still matches the per-cell
    // scalar reference bit for bit at every runnable SIMD level.
    const TimeGrid grid = coarse_grid(6);
    const auto env = varied_weather(grid);
    const geo::Raster dsm = shaded_dsm();
    const FieldConfig config;
    const auto sky = make_shared_sky(config.location, grid, env,
                                     config.sky_model, kSectors);
    const IrradianceField flat(make_horizon(dsm), sky, deg2rad(10.0),
                               deg2rad(150.0), config);
    const IrradianceField steep(
        make_horizon(dsm), sky, deg2rad(35.0), deg2rad(225.0), config,
        geo::NormalMap::from_dsm(dsm, 0, 0, dsm.width(), dsm.height()));

    const detail::FieldView a = flat.view();
    const detail::FieldView b = steep.view();
    const SkyStepPlanes& p = sky->planes;
    for (const detail::FieldView& v : {a, b}) {
        EXPECT_EQ(v.beam_eq, p.beam_eq.data());
        EXPECT_EQ(v.sun_elevation, p.sun_elevation.data());
        EXPECT_EQ(v.sun_e, p.sun_e.data());
        EXPECT_EQ(v.sun_n, p.sun_n.data());
        EXPECT_EQ(v.sun_u, p.sun_u.data());
        EXPECT_EQ(v.hor_sec0, p.hor_sec0.data());
        EXPECT_EQ(v.hor_sec1, p.hor_sec1.data());
        EXPECT_EQ(v.hor_frac, p.hor_frac.data());
    }
    // The tilt-dependent planes are each roof's own.
    EXPECT_NE(a.sky_diffuse, b.sky_diffuse);
    EXPECT_NE(a.reflected, b.reflected);

    std::vector<long> all_steps(static_cast<std::size_t>(flat.steps()));
    for (long s = 0; s < flat.steps(); ++s)
        all_steps[static_cast<std::size_t>(s)] = s;
    for (const IrradianceField* field : {&flat, &steep}) {
        const int w = field->width();
        for (const SimdLevel lvl : runnable_levels()) {
            set_simd_level(lvl);
            const std::string what =
                std::string(field == &flat ? "flat " : "steep ") +
                simd_level_name(lvl);
            std::vector<double> row(static_cast<std::size_t>(w));
            for (long s = 0; s < field->steps(); ++s)
                for (int y = 0; y < field->height(); ++y) {
                    field->cell_irradiance_row(y, s, 0, w, row.data());
                    for (int x = 0; x < w; ++x)
                        ASSERT_EQ(row[static_cast<std::size_t>(x)],
                                  field->cell_irradiance_unchecked(x, y, s))
                            << what << " row y " << y << " step " << s;
                }
            std::vector<double> series(all_steps.size());
            for (int y = 0; y < field->height(); ++y)
                for (int x = 0; x < w; ++x) {
                    field->cell_irradiance_series(x, y, all_steps,
                                                  series.data());
                    for (long s = 0; s < field->steps(); ++s)
                        ASSERT_EQ(series[static_cast<std::size_t>(s)],
                                  field->cell_irradiance_unchecked(x, y, s))
                            << what << " series (" << x << "," << y << ")";
                }
            set_simd_level_auto();
        }
    }
}

TEST(SkyArtifact, Validation) {
    const TimeGrid grid = coarse_grid(2);
    const FieldConfig config;
    const geo::Raster dsm = shaded_dsm();

    // Env length mismatch.
    auto short_env = constant_weather(grid);
    short_env.pop_back();
    EXPECT_THROW(prepare_sky_artifact(config.location, grid, short_env,
                                      config.sky_model),
                 InvalidArgument);

    // Negative irradiance.
    auto bad_env = constant_weather(grid);
    bad_env[1].dhi = -1.0;
    EXPECT_THROW(prepare_sky_artifact(config.location, grid, bad_env,
                                      config.sky_model),
                 InvalidArgument);

    // Null artifact handle.
    EXPECT_THROW(IrradianceField(make_horizon(dsm), nullptr, 0.3, kPi,
                                 config),
                 InvalidArgument);

    const auto sky = make_shared_sky(config.location, grid,
                                     constant_weather(grid),
                                     config.sky_model, kSectors);

    // Mismatched location.
    FieldConfig other_site = config;
    other_site.location.latitude_deg += 1.0;
    EXPECT_THROW(IrradianceField(make_horizon(dsm), sky, 0.3, kPi,
                                 other_site),
                 InvalidArgument);

    // Mismatched sky model.
    FieldConfig other_model = config;
    other_model.sky_model = SkyModel::Isotropic;
    EXPECT_THROW(IrradianceField(make_horizon(dsm), sky, 0.3, kPi,
                                 other_model),
                 InvalidArgument);
    // An artifact built for another horizon sector count.
    const auto other_sectors =
        make_shared_sky(config.location, grid, constant_weather(grid),
                        config.sky_model, kSectors * 2);
    EXPECT_THROW(IrradianceField(make_horizon(dsm), other_sectors, 0.3, kPi,
                                 config),
                 InvalidArgument);

    // Too few sectors to build planes for.
    EXPECT_THROW(prepare_sky_artifact(config.location, grid,
                                      constant_weather(grid),
                                      config.sky_model, 3),
                 InvalidArgument);
}

}  // namespace
}  // namespace pvfp::solar
