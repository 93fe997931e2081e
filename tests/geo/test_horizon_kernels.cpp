/// \file test_horizon_kernels.cpp
/// Differential suite for the batched horizon engine and the shared
/// macro-tile horizon cache.
///
/// The batched row-march kernels (scalar / AVX2 / AVX-512) promise
/// *bitwise* identity with the per-cell reference builder
/// (tests/oracles/horizon_reference) —
/// the same contract as the irradiance kernel tiers: every SIMD level
/// performs elementwise-identical IEEE arithmetic (mul+add, no FMA), so
/// a HorizonMap is one deterministic artifact no matter which tier the
/// dispatcher picks.  The cache promises that a window assembled from
/// cached macro-tile planes equals a fresh HorizonMap built over the
/// same halo mosaic, through eviction, rebuild, and concurrent access.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "oracles/horizon_reference.hpp"
#include "pvfp/geo/asc_grid.hpp"
#include "pvfp/geo/horizon.hpp"
#include "pvfp/geo/horizon_kernels.hpp"
#include "pvfp/geo/scene.hpp"
#include "pvfp/gis/horizon_cache.hpp"
#include "pvfp/gis/tile_index.hpp"
#include "pvfp/obs/metrics.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/rng.hpp"
#include "pvfp/util/simd.hpp"

namespace pvfp::geo {
namespace {

namespace fs = std::filesystem;
using oracles::horizon_map_reference;

/// Restore the ambient SIMD level when a test scope ends.
struct SimdLevelGuard {
    SimdLevel saved = simd_level();
    ~SimdLevelGuard() { set_simd_level(saved); }
};

/// The SIMD levels this host can actually execute.
std::vector<SimdLevel> runnable_levels() {
    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    if (cpu_supports_avx2()) levels.push_back(SimdLevel::Avx2);
    if (cpu_supports_avx512()) levels.push_back(SimdLevel::Avx512);
    return levels;
}

/// A pool of structurally different DSMs: procedural buildings, rough
/// random terrain, a smooth slope, and flat ground with a lone spike.
std::vector<Raster> test_dsms() {
    std::vector<Raster> dsms;

    SceneBuilder town(16.0, 16.0);
    town.add_building({3.0, 2.0, 2.5, 3.0, 5.0});
    town.add_building({10.0, 9.0, 4.0, 2.0, 7.5});
    town.add_building({6.5, 11.5, 1.0, 1.0, 12.0});
    dsms.push_back(town.rasterize(0.4));

    Rng rng(0xD5A11u);
    Raster rough(37, 29, 0.5);
    for (int y = 0; y < rough.height(); ++y)
        for (int x = 0; x < rough.width(); ++x)
            rough(x, y) = rng.uniform(0.0, 6.0);
    dsms.push_back(std::move(rough));

    Raster slope(31, 31, 0.25);
    for (int y = 0; y < slope.height(); ++y)
        for (int x = 0; x < slope.width(); ++x)
            slope(x, y) = 0.15 * x + 0.4 * y;
    dsms.push_back(std::move(slope));

    Raster spike(25, 25, 1.0, 2.0);
    spike(12, 12) = 40.0;
    dsms.push_back(std::move(spike));

    return dsms;
}

void expect_bitwise_equal(const HorizonMap& a, const HorizonMap& b,
                          const char* what) {
    ASSERT_EQ(a.sectors(), b.sectors());
    ASSERT_EQ(a.cell_count(), b.cell_count());
    const std::size_t angle_floats =
        static_cast<std::size_t>(a.cell_count()) * a.sectors();
    EXPECT_EQ(std::memcmp(a.angles_data(), b.angles_data(),
                          angle_floats * sizeof(float)),
              0)
        << what << ": angle planes differ";
    EXPECT_EQ(std::memcmp(a.svf_data(), b.svf_data(),
                          static_cast<std::size_t>(a.cell_count()) *
                              sizeof(float)),
              0)
        << what << ": svf planes differ";
}

/// Build the window at every runnable level and compare each map with
/// the oracle bit for bit.
void expect_oracle_at_every_level(const Raster& dsm, int x0, int y0, int w,
                                  int h, const HorizonOptions& opt,
                                  const std::string& what) {
    SimdLevelGuard guard;
    const HorizonMap ref = horizon_map_reference(dsm, x0, y0, w, h, opt);
    for (const SimdLevel level : runnable_levels()) {
        set_simd_level(level);
        const HorizonMap batched(dsm, x0, y0, w, h, opt);
        expect_bitwise_equal(
            batched, ref,
            (what + " level " + simd_level_name(level)).c_str());
    }
}

TEST(HorizonKernels, BatchedMatchesReferenceBitwiseAtEveryLevel) {
    const std::vector<Raster> dsms = test_dsms();
    for (const int sectors : {7, 24}) {
        for (std::size_t d = 0; d < dsms.size(); ++d) {
            const Raster& dsm = dsms[d];
            HorizonOptions opt;
            opt.azimuth_sectors = sectors;
            opt.max_distance = 10.0 + 3.0 * static_cast<double>(d);
            // An off-center window exercises the x/y offset paths.
            expect_oracle_at_every_level(
                dsm, 2, 1, dsm.width() - 4, dsm.height() - 3, opt,
                "dsm " + std::to_string(d) + " sectors " +
                    std::to_string(sectors));
        }
    }
}

/// The kernels' own atan2 count for the window at the current level,
/// summed over its rows (independent of telemetry).
std::uint64_t batched_atan2_calls(const Raster& dsm, int x0, int y0, int w,
                                  int h, const HorizonOptions& opt) {
    const HorizonSchedule sched =
        make_horizon_schedule(opt, dsm.cell_size());
    std::vector<float> angles(static_cast<std::size_t>(w) *
                              static_cast<std::size_t>(opt.azimuth_sectors));
    std::vector<float> svf(static_cast<std::size_t>(w));
    std::uint64_t calls = 0;
    for (int y = y0; y < y0 + h; ++y)
        calls += horizon_row_batched(dsm, x0, y, w, sched,
                                     opt.observer_offset, angles.data(),
                                     static_cast<std::size_t>(w), svf.data());
    return calls;
}

TEST(HorizonKernels, ConvexRampSetsARatioRecordAtEveryStep) {
    // h = c * x^2 (bilinear-interpolated, still convex): along any ray
    // with an eastward component the slope ratio (h - h0) / t grows at
    // every step, so a filter against the running ratio max evaluates
    // atan2 at every uphill step.  The final-band filter keeps one
    // candidate per ray.
    Raster ramp(48, 9, 0.5);
    for (int y = 0; y < ramp.height(); ++y)
        for (int x = 0; x < ramp.width(); ++x)
            ramp(x, y) = 0.02 * x * x + 0.01 * y;
    HorizonOptions opt;
    opt.azimuth_sectors = 16;
    opt.max_distance = 20.0;
    const int w = 20, h = 5;
    expect_oracle_at_every_level(ramp, 1, 2, w, h, opt, "convex ramp");

    SimdLevelGuard guard;
    const std::uint64_t cell_sectors =
        static_cast<std::uint64_t>(w) * h * opt.azimuth_sectors;
    for (const SimdLevel level : runnable_levels()) {
        set_simd_level(level);
        const std::uint64_t calls =
            batched_atan2_calls(ramp, 1, 2, w, h, opt);
        EXPECT_GT(calls, 0u) << simd_level_name(level);
        EXPECT_LE(calls, cell_sectors) << simd_level_name(level);
    }
}

TEST(HorizonKernels, ObstaclesWithinTheGuardBandAreAllCandidates) {
    // Uniform unit steps due east from the cell at x = 0 sample exactly
    // the cell centers x = k at t = k, so an obstacle at x = k with
    // height r * k has slope ratio r exactly.  Each case places
    // obstacles whose ratios lie within (or just outside) the 1e-9
    // relative band of the largest one; `in_band` is how many of them
    // the angle pass must evaluate.
    struct Obstacle {
        int x;
        double ratio_scale;
    };
    struct Case {
        std::vector<Obstacle> obstacles;
        std::uint64_t in_band;
    };
    const std::vector<Case> cases = {
        {{{5, 1.0}, {13, 1.0 - 5e-10}}, 2},   // nearer one wins
        {{{5, 1.0 - 5e-10}, {13, 1.0}}, 2},   // farther one wins
        {{{4, 1.0}, {8, 1.0}, {16, 1.0}}, 3}, // equal ratios
        {{{3, 1.0 - 3e-9}, {9, 1.0}, {14, 1.0 - 2e-10}}, 2},
        {{{6, 1.0}, {11, 1.0 - 3e-9}}, 1},    // second just outside
    };
    HorizonOptions opt;
    opt.azimuth_sectors = 4;  // sector 1 looks due east
    opt.step_growth = 1.0;
    opt.max_step_factor = 1.0;
    opt.max_distance = 30.0;
    opt.observer_offset = 0.0;
    for (std::size_t c = 0; c < cases.size(); ++c) {
        Raster dsm(40, 3, 1.0, 0.0);
        for (const Obstacle& o : cases[c].obstacles)
            for (int y = 0; y < dsm.height(); ++y)
                dsm(o.x, y) = 0.7 * o.ratio_scale * o.x;
        const std::string what = "band case " + std::to_string(c);
        expect_oracle_at_every_level(dsm, 0, 1, 1, 1, opt, what);

        const HorizonMap map(dsm, 0, 1, 1, 1, opt);
        EXPECT_GT(map.horizon(0, 0, 1), 0.0) << what;
        SimdLevelGuard guard;
        for (const SimdLevel level : runnable_levels()) {
            set_simd_level(level);
            EXPECT_EQ(batched_atan2_calls(dsm, 0, 1, 1, 1, opt),
                      cases[c].in_band)
                << what << " level " << simd_level_name(level);
        }
    }
}

TEST(HorizonKernels, ObserverOnTheHighestCellSeesOpenSky) {
    // A 3x3 plateau above rough terrain: every plateau cell's rays see
    // terrain at most level with the observer (d == 0 on the plateau
    // with no observer offset), so every angle is exactly 0 and the
    // sky-view factor exactly 1.
    Rng rng(0x0B5Eu);
    Raster dsm(21, 17, 0.5);
    for (int y = 0; y < dsm.height(); ++y)
        for (int x = 0; x < dsm.width(); ++x)
            dsm(x, y) = rng.uniform(0.0, 5.0);
    for (int y = 7; y <= 9; ++y)
        for (int x = 9; x <= 11; ++x) dsm(x, y) = 9.0;
    for (const double offset : {0.0, 0.05}) {
        HorizonOptions opt;
        opt.azimuth_sectors = 24;
        opt.max_distance = 12.0;
        opt.observer_offset = offset;
        const std::string what =
            "plateau offset " + std::to_string(offset);
        expect_oracle_at_every_level(dsm, 9, 7, 3, 3, opt, what);
        SimdLevelGuard guard;
        for (const SimdLevel level : runnable_levels()) {
            set_simd_level(level);
            const HorizonMap map(dsm, 9, 7, 3, 3, opt);
            for (int wy = 0; wy < 3; ++wy) {
                for (int wx = 0; wx < 3; ++wx) {
                    for (int s = 0; s < opt.azimuth_sectors; ++s)
                        ASSERT_EQ(map.horizon(wx, wy, s), 0.0) << what;
                    ASSERT_EQ(map.sky_view_factor(wx, wy), 1.0) << what;
                }
            }
            EXPECT_EQ(batched_atan2_calls(dsm, 9, 7, 3, 3, opt), 0u)
                << what << " level " << simd_level_name(level);
        }
    }
}

TEST(HorizonKernels, EveryLaneRemainderWithLanesLeavingAtDifferentSteps) {
    // Widths 1..17 cover every 4-lane and 8-lane remainder.  Windows flush
    // against the west and east edges, with tall walls in the edge
    // columns, make the lanes of one group leave the raster in x at
    // different steps while their clamped samples keep seeing the walls,
    // and the steps the others still march reuse the scratch of the
    // previous group and sector.
    Rng rng(0x5EC7u);
    Raster dsm(41, 23, 0.5);
    for (int y = 0; y < dsm.height(); ++y)
        for (int x = 0; x < dsm.width(); ++x)
            dsm(x, y) = rng.uniform(0.0, 4.0) + 0.004 * x * x;
    for (int y = 0; y < dsm.height(); ++y) {
        dsm(0, y) = 15.0;
        dsm(dsm.width() - 1, y) = 18.0;
    }
    HorizonOptions opt;
    opt.azimuth_sectors = 24;
    opt.max_distance = 14.0;
    for (const int w : {1, 3, 5, 7, 9, 17}) {
        for (const int x0 : {0, dsm.width() - w, (dsm.width() - w) / 2}) {
            expect_oracle_at_every_level(
                dsm, x0, 2, w, 4, opt,
                "width " + std::to_string(w) + " x0 " + std::to_string(x0));
        }
    }
}

TEST(HorizonKernels, CountersAreEqualAtEverySimdLevel) {
#ifdef PVFP_OBS_DISABLED
    GTEST_SKIP() << "telemetry compiled out";
#else
    const bool was_enabled = obs::enabled();
    SimdLevelGuard guard;
    const Raster dsm = test_dsms().front();
    HorizonOptions opt;
    opt.azimuth_sectors = 24;
    opt.max_distance = 10.0;
    const int w = dsm.width() - 3, h = dsm.height() - 2;
    std::vector<std::string> per_level;
    for (const SimdLevel level : runnable_levels()) {
        set_simd_level(level);
        obs::registry().reset_for_tests();
        obs::set_enabled(true);
        const HorizonMap map(dsm, 1, 1, w, h, opt);
        std::uint64_t cell_sectors = 0, atan2_calls = 0;
        for (const auto& [name, value] : obs::registry().snapshot().counters) {
            if (name == "geo.horizon.cell_sectors") cell_sectors = value;
            if (name == "geo.horizon.atan2_calls") atan2_calls = value;
        }
        EXPECT_EQ(cell_sectors,
                  static_cast<std::uint64_t>(w) * h * opt.azimuth_sectors);
        EXPECT_GT(atan2_calls, 0u);
        EXPECT_LT(atan2_calls, cell_sectors);
        per_level.push_back(std::to_string(cell_sectors) + "/" +
                            std::to_string(atan2_calls));
    }
    obs::registry().reset_for_tests();
    obs::set_enabled(was_enabled);
    for (const std::string& counts : per_level)
        EXPECT_EQ(counts, per_level.front());
#endif
}

TEST(HorizonKernels, SimdTwinsAreCompiledOnX86) {
#if defined(__x86_64__) || defined(__amd64__)
    EXPECT_TRUE(detail::horizon_avx2_compiled());
    EXPECT_TRUE(detail::horizon_avx512_compiled());
#else
    GTEST_SKIP() << "non-x86 host: twins delegate to scalar";
#endif
}

TEST(HorizonKernels, DegenerateMaxDistanceYieldsZeroHorizons) {
    // max_distance below one marching step: the march loop never runs,
    // every horizon is 0 and the sky is fully open.
    Raster dsm(12, 12, 1.0);
    dsm(6, 6) = 50.0;
    HorizonOptions opt;
    opt.azimuth_sectors = 8;
    opt.max_distance = 0.5 * dsm.cell_size() * opt.step_factor;
    const HorizonMap map(dsm, 0, 0, 12, 12, opt);
    for (int s = 0; s < opt.azimuth_sectors; ++s)
        for (int wy = 0; wy < 12; ++wy)
            for (int wx = 0; wx < 12; ++wx)
                ASSERT_EQ(map.horizon(wx, wy, s), 0.0);
    EXPECT_DOUBLE_EQ(map.sky_view_factor(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(map.sky_view_factor(7, 7), 1.0);
}

TEST(HorizonKernels, RejectsInvalidObserverAndNonFiniteOptions) {
    Raster dsm(8, 8, 1.0);
    HorizonOptions bad;
    bad.observer_offset = -0.1;
    EXPECT_THROW(HorizonMap(dsm, 0, 0, 4, 4, bad), InvalidArgument);
    EXPECT_THROW(horizon_map_reference(dsm, 0, 0, 4, 4, bad),
                 InvalidArgument);
    for (double* field : {&bad.max_distance, &bad.step_factor,
                          &bad.step_growth, &bad.max_step_factor,
                          &bad.observer_offset}) {
        bad = HorizonOptions{};
        *field = std::nan("");
        EXPECT_THROW(HorizonMap(dsm, 0, 0, 4, 4, bad), InvalidArgument);
    }
    bad = HorizonOptions{};
    bad.max_distance = std::numeric_limits<double>::infinity();
    EXPECT_THROW(HorizonMap(dsm, 0, 0, 4, 4, bad), InvalidArgument);
}

TEST(HorizonKernels, FromPlanesValidatesShapes) {
    EXPECT_THROW(
        HorizonMap::from_planes(0, 0, 2, 2, 4, std::vector<float>(15),
                                std::vector<float>(4)),
        InvalidArgument);
    EXPECT_THROW(
        HorizonMap::from_planes(0, 0, 2, 2, 4, std::vector<float>(16),
                                std::vector<float>(3)),
        InvalidArgument);
    const HorizonMap ok = HorizonMap::from_planes(
        1, 2, 2, 2, 4, std::vector<float>(16, 0.25f),
        std::vector<float>(4, 0.5f));
    EXPECT_EQ(ok.window_x0(), 1);
    EXPECT_EQ(ok.window_y0(), 2);
    EXPECT_DOUBLE_EQ(ok.horizon(1, 1, 3), 0.25f);
    EXPECT_DOUBLE_EQ(ok.sky_view_factor(0, 1), 0.5f);
}

// ---------------------------------------------------------------------
// Shared horizon cache (gis::HorizonCache)
// ---------------------------------------------------------------------

/// A 2x2-tile synthetic terrain written to disk: enough structure that
/// horizons are nonzero across tile seams.
struct TileFixture {
    std::string dir;
    double cell = 0.5;
    int tile_cells = 24;  // 12 m tiles

    explicit TileFixture(const std::string& name) {
        const fs::path p =
            fs::path(::testing::TempDir()) / ("pvfp_" + name);
        fs::remove_all(p);
        fs::create_directories(p);
        dir = p.string();

        SceneBuilder scene(24.0, 24.0);
        scene.add_building({4.0, 5.0, 3.0, 3.0, 6.0});
        scene.add_building({14.0, 13.0, 5.0, 2.0, 9.0});
        scene.add_building({11.0, 3.5, 1.5, 1.5, 12.0});
        const Raster world = scene.rasterize(cell);
        for (int ty = 0; ty < 2; ++ty) {
            for (int tx = 0; tx < 2; ++tx) {
                Raster tile(tile_cells, tile_cells, cell, 0.0,
                            world.origin_x() + tx * tile_cells * cell,
                            world.origin_y() - ty * tile_cells * cell);
                for (int y = 0; y < tile_cells; ++y)
                    for (int x = 0; x < tile_cells; ++x)
                        tile(x, y) = world(tx * tile_cells + x,
                                           ty * tile_cells + y);
                write_asc_grid_file(
                    tile, dir + "/tile_" + std::to_string(ty) +
                              std::to_string(tx) + ".asc");
            }
        }
    }
};

gis::HorizonCacheOptions cache_options(int macro_cells,
                                       std::size_t budget = 256u << 20) {
    gis::HorizonCacheOptions opt;
    opt.horizon.azimuth_sectors = 12;
    opt.horizon.max_distance = 9.0;
    opt.macro_cells = macro_cells;
    opt.byte_budget = budget;
    return opt;
}

/// Rebuild one macro tile exactly as the cache documents: halo mosaic,
/// minimum backfill, HorizonMap over the core window.
HorizonMap fresh_macro_map(const gis::TileIndex& tiles,
                           const gis::HorizonCacheOptions& opt, long mx,
                           long my) {
    const double cs = tiles.cell_size();
    const long M = opt.macro_cells;
    const double ax = tiles.extent().x0, ay = tiles.extent().y1;
    const gis::WorldRect core{ax + mx * M * cs, ay - (my + 1) * M * cs,
                              ax + (mx + 1) * M * cs, ay - my * M * cs};
    Raster mosaic = tiles.read_window(
        core.expanded(opt.horizon.max_distance + 2.0 * cs), nullptr);
    double ground = 0.0;
    bool any = false;
    for (const double v : mosaic.grid().data()) {
        if (v == mosaic.nodata()) continue;
        ground = any ? std::min(ground, v) : v;
        any = true;
    }
    for (int y = 0; y < mosaic.height(); ++y)
        for (int x = 0; x < mosaic.width(); ++x)
            if (mosaic(x, y) == mosaic.nodata()) mosaic(x, y) = ground;
    const int cx0 =
        static_cast<int>(std::llround((core.x0 - mosaic.origin_x()) / cs));
    const int cy0 =
        static_cast<int>(std::llround((mosaic.origin_y() - core.y1) / cs));
    return HorizonMap(mosaic, cx0, cy0, static_cast<int>(M),
                      static_cast<int>(M), opt.horizon);
}

void expect_window_matches_fresh(const gis::TileIndex& tiles,
                                 const gis::HorizonCacheOptions& opt,
                                 const HorizonMap& window, long gx0,
                                 long gy0) {
    const long M = opt.macro_cells;
    std::map<std::pair<long, long>, std::unique_ptr<HorizonMap>> fresh;
    long angle_mismatch = 0, svf_mismatch = 0;
    bool nonzero = false;
    const int w = window.window_width(), h = window.window_height();
    for (int wy = 0; wy < h; ++wy) {
        for (int wx = 0; wx < w; ++wx) {
            const long gx = gx0 + wx, gy = gy0 + wy;
            const long mx = gx / M, my = gy / M;
            auto& fm = fresh[{mx, my}];
            if (!fm)
                fm = std::make_unique<HorizonMap>(
                    fresh_macro_map(tiles, opt, mx, my));
            const int fx = static_cast<int>(gx - mx * M);
            const int fy = static_cast<int>(gy - my * M);
            for (int s = 0; s < window.sectors(); ++s) {
                const float a = window.angles_data()
                    [static_cast<std::size_t>(s) * w * h +
                     static_cast<std::size_t>(wy) * w + wx];
                const float b = fm->angles_data()
                    [static_cast<std::size_t>(s) * M * M +
                     static_cast<std::size_t>(fy) * M + fx];
                if (std::memcmp(&a, &b, sizeof a) != 0) ++angle_mismatch;
                if (a != 0.0f) nonzero = true;
            }
            const float sa =
                window.svf_data()[static_cast<std::size_t>(wy) * w + wx];
            const float sb =
                fm->svf_data()[static_cast<std::size_t>(fy) * M + fx];
            if (std::memcmp(&sa, &sb, sizeof sa) != 0) ++svf_mismatch;
        }
    }
    EXPECT_EQ(angle_mismatch, 0);
    EXPECT_EQ(svf_mismatch, 0);
    EXPECT_TRUE(nonzero) << "window saw no obstruction: vacuous test";
}

TEST(HorizonCache, WindowMatchesFreshMacroMapsBitwise) {
    const TileFixture fx("hcache_identity");
    const gis::TileIndex tiles = gis::TileIndex::scan(fx.dir);
    gis::TileCache tile_cache(8);
    const gis::HorizonCacheOptions opt = cache_options(/*macro_cells=*/20);
    gis::HorizonCache cache(tiles, &tile_cache, opt);

    const double cs = tiles.cell_size();
    const double ax = tiles.extent().x0, ay = tiles.extent().y1;
    // Crosses all four macro tiles of the 48-cell lattice.
    const long gx0 = 9, gy0 = 13;
    const int w = 30, h = 25;
    const HorizonMap window =
        cache.window(ax + gx0 * cs, ay - gy0 * cs, 3, 4, w, h);
    EXPECT_EQ(window.window_x0(), 3);
    EXPECT_EQ(window.window_y0(), 4);
    expect_window_matches_fresh(tiles, opt, window, gx0, gy0);

    // Second request: served resident, byte-identical.
    const HorizonMap again =
        cache.window(ax + gx0 * cs, ay - gy0 * cs, 3, 4, w, h);
    expect_bitwise_equal(window, again, "resident re-request");
    const gis::HorizonCacheStats stats = cache.stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.misses, 0u);
    EXPECT_GT(stats.bytes, 0u);

    // Off-lattice origins are rejected.
    EXPECT_THROW(cache.window(ax + 0.3 * cs, ay, 0, 0, 4, 4),
                 InvalidArgument);
}

TEST(HorizonCache, EvictedEntriesRebuildIdentically) {
    const TileFixture fx("hcache_evict");
    const gis::TileIndex tiles = gis::TileIndex::scan(fx.dir);
    gis::TileCache tile_cache(8);
    // Budget of one macro entry: planes = (sectors + 1) * M^2 floats.
    const gis::HorizonCacheOptions opt =
        cache_options(/*macro_cells=*/16, /*budget=*/13 * 16 * 16 * 4);
    gis::HorizonCache cache(tiles, &tile_cache, opt);

    const double cs = tiles.cell_size();
    const double ax = tiles.extent().x0, ay = tiles.extent().y1;
    const auto window_at = [&](long gx0, long gy0) {
        return cache.window(ax + gx0 * cs, ay - gy0 * cs, 0, 0, 12, 12);
    };
    const HorizonMap first = window_at(2, 2);
    window_at(20, 20);  // different macro tiles: evicts the first
    EXPECT_GT(cache.stats().evictions, 0u);
    const HorizonMap rebuilt = window_at(2, 2);
    expect_bitwise_equal(first, rebuilt, "post-eviction rebuild");
    EXPECT_LE(cache.bytes_used(), opt.byte_budget);

    cache.shrink_to(0);
    EXPECT_EQ(cache.bytes_used(), 0u);
    const HorizonMap again = window_at(2, 2);
    expect_bitwise_equal(first, again, "post-shrink rebuild");
}

TEST(HorizonCache, ConcurrentRequestsDedupAndAgree) {
    const TileFixture fx("hcache_mt");
    const gis::TileIndex tiles = gis::TileIndex::scan(fx.dir);
    gis::TileCache tile_cache(8);
    gis::HorizonCache cache(tiles, &tile_cache,
                            cache_options(/*macro_cells=*/20));

    const double cs = tiles.cell_size();
    const double ax = tiles.extent().x0, ay = tiles.extent().y1;
    constexpr int kThreads = 8;
    std::vector<std::unique_ptr<HorizonMap>> maps(kThreads);
    std::atomic<int> failures{0};
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int i = 0; i < kThreads; ++i) {
            threads.emplace_back([&, i] {
                try {
                    // All threads hit the same macro tiles; half through
                    // one window, half through a shifted one.
                    const long gx0 = (i % 2) ? 8 : 12;
                    maps[static_cast<std::size_t>(i)] =
                        std::make_unique<HorizonMap>(cache.window(
                            ax + gx0 * cs, ay - 10 * cs, 0, 0, 16, 16));
                } catch (...) {
                    failures.fetch_add(1);
                }
            });
        }
        for (std::thread& t : threads) t.join();
    }
    ASSERT_EQ(failures.load(), 0);
    for (int i = 2; i < kThreads; i += 2)
        expect_bitwise_equal(*maps[0], *maps[static_cast<std::size_t>(i)],
                             "concurrent same-window");
    for (int i = 3; i < kThreads; i += 2)
        expect_bitwise_equal(*maps[1], *maps[static_cast<std::size_t>(i)],
                             "concurrent shifted-window");
    const gis::HorizonCacheStats stats = cache.stats();
    // Both windows span the same 2x2 block of macro tiles; each macro
    // tile is built exactly once across all 8 threads — everything else
    // is served resident or joins the in-flight build.
    EXPECT_LE(stats.misses, 4u);
    EXPECT_GT(stats.hits + stats.joins, 0u);
}

}  // namespace
}  // namespace pvfp::geo
