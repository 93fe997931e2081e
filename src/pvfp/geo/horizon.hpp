#pragma once
/// \file horizon.hpp
/// Per-cell horizon maps over a DSM window: the core of the shadow engine.
///
/// For every cell of a rectangular window the builder ray-marches the DSM
/// in a fixed number of azimuth sectors and records the maximum elevation
/// angle of terrain/obstacles in each direction (the "horizon").  A cell is
/// in shadow at time t iff the sun's elevation is below the horizon at the
/// sun's azimuth — an O(1) test per (cell, time), which makes a full-year
/// 15-minute simulation over ~10^4 cells tractable (the paper's
/// infrastructure does the equivalent with GRASS-style shadow maps).
///
/// The same horizon data yields the sky-view factor used to attenuate
/// diffuse irradiance for cells next to obstructions.

#include <functional>
#include <optional>
#include <vector>

#include "pvfp/geo/raster.hpp"

namespace pvfp::geo {

/// Parameters for horizon construction.
struct HorizonOptions {
    /// Number of azimuth sectors (evenly spaced over 360 deg).
    int azimuth_sectors = 72;
    /// Maximum marching distance [m]; obstructions further away are
    /// ignored (an 80 m radius covers multi-story neighbors at low sun).
    double max_distance = 80.0;
    /// Initial marching step as a fraction of the raster cell size.
    double step_factor = 1.0;
    /// Geometric growth of the step with distance (1.0 = uniform steps).
    /// Mild growth trades negligible angular error for a large speedup.
    double step_growth = 1.03;
    /// Cap on the step as a multiple of the cell size, so that growth
    /// never steps over thin obstacles (a 2-cell-wide wall is always
    /// sampled at least once with the default cap of 2).
    double max_step_factor = 2.0;
    /// Observer height above the DSM surface [m]; a small positive value
    /// prevents a cell from shading itself through raster quantization.
    double observer_offset = 0.05;
};

/// A rectangular window of cells for which horizons were computed.
class HorizonMap {
public:
    /// Build horizons for the window with top-left cell (x0, y0) and size
    /// win_w x win_h (in cells) of \p dsm.  The whole raster participates
    /// as potential obstruction.  The window must lie inside the raster.
    /// Runs the batched row-march kernels (geo/horizon_kernels.hpp),
    /// bitwise-identical to the per-cell oracle horizon_map_reference().
    HorizonMap(const Raster& dsm, int x0, int y0, int win_w, int win_h,
               const HorizonOptions& options = {});

    /// Assemble a map from precomputed planes: \p angles is sector-major
    /// (sectors * win_w * win_h floats, see angles_data()), \p svf is
    /// row-major (win_w * win_h floats).  Used by the shared horizon
    /// cache (gis/horizon_cache) to hand out window views into cached
    /// macro-tile planes, and by the reference builder.
    static HorizonMap from_planes(int x0, int y0, int win_w, int win_h,
                                  int sectors, std::vector<float> angles,
                                  std::vector<float> svf);

    int window_x0() const { return x0_; }
    int window_y0() const { return y0_; }
    int window_width() const { return win_w_; }
    int window_height() const { return win_h_; }
    int sectors() const { return sectors_; }

    /// Horizon elevation angle [rad] for window cell (wx, wy) (relative to
    /// the window origin) in sector \p s.
    double horizon(int wx, int wy, int s) const;

    /// Horizon elevation [rad] at an arbitrary azimuth [rad, clockwise from
    /// North], linearly interpolated between adjacent sectors.
    double horizon_at(int wx, int wy, double azimuth_rad) const;

    /// True when the sun at (azimuth, elevation) [rad] does not reach the
    /// cell: elevation below the interpolated horizon (or below 0).
    bool is_shaded(int wx, int wy, double azimuth_rad,
                   double elevation_rad) const;

    /// Isotropic sky-view factor of the cell in [0,1]:
    /// SVF = mean over sectors of cos^2(horizon).
    double sky_view_factor(int wx, int wy) const;

    /// Unchecked fast paths of horizon_at / is_shaded / sky_view_factor
    /// for inner loops whose cell domain is validated once at the
    /// boundary (the irradiance field).  Precondition (debug-asserted):
    /// (wx, wy) inside the window.
    double horizon_at_unchecked(int wx, int wy, double azimuth_rad) const;
    bool is_shaded_unchecked(int wx, int wy, double azimuth_rad,
                             double elevation_rad) const;
    double sky_view_factor_unchecked(int wx, int wy) const;

    /// Number of window cells (= width * height): the stride between two
    /// consecutive sector planes of angles_data().
    long cell_count() const {
        return static_cast<long>(win_w_) * win_h_;
    }

    /// Raw horizon storage for the batched irradiance kernels.  Layout is
    /// *sector-major* (structure-of-arrays): plane s is cell_count()
    /// consecutive floats, one per window cell in row-major order, so the
    /// angle of cell (wx, wy) in sector s sits at
    /// angles_data()[s * cell_count() + wy * window_width() + wx].  A
    /// fixed time step pins (s0, s1, frac) of the horizon interpolation,
    /// turning a row sweep into two unit-stride plane loads.
    const float* angles_data() const { return angles_.data(); }

    /// Raw per-cell sky-view factors, row-major over the window.
    const float* svf_data() const { return svf_.data(); }

private:
    HorizonMap() = default;

    std::size_t cell_index(int wx, int wy) const;

    int x0_ = 0;
    int y0_ = 0;
    int win_w_ = 0;
    int win_h_ = 0;
    int sectors_ = 0;
    /// Sector-major horizon angles [rad]: see angles_data().
    std::vector<float> angles_;
    std::vector<float> svf_;
};

/// A shared horizon source: the HorizonMap of the window (\p x0, \p y0,
/// \p w, \p h) of \p dsm, or std::nullopt to march it locally (see
/// core::ScenarioConfig::horizon_provider).
using HorizonProvider = std::function<std::optional<HorizonMap>(
    const Raster& dsm, int x0, int y0, int w, int h,
    const HorizonOptions& options)>;

/// Retained per-cell reference builder: marches every (cell, sector) with
/// the original scalar loop.  The differential oracle the batched kernels
/// are pinned against (tests/geo/test_horizon_kernels) — bitwise equal to
/// the HorizonMap ctor at every SIMD level.
HorizonMap horizon_map_reference(const Raster& dsm, int x0, int y0,
                                 int win_w, int win_h,
                                 const HorizonOptions& options = {});

/// Reference implementation: march the DSM directly for a single cell and
/// azimuth with *uniform* steps; used by tests to validate HorizonMap and
/// by the brute-force shadow raster.
double brute_force_horizon(const Raster& dsm, int x, int y,
                           double azimuth_rad,
                           const HorizonOptions& options = {});

}  // namespace pvfp::geo
