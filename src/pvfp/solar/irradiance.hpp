#pragma once
/// \file irradiance.hpp
/// The spatio-temporal irradiance/temperature field G[i,j,t], T[i,j,t] of
/// paper Section III-A, evaluated lazily.
///
/// Storing the full matrices for ~12,000 cells x 35,040 steps would take
/// gigabytes; instead the field factorizes exactly the way the physics
/// does:
///
///   G(cell, t) = visible(cell, t) * beam_plane(t)
///              + svf(cell) * sky_diffuse_plane(t)
///              + ground_reflected_plane(t)
///
/// where the three plane terms depend only on t (one transposition per
/// step, the roof plane is uniform) and the two cell factors come from the
/// horizon map (O(1) per query).  Module temperature follows the paper's
/// Tact = Tair + k*G with k = alpha/h_c (Section III-B1, [12][13]).
///
/// Per-step state is stored as structure-of-arrays planes (one
/// contiguous array per physical quantity) and the horizon interpolation
/// weights (sector pair + fraction, fixed per step) are precomputed, so
/// the two batched entry points — cell_irradiance_row (fixed step, span
/// of cells) and cell_irradiance_series (fixed cell, span of steps) —
/// run as branch-free SIMD-friendly loops.  Both are *bitwise identical*
/// to the scalar cell_irradiance_unchecked per cell, at any SIMD level
/// (see util/simd.hpp for the dispatch contract).  The row kernel has
/// AVX2 / AVX-512 tiers and carries the hot sweeps (suitability and
/// floorplan evaluation run step-major over row runs); the gathered
/// series kernel is scalar only.
///
/// Memory model.  Every step plane except the two tilt-dependent ones
/// belongs to the site: beam, air temperature, sun angles and vector,
/// daylight flags, the horizon-sector indices and lerp fraction live
/// once in the SharedSkyArtifact (SkyStepPlanes), which every field
/// built on it references by shared_ptr.  A field owns only its
/// window's horizon and normal planes plus the in-plane sky-diffuse and
/// ground-reflected planes: 8 bytes per step, about 0.84 MB on a
/// 5-minute year.  The kernels address a cell's horizon angles as
/// sector index x the window's cell count + cell, formed in int32 per
/// step, the same offsets a per-field offset plane would hold.

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pvfp/geo/horizon.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/solar/sky_artifact.hpp"
#include "pvfp/solar/sunpos.hpp"
#include "pvfp/solar/transposition.hpp"
#include "pvfp/util/timegrid.hpp"

namespace pvfp::solar {

/// Static configuration of the field.
struct FieldConfig {
    Location location;
    SkyModel sky_model = SkyModel::HayDavies;
    /// Ground albedo for the reflected component.
    double albedo = 0.2;
    /// Temperature coupling k = alpha/h_c [K m^2 / W]: Tact = Tair + k*G.
    /// Default alpha=0.5, h_c=15 W/(K m^2) -> 1/30, i.e. +33 K at STC
    /// irradiance, consistent with NOCT-class modules (paper Sec III-B1).
    double thermal_k = 1.0 / 30.0;
};

namespace detail {

/// Raw pointer view of the field's SoA planes, consumed by the scalar
/// and SIMD batch kernels (irradiance_kernels.hpp).  Pointers stay valid
/// for the lifetime of the owning IrradianceField.
struct FieldView {
    // Step-indexed planes (one entry per time step).  All but
    // sky_diffuse and reflected are the site's shared SkyStepPlanes.
    const float* beam_eq = nullptr;
    const float* sky_diffuse = nullptr;
    const float* reflected = nullptr;
    const float* sun_elevation = nullptr;
    const float* sun_e = nullptr;
    const float* sun_n = nullptr;
    const float* sun_u = nullptr;
    /// Horizon interpolation per step: the two sectors bracketing the
    /// sun azimuth and the interpolation fraction.  A sector's angle
    /// plane starts at angles + sector * cells.
    const std::int32_t* hor_sec0 = nullptr;
    const std::int32_t* hor_sec1 = nullptr;
    const double* hor_frac = nullptr;
    // Cell-indexed planes (row-major over the window).
    const float* angles = nullptr;  ///< sector-major horizon planes
    const float* svf = nullptr;
    const float* norm_e = nullptr;  ///< nullptr => uniform plane normal
    const float* norm_n = nullptr;
    const float* norm_u = nullptr;
    // Uniform plane normal (east, north, up).
    double plane_e = 0.0;
    double plane_n = 0.0;
    double plane_u = 1.0;
    int width = 0;  ///< window width: row stride of the cell planes
    /// Window cell count: the stride between sector angle planes.
    std::int32_t cells = 0;
};

}  // namespace detail

/// Lazily-evaluated per-cell irradiance and module temperature over a
/// placement-area window (the HorizonMap's window).
class IrradianceField {
public:
    /// \p horizon: per-cell horizons for the placement window (moved in).
    /// \p env: one sample per TimeGrid step (size must match).
    /// \p tilt_rad / \p azimuth_rad: roof plane orientation.
    /// \p normals: optional per-cell surface normals (same window); when
    /// empty, every cell uses the uniform plane normal.  Per-cell normals
    /// make the beam term respond to DSM surface structure — the
    /// fine-grain G variance of the paper's Fig. 6(b).
    IrradianceField(geo::HorizonMap horizon, std::vector<EnvSample> env,
                    const pvfp::TimeGrid& grid, double tilt_rad,
                    double azimuth_rad, const FieldConfig& config = {},
                    geo::NormalMap normals = {});

    /// Shared-sky constructor (ROADMAP "shared-weather batching"): build
    /// from a SharedSkyArtifact prepared once per site instead of a
    /// private env series, and read its step planes in place.  The time
    /// grid comes from the artifact; \p config.location and
    /// \p config.sky_model must match the artifact's exactly, and the
    /// artifact must be built for horizon.sectors() sectors (all
    /// checked: the precomputed sun positions, circumsolar split and
    /// sector indices embed them).  Bitwise identical to the
    /// self-contained constructor above for the same inputs, which
    /// prepares a private artifact for its horizon's sector count.
    IrradianceField(geo::HorizonMap horizon,
                    std::shared_ptr<const SharedSkyArtifact> sky,
                    double tilt_rad, double azimuth_rad,
                    const FieldConfig& config = {},
                    geo::NormalMap normals = {});

    int width() const { return horizon_.window_width(); }
    int height() const { return horizon_.window_height(); }
    long steps() const { return sky_->steps(); }
    const pvfp::TimeGrid& time_grid() const { return sky_->grid; }
    const FieldConfig& config() const { return config_; }
    double tilt_rad() const { return tilt_rad_; }
    double azimuth_rad() const { return azimuth_rad_; }
    const geo::HorizonMap& horizon() const { return horizon_; }

    /// True when the sun is above the horizon at step \p s.
    bool is_daylight(long s) const {
        check_step(s);
        return sky_->daylight[static_cast<std::size_t>(s)] != 0;
    }

    /// Sun position at step \p s.
    SunPosition sun(long s) const {
        check_step(s);
        const std::size_t si = static_cast<std::size_t>(s);
        return SunPosition{sky_->planes.sun_azimuth[si],
                           sky_->planes.sun_elevation[si]};
    }

    /// Ambient air temperature [deg C] at step \p s.
    double air_temperature(long s) const {
        check_step(s);
        return sky_->planes.temp_air[static_cast<std::size_t>(s)];
    }

    /// Plane-of-array irradiance [W/m^2] at cell (x,y) (window-local
    /// coordinates) and step \p s, including shading.  Validates the
    /// cell and step (throws InvalidArgument).
    double cell_irradiance(int x, int y, long s) const;

    /// Unchecked fast path of cell_irradiance for inner loops that have
    /// already validated their iteration domain once at the boundary
    /// (the evaluator).  Precondition (debug-asserted): cell inside the
    /// window and 0 <= s < steps().
    double cell_irradiance_unchecked(int x, int y, long s) const;

    /// Batched row kernel: out[i] = cell_irradiance of cell (x0+i, y) at
    /// step \p s for i in [0, x1-x0).  Bitwise identical to calling
    /// cell_irradiance_unchecked per cell, at any SIMD level; validates
    /// the row, span, and step once (throws InvalidArgument).  This is
    /// the fixed-step path of the Fig. 6 maps and the footprint modes of
    /// anchor_irradiance_unchecked; compute_suitability and
    /// evaluate_floorplan call the same dispatched kernel
    /// (detail::row_kernel) directly per row run.
    void cell_irradiance_row(int y, long s, int x0, int x1,
                             double* out) const;

    /// Batched series kernel: out[k] = cell_irradiance of cell (x, y) at
    /// steps[k].  Bitwise identical to the scalar loop at any SIMD
    /// level; validates the cell and every step once (throws
    /// InvalidArgument).  This is the fixed-cell path of the
    /// IncrementalEvaluator's per-anchor series build.  It runs the
    /// scalar kernel at every SIMD level.
    void cell_irradiance_series(int x, int y, std::span<const long> steps,
                                double* out) const;

    /// Unchecked fast path of cell_irradiance_series for callers that
    /// validated the cell and step span once at their own boundary
    /// (anchor_irradiance_series sweeping a footprint for the
    /// IncrementalEvaluator and ideal_anchor_energies).
    /// Preconditions (debug-asserted): cell inside the window, every
    /// steps[k] in [0, steps()).
    void cell_irradiance_series_unchecked(int x, int y,
                                          std::span<const long> steps,
                                          double* out) const;

    /// Module temperature [deg C] at the cell: Tair + k * G.
    double cell_module_temperature(int x, int y, long s) const;

    /// Unshaded plane-of-array irradiance at step \p s (diagnostics: what a
    /// horizon-free cell with SVF=1 would receive).
    double plane_irradiance_unshaded(long s) const;

    /// Yearly unshaded plane-of-array insolation [kWh/m^2] (diagnostics).
    double unshaded_insolation_kwh_m2() const;

    /// Raw SoA plane view consumed by the batched kernels
    /// (irradiance_kernels.hpp).  Internal surface, exposed for the
    /// kernel micro-benchmarks and differential tests; pointers are
    /// invalidated by destroying the field.
    detail::FieldView view() const;

private:
    /// Shared tail of both constructors: validate the artifact against
    /// the config and the window, and build the per-roof planes.
    void init(std::shared_ptr<const SharedSkyArtifact> sky);

    /// Validating step guard backing the public per-step methods.
    void check_step(long s) const {
        check_arg(s >= 0 && s < steps(),
                  "IrradianceField: step out of range");
    }

    geo::HorizonMap horizon_;
    double tilt_rad_;
    double azimuth_rad_;
    FieldConfig config_;
    geo::NormalMap normals_;  ///< empty => uniform plane normal
    bool has_normals_ = false;
    /// Uniform plane normal (east, north, up).
    double plane_e_ = 0.0;
    double plane_n_ = 0.0;
    double plane_u_ = 1.0;

    /// The site's step planes (shared, immutable).
    std::shared_ptr<const SharedSkyArtifact> sky_;
    /// The only tilt-dependent step planes: isotropic sky diffuse and
    /// ground-reflected irradiance in the roof plane.
    std::vector<float> sky_diffuse_;
    std::vector<float> reflected_;
};

}  // namespace pvfp::solar
