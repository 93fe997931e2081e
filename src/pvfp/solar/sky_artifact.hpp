#pragma once
/// \file sky_artifact.hpp
/// The shared per-site sky precompute (ROADMAP "shared-weather
/// batching" and "one copy of the step planes per site").
///
/// Everything the irradiance field derives *per time step* from the
/// weather trace and the site — sun position, the sun unit vector, the
/// normal-equivalent beam magnitude, the isotropic share of the diffuse
/// and the horizon-sector interpolation of the sun azimuth — depends only
/// on (location, time grid, env series, sky model, horizon sector count).
/// None of it depends on the roof.  A batch of thousands of roofs at one
/// site therefore pays that ~35k-step trigonometry exactly once by
/// preparing a SharedSkyArtifact up front and handing it (immutably, by
/// shared_ptr) to every IrradianceField it builds.
///
/// What the artifact owns:
///  - the validated env series and the full-precision (double) per-step
///    series the physics is computed in;
///  - SkyStepPlanes: the float step planes the irradiance kernels read
///    (beam, air temperature, sun angles and vector, the two bracketing
///    horizon-sector indices and the lerp fraction), their
///    daylight-packed twins and the step <-> packed index maps.  These
///    are built eagerly for one horizon sector count and shared by every
///    roof field, which keeps only its two tilt-dependent planes (sky
///    diffuse, ground reflected) and their packed twins.
///
/// The artifact path is *bitwise identical* to the self-contained
/// IrradianceField constructor, which simply prepares a private artifact
/// for its own sector count: one implementation to trust.

#include <cstdint>
#include <memory>
#include <vector>

#include "pvfp/geo/horizon.hpp"
#include "pvfp/solar/sunpos.hpp"
#include "pvfp/solar/transposition.hpp"
#include "pvfp/util/timegrid.hpp"

namespace pvfp::solar {

/// One time step of weather on the horizontal plane, as produced by the
/// weather substrate (synthetic generator or station CSV import).
struct EnvSample {
    double ghi = 0.0;         ///< global horizontal irradiance [W/m^2]
    double dni = 0.0;         ///< beam normal irradiance [W/m^2]
    double dhi = 0.0;         ///< diffuse horizontal irradiance [W/m^2]
    double temp_air_c = 20.0; ///< ambient air temperature [deg C]
};

/// Roof-independent float step planes read by the irradiance kernels
/// (solar/irradiance_kernels.hpp), rounded from the artifact's double
/// series.  Built for one horizon sector count: the bracketing sector
/// indices of each step's sun azimuth replicate
/// geo::HorizonMap::horizon_at_unchecked bit for bit, and a field
/// multiplies them by its window's cell count to address its angle
/// planes.
struct SkyStepPlanes {
    /// Horizon sector count the sector indices below are built for.
    int sectors = 0;
    // Step-indexed planes (one entry per grid step).  beam_eq is the
    // beam(+circumsolar) normal-equivalent magnitude [W/m^2], zero
    // where the step has no irradiance input.
    std::vector<float> beam_eq;
    std::vector<float> temp_air;
    std::vector<float> sun_azimuth;
    std::vector<float> sun_elevation;
    /// Sun unit vector (east, north, up).
    std::vector<float> sun_e;
    std::vector<float> sun_n;
    std::vector<float> sun_u;
    /// Horizon sectors bracketing the (float) sun azimuth and the
    /// interpolation fraction between them.
    std::vector<std::int32_t> hor_sec0;
    std::vector<std::int32_t> hor_sec1;
    std::vector<double> hor_frac;
    // Daylight-packed twins: bitwise copies of the planes above over
    // daylight steps only, in step order.
    std::vector<float> p_beam_eq;
    std::vector<float> p_sun_elevation;
    std::vector<float> p_sun_e;
    std::vector<float> p_sun_n;
    std::vector<float> p_sun_u;
    std::vector<std::int32_t> p_hor_sec0;
    std::vector<std::int32_t> p_hor_sec1;
    std::vector<double> p_hor_frac;
    /// Original step of each packed index (ascending).
    std::vector<long> packed_to_step;
    /// Packed index of each step, -1 on night steps.
    std::vector<long> step_to_packed;
};

/// Roof-independent per-step sky state: env series, sun positions, the
/// transposition terms that do not involve the roof plane, and the
/// float step planes built from them.  Prepared once per (location,
/// grid, env, sky model, sector count) and consumed immutably by any
/// number of IrradianceFields.
struct SharedSkyArtifact {
    Location location;
    pvfp::TimeGrid grid{};
    SkyModel sky_model = SkyModel::HayDavies;
    /// The validated env series (one sample per grid step).
    std::vector<EnvSample> env;

    // Per-step precompute, all full precision (the step planes round
    // these to float).
    std::vector<double> sun_azimuth;    ///< [rad], clockwise from North
    std::vector<double> sun_elevation;  ///< [rad]
    std::vector<std::uint8_t> daylight; ///< sun above horizon
    /// Sun unit vector (east, north, up).
    std::vector<double> sun_e;
    std::vector<double> sun_n;
    std::vector<double> sun_u;
    /// Normal-equivalent beam magnitude [W/m^2]: DNI plus, under
    /// Hay-Davies, the circumsolar share of the diffuse (horizon-guarded
    /// exactly like the transposition model).
    std::vector<double> beam_eq;
    /// Isotropic share of DHI [W/m^2] (DHI minus the circumsolar share
    /// under Hay-Davies; DHI itself under the isotropic model).  The
    /// per-roof in-plane sky diffuse is dhi_iso * (1 + cos(tilt)) / 2.
    std::vector<double> dhi_iso;

    /// The kernels' float step planes, shared by every roof field.
    SkyStepPlanes planes;

    long steps() const { return static_cast<long>(env.size()); }
};

/// Prepare the artifact: validates \p env (size and non-negativity) and
/// \p azimuth_sectors (>= 4, as geo::HorizonMap requires), runs the
/// per-step sun-position + transposition precompute over the
/// deterministic parallel substrate (fixed chunks — same bits at any
/// thread count) with per-day ephemeris constants hoisted (association
/// preserved), then builds the step planes for \p azimuth_sectors.
/// Fields whose horizon map has another sector count reject the
/// artifact.  tests/oracles/sky_reference pins every series and plane
/// against the unbatched per-step loop bit for bit.
SharedSkyArtifact prepare_sky_artifact(
    const Location& location, const pvfp::TimeGrid& grid,
    std::vector<EnvSample> env, SkyModel sky_model,
    int azimuth_sectors = geo::HorizonOptions{}.azimuth_sectors);

/// Convenience overload returning a shared handle ready to hand to many
/// fields/scenarios.
std::shared_ptr<const SharedSkyArtifact> make_shared_sky(
    const Location& location, const pvfp::TimeGrid& grid,
    std::vector<EnvSample> env, SkyModel sky_model,
    int azimuth_sectors = geo::HorizonOptions{}.azimuth_sectors);

}  // namespace pvfp::solar
