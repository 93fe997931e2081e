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
///  - the validated env series, the per-step daylight flags and the
///    isotropic diffuse share (double), from which each roof field
///    derives its two tilt-dependent planes (sky diffuse, ground
///    reflected);
///  - SkyStepPlanes: every other step plane the irradiance kernels read
///    (beam, air temperature, sun angles and vector, the two bracketing
///    horizon-sector indices and the lerp fraction), built eagerly for
///    one horizon sector count and shared by every roof field.
///
/// The sun position and beam magnitude are computed in double precision
/// and rounded straight into their float planes; the doubles live only
/// in the prepare's per-chunk scratch.
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
/// (solar/irradiance_kernels.hpp), rounded from the prepare's double
/// per-step values.  Built for one horizon sector count: the bracketing
/// sector indices of each step's sun azimuth replicate
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
};

/// Roof-independent per-step sky state: env series, daylight flags, the
/// isotropic diffuse share, and the float step planes of the sun
/// position and beam.  Prepared once per (location, grid, env, sky
/// model, sector count) and consumed immutably by any number of
/// IrradianceFields.
struct SharedSkyArtifact {
    Location location;
    pvfp::TimeGrid grid{};
    SkyModel sky_model = SkyModel::HayDavies;
    /// The validated env series (one sample per grid step).
    std::vector<EnvSample> env;
    /// Sun above the horizon, from the double elevation (el > 0).
    std::vector<std::uint8_t> daylight;
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
/// preserved), rounding each step into the step planes for
/// \p azimuth_sectors in the same chunk.  Fields whose horizon map has
/// another sector count reject the artifact.  tests/oracles/sky_reference
/// pins every series and plane against the unbatched per-step loop bit
/// for bit.
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
