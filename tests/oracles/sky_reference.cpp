#include "oracles/sky_reference.hpp"

#include <algorithm>
#include <cmath>

#include "pvfp/util/error.hpp"
#include "pvfp/util/math.hpp"

namespace pvfp::oracles {

solar::SharedSkyArtifact prepare_sky_artifact_reference(
    const solar::Location& location, const pvfp::TimeGrid& grid,
    std::vector<solar::EnvSample> env, solar::SkyModel sky_model,
    int azimuth_sectors) {
    check_arg(static_cast<long>(env.size()) == grid.total_steps(),
              "prepare_sky_artifact: env series length != time grid steps");
    for (const solar::EnvSample& e : env) {
        check_arg(e.ghi >= 0.0 && e.dni >= 0.0 && e.dhi >= 0.0,
                  "prepare_sky_artifact: negative irradiance in env series");
    }
    check_arg(azimuth_sectors >= 4,
              "prepare_sky_artifact: need at least 4 azimuth sectors");

    solar::SharedSkyArtifact sky;
    sky.location = location;
    sky.grid = grid;
    sky.sky_model = sky_model;
    sky.env = std::move(env);
    const std::size_t n = sky.env.size();
    sky.sun_azimuth.resize(n);
    sky.sun_elevation.resize(n);
    sky.daylight.resize(n);
    sky.sun_e.resize(n);
    sky.sun_n.resize(n);
    sky.sun_u.resize(n);
    sky.beam_eq.resize(n);
    sky.dhi_iso.resize(n);
    const bool hay = sky_model == solar::SkyModel::HayDavies;

    // Per-step precompute: sun position + roof-independent
    // transposition terms, one step at a time.
    for (long s = 0; s < grid.total_steps(); ++s) {
        const std::size_t si = static_cast<std::size_t>(s);
        const solar::EnvSample& e = sky.env[si];
        const int doy = grid.day_of_year(s);
        const double hour = grid.hour_of_day(s);
        const solar::SunPosition sun =
            solar::sun_position(location, doy, hour);
        const bool daylight = sun.elevation_rad > 0.0;
        sky.sun_azimuth[si] = sun.azimuth_rad;
        sky.sun_elevation[si] = sun.elevation_rad;
        sky.daylight[si] = daylight ? 1 : 0;
        const double cos_el = std::cos(sun.elevation_rad);
        sky.sun_e[si] = cos_el * std::sin(sun.azimuth_rad);
        sky.sun_n[si] = cos_el * std::cos(sun.azimuth_rad);
        sky.sun_u[si] = std::sin(sun.elevation_rad);

        double beam_eq = 0.0;
        double dhi_iso = 0.0;
        if (e.ghi > 0.0 || e.dhi > 0.0) {
            // Extraterrestrial normal irradiance feeds both the
            // circumsolar share and the isotropic split under Hay-Davies.
            double a = 0.0;
            if (hay) {
                a = std::clamp(
                    e.dni / solar::extraterrestrial_normal_irradiance(doy),
                    0.0, 1.0);
            }
            // Normal-equivalent beam magnitude: DNI plus, for Hay-Davies,
            // the circumsolar share of the diffuse (guarded near the
            // horizon exactly like the transposition model).
            if (daylight) {
                beam_eq = e.dni;
                if (hay && e.dhi > 0.0) {
                    const double sin_el_guard =
                        std::max(std::sin(sun.elevation_rad), 0.01745);
                    beam_eq += e.dhi * a / sin_el_guard;
                }
            }
            dhi_iso = e.dhi;
            if (hay) dhi_iso = e.dhi * (1.0 - (daylight ? a : 0.0));
        }
        sky.beam_eq[si] = beam_eq;
        sky.dhi_iso[si] = dhi_iso;
    }

    // Float step planes and horizon-sector weights, as each field
    // computed them inline.
    solar::SkyStepPlanes& p = sky.planes;
    p.sectors = azimuth_sectors;
    p.step_to_packed.assign(n, -1);
    for (std::size_t si = 0; si < n; ++si) {
        const solar::EnvSample& e = sky.env[si];
        const float azimuth = static_cast<float>(sky.sun_azimuth[si]);
        const float elevation = static_cast<float>(sky.sun_elevation[si]);
        const float sun_e = static_cast<float>(sky.sun_e[si]);
        const float sun_n = static_cast<float>(sky.sun_n[si]);
        const float sun_u = static_cast<float>(sky.sun_u[si]);
        float beam_eq = 0.0f;
        if (e.ghi > 0.0 || e.dhi > 0.0)
            beam_eq = static_cast<float>(sky.beam_eq[si]);
        const double pos = wrap_two_pi(static_cast<double>(azimuth)) /
                           kTwoPi * azimuth_sectors;
        const int s0 = static_cast<int>(pos) % azimuth_sectors;
        const int s1 = (s0 + 1) % azimuth_sectors;
        const double frac = pos - std::floor(pos);

        p.beam_eq.push_back(beam_eq);
        p.temp_air.push_back(static_cast<float>(e.temp_air_c));
        p.sun_azimuth.push_back(azimuth);
        p.sun_elevation.push_back(elevation);
        p.sun_e.push_back(sun_e);
        p.sun_n.push_back(sun_n);
        p.sun_u.push_back(sun_u);
        p.hor_sec0.push_back(s0);
        p.hor_sec1.push_back(s1);
        p.hor_frac.push_back(frac);
        if (sky.daylight[si] == 0) continue;
        p.step_to_packed[si] = static_cast<long>(p.packed_to_step.size());
        p.packed_to_step.push_back(static_cast<long>(si));
        p.p_beam_eq.push_back(beam_eq);
        p.p_sun_elevation.push_back(elevation);
        p.p_sun_e.push_back(sun_e);
        p.p_sun_n.push_back(sun_n);
        p.p_sun_u.push_back(sun_u);
        p.p_hor_sec0.push_back(s0);
        p.p_hor_sec1.push_back(s1);
        p.p_hor_frac.push_back(frac);
    }
    return sky;
}

}  // namespace pvfp::oracles
