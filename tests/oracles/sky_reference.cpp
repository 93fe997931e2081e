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
    sky.daylight.resize(n);
    sky.dhi_iso.resize(n);
    solar::SkyStepPlanes& p = sky.planes;
    p.sectors = azimuth_sectors;
    const bool hay = sky_model == solar::SkyModel::HayDavies;

    // Per-step precompute in double — sun position + roof-independent
    // transposition terms, one step at a time — then the float step
    // planes and horizon-sector weights, as each field computed them
    // inline.
    for (long s = 0; s < grid.total_steps(); ++s) {
        const std::size_t si = static_cast<std::size_t>(s);
        const solar::EnvSample& e = sky.env[si];
        const int doy = grid.day_of_year(s);
        const double hour = grid.hour_of_day(s);
        const solar::SunPosition sun =
            solar::sun_position(location, doy, hour);
        const bool daylight = sun.elevation_rad > 0.0;
        sky.daylight[si] = daylight ? 1 : 0;
        const double cos_el = std::cos(sun.elevation_rad);
        const double sun_e = cos_el * std::sin(sun.azimuth_rad);
        const double sun_n = cos_el * std::cos(sun.azimuth_rad);
        const double sun_u = std::sin(sun.elevation_rad);

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
        sky.dhi_iso[si] = dhi_iso;

        const float azimuth = static_cast<float>(sun.azimuth_rad);
        float beam_eq_f = 0.0f;
        if (e.ghi > 0.0 || e.dhi > 0.0)
            beam_eq_f = static_cast<float>(beam_eq);
        const double pos = wrap_two_pi(static_cast<double>(azimuth)) /
                           kTwoPi * azimuth_sectors;
        const int s0 = static_cast<int>(pos) % azimuth_sectors;
        p.beam_eq.push_back(beam_eq_f);
        p.temp_air.push_back(static_cast<float>(e.temp_air_c));
        p.sun_azimuth.push_back(azimuth);
        p.sun_elevation.push_back(static_cast<float>(sun.elevation_rad));
        p.sun_e.push_back(static_cast<float>(sun_e));
        p.sun_n.push_back(static_cast<float>(sun_n));
        p.sun_u.push_back(static_cast<float>(sun_u));
        p.hor_sec0.push_back(s0);
        p.hor_sec1.push_back((s0 + 1) % azimuth_sectors);
        p.hor_frac.push_back(pos - std::floor(pos));
    }
    return sky;
}

}  // namespace pvfp::oracles
