#include "pvfp/solar/sky_artifact.hpp"

#include <algorithm>
#include <cmath>

#include "pvfp/solar/sky_kernels.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/parallel.hpp"

namespace pvfp::solar {
namespace {

SharedSkyArtifact make_validated_artifact(const Location& location,
                                          const pvfp::TimeGrid& grid,
                                          std::vector<EnvSample> env,
                                          SkyModel sky_model,
                                          int azimuth_sectors) {
    check_arg(static_cast<long>(env.size()) == grid.total_steps(),
              "prepare_sky_artifact: env series length != time grid steps");
    for (const EnvSample& e : env) {
        check_arg(e.ghi >= 0.0 && e.dni >= 0.0 && e.dhi >= 0.0,
                  "prepare_sky_artifact: negative irradiance in env series");
    }
    check_arg(azimuth_sectors >= 4,
              "prepare_sky_artifact: need at least 4 azimuth sectors");

    SharedSkyArtifact sky;
    sky.location = location;
    sky.grid = grid;
    sky.sky_model = sky_model;
    sky.env = std::move(env);

    const std::size_t n = sky.env.size();
    sky.daylight.resize(n);
    sky.dhi_iso.resize(n);
    SkyStepPlanes& p = sky.planes;
    p.sectors = azimuth_sectors;
    p.beam_eq.resize(n);
    p.temp_air.resize(n);
    p.sun_azimuth.resize(n);
    p.sun_elevation.resize(n);
    p.sun_e.resize(n);
    p.sun_n.resize(n);
    p.sun_u.resize(n);
    p.hor_sec0.resize(n);
    p.hor_sec1.resize(n);
    p.hor_frac.resize(n);
    return sky;
}

}  // namespace

SharedSkyArtifact prepare_sky_artifact(const Location& location,
                                       const pvfp::TimeGrid& grid,
                                       std::vector<EnvSample> env,
                                       SkyModel sky_model,
                                       int azimuth_sectors) {
    SharedSkyArtifact sky = make_validated_artifact(
        location, grid, std::move(env), sky_model, azimuth_sectors);
    const bool hay = sky_model == SkyModel::HayDavies;
    SkyStepPlanes& p = sky.planes;

    // Per-day ephemeris tables: declination, equation of time, and the
    // extraterrestrial irradiance only change once per day, so the
    // unbatched per-step recomputation hoists here — with unchanged
    // association (see DayGeometry), keeping every downstream bit equal
    // to the per-step sun_position loop.
    const long spd = grid.steps_per_day();
    const long days = grid.days();
    const double phi = deg2rad(location.latitude_deg);
    const double sin_phi = std::sin(phi);
    const double cos_phi = std::cos(phi);
    const double tz_meridian = 15.0 * location.timezone_hours;
    std::vector<detail::DayGeometry> day_geo(static_cast<std::size_t>(days));
    std::vector<double> day_m60(static_cast<std::size_t>(days));
    std::vector<double> day_eo(static_cast<std::size_t>(days));
    for (long d = 0; d < days; ++d) {
        const std::size_t di = static_cast<std::size_t>(d);
        const int doy = grid.day_of_year(d * spd);
        const double delta = solar_declination(doy);
        const double sin_delta = std::sin(delta);
        const double cos_delta = std::cos(delta);
        day_geo[di] = detail::DayGeometry{
            sin_phi * sin_delta, cos_phi * cos_delta, cos_phi * sin_delta,
            sin_phi * cos_delta, -cos_delta};
        const double minutes = equation_of_time_minutes(doy) +
                               4.0 * (location.longitude_deg - tz_meridian);
        day_m60[di] = minutes / 60.0;
        day_eo[di] = extraterrestrial_normal_irradiance(doy);
    }

    // The per-step sweep splits into four passes per chunk: libm trig
    // of the hour angle, the geometry kernel, libm angles + sun vector,
    // and the transposition kernel; a last pass rounds the chunk's
    // beam into its float plane.  The double sun position and beam live
    // only in chunk scratch.  Each step writes only its own slots, so
    // the fixed chunk grid keeps the result bitwise-identical at any
    // thread count.
    parallel_for(0, grid.total_steps(), 512, [&](long sb, long se) {
        const std::size_t cn = static_cast<std::size_t>(se - sb);
        std::vector<double> cos_h(cn);
        std::vector<double> sin_h(cn);
        std::vector<double> up(cn);
        std::vector<double> north(cn);
        std::vector<double> east(cn);
        std::vector<double> sin_el(cn);
        std::vector<double> ghi(cn);
        std::vector<double> dni(cn);
        std::vector<double> dhi(cn);
        std::vector<double> beam_eq(cn);

        for (long s = sb; s < se; ++s) {
            const std::size_t i = static_cast<std::size_t>(s - sb);
            const double t_solar =
                grid.hour_of_day(s) + day_m60[static_cast<std::size_t>(
                                          s / spd)];
            const double h = deg2rad(15.0 * (t_solar - 12.0));
            cos_h[i] = std::cos(h);
            sin_h[i] = std::sin(h);
        }
        for (long r0 = sb; r0 < se;) {
            const long d = r0 / spd;
            const long r1 = std::min(se, (d + 1) * spd);
            const std::size_t off = static_cast<std::size_t>(r0 - sb);
            detail::sky_geometry(cos_h.data() + off, sin_h.data() + off,
                                 static_cast<std::size_t>(r1 - r0),
                                 day_geo[static_cast<std::size_t>(d)],
                                 up.data() + off, north.data() + off,
                                 east.data() + off);
            r0 = r1;
        }
        for (long s = sb; s < se; ++s) {
            const std::size_t i = static_cast<std::size_t>(s - sb);
            const std::size_t si = static_cast<std::size_t>(s);
            // up is already clamped to [-1, 1] by the geometry kernel,
            // exactly as sun_position clamps before asin.
            const double el = std::asin(up[i]);
            const double az = wrap_two_pi(std::atan2(east[i], north[i]));
            sky.daylight[si] = el > 0.0 ? 1 : 0;
            const double cos_el = std::cos(el);
            const double s_el = std::sin(el);
            const float az_f = static_cast<float>(az);
            p.sun_azimuth[si] = az_f;
            p.sun_elevation[si] = static_cast<float>(el);
            p.sun_e[si] = static_cast<float>(cos_el * std::sin(az));
            p.sun_n[si] = static_cast<float>(cos_el * std::cos(az));
            p.sun_u[si] = static_cast<float>(s_el);
            // Horizon interpolation for this step's (float) sun azimuth
            // — exactly the arithmetic of
            // HorizonMap::horizon_at_unchecked, so the batch kernels
            // reproduce the scalar lookup bit for bit.
            const double pos = wrap_two_pi(static_cast<double>(az_f)) /
                               kTwoPi * azimuth_sectors;
            const int s0 = static_cast<int>(pos) % azimuth_sectors;
            p.hor_sec0[si] = s0;
            p.hor_sec1[si] = (s0 + 1) % azimuth_sectors;
            p.hor_frac[si] = pos - std::floor(pos);
            sin_el[i] = s_el;
            const EnvSample& e = sky.env[si];
            p.temp_air[si] = static_cast<float>(e.temp_air_c);
            ghi[i] = e.ghi;
            dni[i] = e.dni;
            dhi[i] = e.dhi;
        }
        for (long r0 = sb; r0 < se;) {
            const long d = r0 / spd;
            const long r1 = std::min(se, (d + 1) * spd);
            const std::size_t off = static_cast<std::size_t>(r0 - sb);
            const std::size_t ri = static_cast<std::size_t>(r0);
            detail::sky_transposition(
                ghi.data() + off, dni.data() + off, dhi.data() + off,
                sin_el.data() + off, sky.daylight.data() + ri,
                static_cast<std::size_t>(r1 - r0),
                day_eo[static_cast<std::size_t>(d)], hay,
                beam_eq.data() + off, sky.dhi_iso.data() + ri);
            r0 = r1;
        }
        // A step with no irradiance input gets beam_eq = +0.0, which
        // rounds to the +0.0f the kernels test against.
        for (std::size_t i = 0; i < cn; ++i)
            p.beam_eq[static_cast<std::size_t>(sb) + i] =
                static_cast<float>(beam_eq[i]);
    });
    return sky;
}

std::shared_ptr<const SharedSkyArtifact> make_shared_sky(
    const Location& location, const pvfp::TimeGrid& grid,
    std::vector<EnvSample> env, SkyModel sky_model, int azimuth_sectors) {
    return std::make_shared<const SharedSkyArtifact>(prepare_sky_artifact(
        location, grid, std::move(env), sky_model, azimuth_sectors));
}

}  // namespace pvfp::solar
