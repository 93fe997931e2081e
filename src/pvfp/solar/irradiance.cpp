#include "pvfp/solar/irradiance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "pvfp/solar/irradiance_kernels.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/parallel.hpp"

namespace pvfp::solar {

IrradianceField::IrradianceField(geo::HorizonMap horizon,
                                 std::vector<EnvSample> env,
                                 const pvfp::TimeGrid& grid, double tilt_rad,
                                 double azimuth_rad,
                                 const FieldConfig& config,
                                 geo::NormalMap normals)
    : horizon_(std::move(horizon)), tilt_rad_(tilt_rad),
      azimuth_rad_(azimuth_rad), config_(config),
      normals_(std::move(normals)) {
    // Self-contained path: prepare a private sky artifact for this env
    // series and this window's sector count.  One implementation of the
    // per-step math — the shared-sky batch path and this path produce
    // the same bits.
    init(make_shared_sky(config.location, grid, std::move(env),
                         config.sky_model, horizon_.sectors()));
}

IrradianceField::IrradianceField(geo::HorizonMap horizon,
                                 std::shared_ptr<const SharedSkyArtifact> sky,
                                 double tilt_rad, double azimuth_rad,
                                 const FieldConfig& config,
                                 geo::NormalMap normals)
    : horizon_(std::move(horizon)), tilt_rad_(tilt_rad),
      azimuth_rad_(azimuth_rad), config_(config),
      normals_(std::move(normals)) {
    init(std::move(sky));
}

void IrradianceField::init(std::shared_ptr<const SharedSkyArtifact> sky) {
    check_arg(sky != nullptr, "IrradianceField: null sky artifact");
    check_arg(tilt_rad_ >= 0.0 && tilt_rad_ <= kPi / 2.0,
              "IrradianceField: tilt out of range");
    check_arg(config_.thermal_k >= 0.0,
              "IrradianceField: thermal_k must be non-negative");
    // The precomputed sun positions and circumsolar split embed the
    // artifact's site and sky model, and its sector indices the horizon
    // sector count; a mismatch would silently compute a different
    // physics than asked for.
    check_arg(config_.location.latitude_deg == sky->location.latitude_deg &&
                  config_.location.longitude_deg ==
                      sky->location.longitude_deg &&
                  config_.location.timezone_hours ==
                      sky->location.timezone_hours,
              "IrradianceField: config.location != sky artifact location");
    check_arg(config_.sky_model == sky->sky_model,
              "IrradianceField: config.sky_model != sky artifact model");
    check_arg(sky->planes.sectors == horizon_.sectors(),
              "IrradianceField: sky artifact built for " +
                  std::to_string(sky->planes.sectors) +
                  " horizon sectors, horizon map has " +
                  std::to_string(horizon_.sectors()));
    has_normals_ = normals_.width() > 0;
    if (has_normals_) {
        check_arg(normals_.width() == horizon_.window_width() &&
                      normals_.height() == horizon_.window_height(),
                  "IrradianceField: normal map does not match the window");
    }
    // The batch kernels address horizon sector planes through int32
    // offsets; a window large enough to overflow them would not fit in
    // memory anyway, but fail loudly rather than wrap.
    check_arg(horizon_.cell_count() *
                      static_cast<long long>(horizon_.sectors()) <=
                  std::numeric_limits<std::int32_t>::max(),
              "IrradianceField: horizon map too large for batch kernels");
    sky_ = std::move(sky);

    // Uniform plane normal: leans toward the downslope azimuth.
    plane_e_ = std::sin(tilt_rad_) * std::sin(azimuth_rad_);
    plane_n_ = std::sin(tilt_rad_) * std::cos(azimuth_rad_);
    plane_u_ = std::cos(tilt_rad_);

    // Per-roof finish: the only tilt-dependent transposition factors
    // (isotropic-sky and ground-reflected projections), two multiplies
    // per step, chunked deterministically.  Every other step plane is
    // the artifact's.
    const SharedSkyArtifact& a = *sky_;
    const std::size_t n = a.env.size();
    sky_diffuse_.resize(n);
    reflected_.resize(n);
    const double cos_tilt = std::cos(tilt_rad_);
    parallel_for(0, a.steps(), 4096, [&](long sb, long se) {
        for (long s = sb; s < se; ++s) {
            const std::size_t si = static_cast<std::size_t>(s);
            const EnvSample& e = a.env[si];
            float sky_diffuse_f = 0.0f;
            float reflected_f = 0.0f;
            if (e.ghi > 0.0 || e.dhi > 0.0) {
                sky_diffuse_f = static_cast<float>(
                    a.dhi_iso[si] * (1.0 + cos_tilt) / 2.0);
                reflected_f = static_cast<float>(
                    e.ghi * config_.albedo * (1.0 - cos_tilt) / 2.0);
            }
            sky_diffuse_[si] = sky_diffuse_f;
            reflected_[si] = reflected_f;
        }
    });
}

double IrradianceField::cell_irradiance(int x, int y, long s) const {
    check_step(s);
    check_arg(x >= 0 && x < width() && y >= 0 && y < height(),
              "IrradianceField: cell out of range");
    return cell_irradiance_unchecked(x, y, s);
}

double IrradianceField::cell_irradiance_unchecked(int x, int y,
                                                  long s) const {
    // Innermost scalar hot path (per cell per step): the iteration
    // domain is validated once at the public call-site boundary.
    assert(s >= 0 && s < steps());
    const std::size_t si = static_cast<std::size_t>(s);
    const SkyStepPlanes& p = sky_->planes;
    double g = reflected_[si];
    g += horizon_.sky_view_factor_unchecked(x, y) * sky_diffuse_[si];
    if (p.beam_eq[si] > 0.0f &&
        !horizon_.is_shaded_unchecked(x, y, p.sun_azimuth[si],
                                      p.sun_elevation[si])) {
        double cosi;
        if (has_normals_) {
            cosi = normals_.east(x, y) * p.sun_e[si] +
                   normals_.north(x, y) * p.sun_n[si] +
                   normals_.up(x, y) * p.sun_u[si];
        } else {
            cosi = plane_e_ * p.sun_e[si] + plane_n_ * p.sun_n[si] +
                   plane_u_ * p.sun_u[si];
        }
        if (cosi > 0.0) g += p.beam_eq[si] * cosi;
    }
    return g;
}

detail::FieldView IrradianceField::view() const {
    const SkyStepPlanes& p = sky_->planes;
    detail::FieldView v;
    v.beam_eq = p.beam_eq.data();
    v.sky_diffuse = sky_diffuse_.data();
    v.reflected = reflected_.data();
    v.sun_elevation = p.sun_elevation.data();
    v.sun_e = p.sun_e.data();
    v.sun_n = p.sun_n.data();
    v.sun_u = p.sun_u.data();
    v.hor_sec0 = p.hor_sec0.data();
    v.hor_sec1 = p.hor_sec1.data();
    v.hor_frac = p.hor_frac.data();
    v.angles = horizon_.angles_data();
    v.svf = horizon_.svf_data();
    if (has_normals_) {
        v.norm_e = normals_.east.data().data();
        v.norm_n = normals_.north.data().data();
        v.norm_u = normals_.up.data().data();
    }
    v.plane_e = plane_e_;
    v.plane_n = plane_n_;
    v.plane_u = plane_u_;
    v.width = width();
    v.cells = static_cast<std::int32_t>(horizon_.cell_count());
    return v;
}

void IrradianceField::cell_irradiance_row(int y, long s, int x0, int x1,
                                          double* out) const {
    check_step(s);
    check_arg(y >= 0 && y < height() && x0 >= 0 && x0 <= x1 &&
                  x1 <= width(),
              "IrradianceField: row span out of range");
    if (x0 == x1) return;
    detail::row_kernel()(view(), y, s, x0, x1, out);
}

void IrradianceField::cell_irradiance_series(int x, int y,
                                             std::span<const long> steps,
                                             double* out) const {
    check_arg(x >= 0 && x < width() && y >= 0 && y < height(),
              "IrradianceField: cell out of range");
    const long n_steps = this->steps();
    for (const long s : steps)
        check_arg(s >= 0 && s < n_steps,
                  "IrradianceField: step out of range");
    cell_irradiance_series_unchecked(x, y, steps, out);
}

void IrradianceField::cell_irradiance_series_unchecked(
    int x, int y, std::span<const long> steps, double* out) const {
    assert(x >= 0 && x < width() && y >= 0 && y < height());
    if (steps.empty()) return;
    // Scalar at every level: gathered AVX2 / AVX-512 twins measured only
    // 1.03-1.09x over this loop, below the 1.5x a SIMD twin must pay.
    detail::cell_series_scalar(view(), x, y, steps.data(), steps.size(),
                               out);
}

double IrradianceField::cell_module_temperature(int x, int y, long s) const {
    return air_temperature(s) + config_.thermal_k * cell_irradiance(x, y, s);
}

double IrradianceField::plane_irradiance_unshaded(long s) const {
    check_step(s);
    const std::size_t si = static_cast<std::size_t>(s);
    const SkyStepPlanes& p = sky_->planes;
    const double cosi = plane_e_ * p.sun_e[si] + plane_n_ * p.sun_n[si] +
                        plane_u_ * p.sun_u[si];
    return p.beam_eq[si] * std::max(0.0, cosi) + sky_diffuse_[si] +
           reflected_[si];
}

double IrradianceField::unshaded_insolation_kwh_m2() const {
    double wh = 0.0;
    for (long s = 0; s < steps(); ++s)
        wh += plane_irradiance_unshaded(s) * time_grid().step_hours();
    return wh / 1000.0;
}

}  // namespace pvfp::solar
