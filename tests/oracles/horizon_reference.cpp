#include "oracles/horizon_reference.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "pvfp/util/error.hpp"
#include "pvfp/util/math.hpp"
#include "pvfp/util/parallel.hpp"

namespace pvfp::oracles {
namespace {

/// March from the center of cell (x,y) along \p azimuth and return the
/// maximum elevation angle seen.  \p growth >= 1 controls step growth.
double march(const geo::Raster& dsm, int x, int y, double azimuth_rad,
             double max_distance, double step, double growth,
             double max_step, double observer_offset) {
    const double lx0 = dsm.local_x(x);
    const double ly0 = dsm.local_y(y);
    const double h0 = dsm(x, y) + observer_offset;
    // Local frame: x east, y south; azimuth clockwise from North.
    const double dirx = std::sin(azimuth_rad);
    const double diry = -std::cos(azimuth_rad);

    const double width_m = dsm.width() * dsm.cell_size();
    const double height_m = dsm.height() * dsm.cell_size();

    double best = 0.0;  // horizons below the horizontal do not shade
    double t = step;
    double dt = step;
    while (t <= max_distance) {
        const double lx = lx0 + t * dirx;
        const double ly = ly0 + t * diry;
        if (lx < 0.0 || ly < 0.0 || lx >= width_m || ly >= height_m) break;
        const double h = dsm.sample_bilinear_local(lx, ly);
        if (h > h0) {
            const double ang = std::atan2(h - h0, t);
            if (ang > best) best = ang;
        }
        dt = std::min(dt * growth, max_step);
        t += dt;
    }
    return best;
}

}  // namespace

geo::HorizonMap horizon_map_reference(const geo::Raster& dsm, int x0,
                                      int y0, int win_w, int win_h,
                                      const geo::HorizonOptions& options) {
    check_arg(win_w > 0 && win_h > 0, "HorizonMap: empty window");
    check_arg(x0 >= 0 && y0 >= 0 && x0 + win_w <= dsm.width() &&
                  y0 + win_h <= dsm.height(),
              "HorizonMap: window outside raster");
    check_arg(options.azimuth_sectors >= 4,
              "HorizonMap: need at least 4 azimuth sectors");
    check_arg(std::isfinite(options.max_distance) &&
                  std::isfinite(options.step_factor) &&
                  std::isfinite(options.step_growth) &&
                  std::isfinite(options.max_step_factor) &&
                  std::isfinite(options.observer_offset),
              "HorizonMap: non-finite marching parameter");
    check_arg(options.max_distance > 0.0 && options.step_factor > 0.0 &&
                  options.step_growth >= 1.0 &&
                  options.max_step_factor >= options.step_factor,
              "HorizonMap: invalid marching parameters");
    check_arg(options.observer_offset >= 0.0,
              "HorizonMap: observer_offset must be >= 0");

    const int sectors = options.azimuth_sectors;
    const double step = options.step_factor * dsm.cell_size();
    const std::size_t ncells = static_cast<std::size_t>(win_w) * win_h;
    std::vector<float> angles(ncells * static_cast<std::size_t>(sectors));
    std::vector<float> svf(ncells);

    parallel_for(0, win_h, 1, [&](long row_begin, long row_end) {
        for (long wy = row_begin; wy < row_end; ++wy) {
            for (int wx = 0; wx < win_w; ++wx) {
                const std::size_t ci =
                    static_cast<std::size_t>(wy) * win_w + wx;
                double svf_acc = 0.0;
                for (int s = 0; s < sectors; ++s) {
                    const double az = kTwoPi * s / sectors;
                    const double ang = march(
                        dsm, x0 + wx, y0 + static_cast<int>(wy), az,
                        options.max_distance, step, options.step_growth,
                        options.max_step_factor * dsm.cell_size(),
                        options.observer_offset);
                    angles[static_cast<std::size_t>(s) * ncells + ci] =
                        static_cast<float>(ang);
                    const double c = std::cos(ang);
                    svf_acc += c * c;
                }
                svf[ci] = static_cast<float>(svf_acc / sectors);
            }
        }
    });
    return geo::HorizonMap::from_planes(x0, y0, win_w, win_h, sectors,
                                        std::move(angles), std::move(svf));
}

}  // namespace pvfp::oracles
