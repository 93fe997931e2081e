#include "oracles/suitability_reference.hpp"

#include <utility>
#include <vector>

#include "pvfp/solar/irradiance_kernels.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/parallel.hpp"
#include "pvfp/util/stats.hpp"

namespace pvfp::oracles {

core::SuitabilityResult compute_suitability_reference(
    const solar::IrradianceField& field, const geo::PlacementArea& area,
    const core::SuitabilityOptions& options) {
    check_arg(field.width() == area.width && field.height() == area.height,
              "compute_suitability: field window does not match area");
    check_arg(options.percentile >= 0.0 && options.percentile <= 100.0,
              "compute_suitability: percentile out of [0,100]");
    check_arg(options.bins >= 8, "compute_suitability: too few bins");
    check_arg(options.step_stride >= 1,
              "compute_suitability: step_stride must be >= 1");
    check_arg(options.g_max > 0.0 && options.t_max_c > options.t_min_c,
              "compute_suitability: invalid histogram ranges");

    const int w = area.width;
    const int h = area.height;

    // Collect the list of valid cells once; histograms only for them.
    std::vector<std::pair<int, int>> cells;
    cells.reserve(static_cast<std::size_t>(area.valid_count));
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            if (area.valid(x, y)) cells.emplace_back(x, y);
    check_arg(!cells.empty(), "compute_suitability: no valid cells");

    std::vector<pvfp::Histogram> g_hist(
        cells.size(), pvfp::Histogram(0.0, options.g_max, options.bins));
    std::vector<pvfp::Histogram> t_hist(
        cells.size(),
        pvfp::Histogram(options.t_min_c, options.t_max_c, options.bins));

    // Resolve the sampled time axis once (stride + daylight filter), then
    // sweep it per cell: cells own disjoint histograms, so the cell loop
    // parallelizes with deterministic results.
    std::vector<long> sampled;
    std::vector<double> sampled_t_air;
    for (long s = 0; s < field.steps(); s += options.step_stride) {
        if (options.daylight_only && !field.is_daylight(s)) continue;
        sampled.push_back(s);
        sampled_t_air.push_back(field.air_temperature(s));
    }

    const double k_th = field.config().thermal_k;
    const solar::detail::BinAxis g_axis{0.0, options.g_max,
                                        g_hist[0].bin_width(),
                                        options.bins};
    const solar::detail::BinAxis t_axis{options.t_min_c, options.t_max_c,
                                        t_hist[0].bin_width(),
                                        options.bins};
    // Each cell's time sweep runs through the gathered series kernel,
    // then the fused binning pass turns the series plus the
    // module-temperature model into bin indices; the histograms count.
    struct BinScratch {
        std::vector<double> g;
        std::vector<std::int32_t> g_bins;
        std::vector<std::int32_t> t_bins;
    };
    ScratchPool<BinScratch> scratch_pool;
    parallel_for(
        0, static_cast<long>(cells.size()), 32, [&](long cb, long ce) {
            auto scratch = scratch_pool.acquire();
            scratch->g.resize(sampled.size());
            scratch->g_bins.resize(sampled.size());
            scratch->t_bins.resize(sampled.size());
            for (long c = cb; c < ce; ++c) {
                const auto [x, y] = cells[static_cast<std::size_t>(c)];
                auto& gh = g_hist[static_cast<std::size_t>(c)];
                auto& th = t_hist[static_cast<std::size_t>(c)];
                field.cell_irradiance_series_unchecked(x, y, sampled,
                                                       scratch->g.data());
                solar::detail::bin_series(
                    scratch->g.data(), sampled.size(), sampled_t_air.data(),
                    k_th, g_axis, t_axis, scratch->g_bins.data(),
                    scratch->t_bins.data());
                for (std::size_t k = 0; k < sampled.size(); ++k) {
                    gh.add_bin(scratch->g_bins[k]);
                    th.add_bin(scratch->t_bins[k]);
                }
            }
        });

    core::SuitabilityResult out;
    out.suitability = pvfp::Grid2D<double>(w, h, 0.0);
    out.g_percentile = pvfp::Grid2D<double>(w, h, 0.0);
    out.t_percentile = pvfp::Grid2D<double>(w, h, 0.0);

    for (std::size_t c = 0; c < cells.size(); ++c) {
        const auto [x, y] = cells[c];
        const double gp = options.use_mean
                              ? g_hist[c].approx_mean()
                              : g_hist[c].percentile(options.percentile);
        const double tp = options.use_mean
                              ? t_hist[c].approx_mean()
                              : t_hist[c].percentile(options.percentile);
        out.g_percentile(x, y) = gp;
        out.t_percentile(x, y) = tp;
        double s_val = gp;
        if (options.temperature_correction)
            s_val *= core::temperature_correction_factor(tp, options);
        out.suitability(x, y) = s_val;
    }
    return out;
}

}  // namespace pvfp::oracles
