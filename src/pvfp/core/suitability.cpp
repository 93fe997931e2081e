#include "pvfp/core/suitability.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "pvfp/obs/metrics.hpp"
#include "pvfp/solar/irradiance_kernels.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/parallel.hpp"
#include "pvfp/util/stats.hpp"

namespace pvfp::core {
namespace {

/// Cells per block of the step-major sweep.  A block's two flat count
/// matrices (bins x cells uint32 per axis) take 512 KiB at bins = 256,
/// so each worker's counts stay cache-resident while it streams the
/// per-step planes once per block instead of once per cell.
constexpr std::size_t kBlockCells = 256;

/// Valid cells [x0, x1) of row y, stored at block slots
/// [slot, slot + x1 - x0).
struct Run {
    int y;
    int x0;
    int x1;
    int slot;
};

/// Runs [first, last) of the run list, holding `cells` cells in total.
struct Block {
    std::size_t first;
    std::size_t last;
    int cells;
};

/// The bin grid of pvfp::Histogram(lo, hi, bins) — the same width
/// expression histogram_percentile() uses to read the counts back.
solar::detail::BinAxis bin_axis(double lo, double hi, int bins) {
    return {lo, hi, (hi - lo) / bins, bins};
}

}  // namespace

double temperature_correction_factor(double t_c,
                                     const SuitabilityOptions& options) {
    const double denom =
        options.derating_offset -
        options.derating_per_k * options.reference_temp_c;
    check_arg(denom > 0.0,
              "temperature_correction_factor: derating model degenerate at "
              "the reference temperature");
    const double num =
        options.derating_offset - options.derating_per_k * t_c;
    return std::max(0.0, num / denom);
}

SuitabilityResult compute_suitability(const solar::IrradianceField& field,
                                      const geo::PlacementArea& area,
                                      const SuitabilityOptions& options) {
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
    const int bins = options.bins;

    // Split each row's valid cells into runs and cut the runs into
    // blocks of at most kBlockCells cells.
    std::vector<Run> runs;
    std::vector<Block> blocks;
    Block open{0, 0, 0};
    long valid_cells = 0;
    for (int y = 0; y < h; ++y) {
        int x = 0;
        while (x < w) {
            if (!area.valid(x, y)) {
                ++x;
                continue;
            }
            int x0 = x;
            while (x < w && area.valid(x, y)) ++x;
            valid_cells += x - x0;
            while (x0 < x) {
                if (open.cells == static_cast<int>(kBlockCells)) {
                    open.last = runs.size();
                    blocks.push_back(open);
                    open = Block{runs.size(), 0, 0};
                }
                const int take = std::min(
                    x - x0, static_cast<int>(kBlockCells) - open.cells);
                runs.push_back(Run{y, x0, x0 + take, open.cells});
                open.cells += take;
                x0 += take;
            }
        }
    }
    check_arg(valid_cells > 0, "compute_suitability: no valid cells");
    open.last = runs.size();
    blocks.push_back(open);

    // Resolve the sampled time axis once (stride + daylight filter) and
    // split off the dark steps: no reflected or sky term and the beam
    // off, the row kernel's own beam-off test.  On those the kernel
    // contract gives every cell G = +0.0, so all cells bin them
    // identically — bin them once into a shared base histogram.
    const solar::detail::FieldView view = field.view();
    std::vector<long> lit;
    std::vector<double> lit_t_air;
    std::vector<double> dark_t_air;
    long sampled = 0;
    for (long s = 0; s < field.steps(); s += options.step_stride) {
        if (options.daylight_only && !field.is_daylight(s)) continue;
        ++sampled;
        const std::size_t si = static_cast<std::size_t>(s);
        const bool dark =
            view.reflected[si] == 0.0f && view.sky_diffuse[si] == 0.0f &&
            (!(view.beam_eq[si] > 0.0f) ||
             !(static_cast<double>(view.sun_elevation[si]) > 0.0));
        if (dark) {
            dark_t_air.push_back(field.air_temperature(s));
        } else {
            lit.push_back(s);
            lit_t_air.push_back(field.air_temperature(s));
        }
    }
    check_arg(sampled > 0, "compute_suitability: no sampled steps");

    const double k_th = field.config().thermal_k;
    const solar::detail::BinAxis g_axis = bin_axis(0.0, options.g_max, bins);
    const solar::detail::BinAxis t_axis =
        bin_axis(options.t_min_c, options.t_max_c, bins);

    std::vector<std::uint32_t> base_g(static_cast<std::size_t>(bins), 0);
    std::vector<std::uint32_t> base_t(static_cast<std::size_t>(bins), 0);
    if (!dark_t_air.empty()) {
        const std::size_t n = dark_t_air.size();
        const std::vector<double> zero_g(n, 0.0);
        std::vector<std::int32_t> g_bins(n);
        std::vector<std::int32_t> t_bins(n);
        solar::detail::bin_series(zero_g.data(), n, dark_t_air.data(), k_th,
                                  g_axis, t_axis, g_bins.data(),
                                  t_bins.data());
        for (std::size_t k = 0; k < n; ++k) {
            ++base_g[static_cast<std::size_t>(g_bins[k])];
            ++base_t[static_cast<std::size_t>(t_bins[k])];
        }
    }

    SuitabilityResult out;
    out.suitability = pvfp::Grid2D<double>(w, h, 0.0);
    out.g_percentile = pvfp::Grid2D<double>(w, h, 0.0);
    out.t_percentile = pvfp::Grid2D<double>(w, h, 0.0);

    // Step-major sweep per block: for each lit step, the row kernel
    // fills the block's cells, bin_series bins them with the step's air
    // temperature, and the flat counts (seeded with the dark base) take
    // the increments.  The counts are bin-major ([bin][cell]): cells of
    // a step mostly land in nearby bins, so neighbouring cells'
    // increments share cache lines.  Bin counts are order-independent
    // integers and every block writes only its own cells, so the grids
    // are bitwise the same at any thread count and SIMD level.
    struct BlockScratch {
        std::vector<std::uint32_t> g_counts;  ///< [bin][cell]
        std::vector<std::uint32_t> t_counts;
        std::vector<std::uint32_t> g_cell;  ///< one cell's counts, by bin
        std::vector<std::uint32_t> t_cell;
        std::vector<double> g;
        std::vector<double> t_air;
        std::vector<std::int32_t> g_bins;
        std::vector<std::int32_t> t_bins;
    };
    ScratchPool<BlockScratch> scratch_pool;
    const solar::detail::RowKernel row = solar::detail::row_kernel();
    const std::size_t n_bins = static_cast<std::size_t>(bins);
    parallel_for(0, static_cast<long>(blocks.size()), 1, [&](long bb,
                                                             long be) {
        auto scratch = scratch_pool.acquire();
        BlockScratch& sc = *scratch;
        sc.g_counts.resize(n_bins * kBlockCells);
        sc.t_counts.resize(n_bins * kBlockCells);
        sc.g_cell.resize(n_bins);
        sc.t_cell.resize(n_bins);
        sc.g.resize(kBlockCells);
        sc.t_air.resize(kBlockCells);
        sc.g_bins.resize(kBlockCells);
        sc.t_bins.resize(kBlockCells);
        for (long b = bb; b < be; ++b) {
            const Block& block = blocks[static_cast<std::size_t>(b)];
            const std::size_t n = static_cast<std::size_t>(block.cells);
            for (std::size_t bin = 0; bin < n_bins; ++bin) {
                std::fill_n(sc.g_counts.begin() + bin * kBlockCells, n,
                            base_g[bin]);
                std::fill_n(sc.t_counts.begin() + bin * kBlockCells, n,
                            base_t[bin]);
            }
            for (std::size_t k = 0; k < lit.size(); ++k) {
                for (std::size_t r = block.first; r < block.last; ++r) {
                    const Run& run = runs[r];
                    row(view, run.y, lit[k], run.x0, run.x1,
                        sc.g.data() + run.slot);
                }
                std::fill_n(sc.t_air.begin(), n, lit_t_air[k]);
                solar::detail::bin_series(sc.g.data(), n, sc.t_air.data(),
                                          k_th, g_axis, t_axis,
                                          sc.g_bins.data(),
                                          sc.t_bins.data());
                for (std::size_t c = 0; c < n; ++c) {
                    ++sc.g_counts[static_cast<std::size_t>(sc.g_bins[c]) *
                                      kBlockCells +
                                  c];
                    ++sc.t_counts[static_cast<std::size_t>(sc.t_bins[c]) *
                                      kBlockCells +
                                  c];
                }
            }
            for (std::size_t r = block.first; r < block.last; ++r) {
                const Run& run = runs[r];
                for (int x = run.x0; x < run.x1; ++x) {
                    const std::size_t c =
                        static_cast<std::size_t>(run.slot + x - run.x0);
                    for (std::size_t bin = 0; bin < n_bins; ++bin) {
                        sc.g_cell[bin] = sc.g_counts[bin * kBlockCells + c];
                        sc.t_cell[bin] = sc.t_counts[bin * kBlockCells + c];
                    }
                    const std::span<const std::uint32_t> gc(sc.g_cell);
                    const std::span<const std::uint32_t> tc(sc.t_cell);
                    const double gp =
                        options.use_mean
                            ? histogram_approx_mean(gc, 0.0, options.g_max)
                            : histogram_percentile(gc, 0.0, options.g_max,
                                                   options.percentile);
                    const double tp =
                        options.use_mean
                            ? histogram_approx_mean(tc, options.t_min_c,
                                                    options.t_max_c)
                            : histogram_percentile(tc, options.t_min_c,
                                                   options.t_max_c,
                                                   options.percentile);
                    out.g_percentile(x, run.y) = gp;
                    out.t_percentile(x, run.y) = tp;
                    double s_val = gp;
                    if (options.temperature_correction)
                        s_val *= temperature_correction_factor(tp, options);
                    out.suitability(x, run.y) = s_val;
                }
            }
        }
    });

    if (obs::enabled()) {
        obs::MetricsRegistry& reg = obs::registry();
        reg.counter("core.suitability.cell_steps")
            .add(static_cast<std::uint64_t>(valid_cells * sampled));
        reg.counter("core.suitability.dark_steps_shared")
            .add(static_cast<std::uint64_t>(dark_t_air.size()));
    }
    return out;
}

}  // namespace pvfp::core
