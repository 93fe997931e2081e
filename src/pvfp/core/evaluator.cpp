#include "pvfp/core/evaluator.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "pvfp/obs/metrics.hpp"
#include "pvfp/pv/array.hpp"
#include "pvfp/solar/irradiance_kernels.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/parallel.hpp"

namespace pvfp::core {
namespace {

/// Sampled time steps per parallel shard.  Fixed (independent of the
/// thread count) so the shard grid — and therefore the order in which
/// partial energies are merged — is reproducible at any parallelism.
constexpr long kStepsPerShard = 256;

/// Footprint cells [x0, x1) of window row y, stored at run-buffer
/// slots [slot, slot + x1 - x0).
struct Run {
    int y;
    int x0;
    int x1;
    int slot;
};

/// A plan's footprints as merged row runs, built once per evaluation:
/// the spans the row kernel fills per step, and where each module's
/// footprint rows sit in the run buffer.
struct FootprintRuns {
    std::vector<Run> runs;
    /// Buffer slot of the first cell of footprint row r of module i,
    /// at [i * rows + r].
    std::vector<int> row_slot;
    int rows = 0;   ///< footprint rows per module
    int cols = 0;   ///< footprint cells per row
    int cells = 0;  ///< run-buffer length: cells over all runs
};

/// Collect the footprint rows of every module (the k1 x k2 footprint,
/// or the 1x1 anchor cell in AnchorCell mode), sort them by (row, x)
/// and merge footprints that touch in x into one run, so a compact
/// block becomes one run per window row.
FootprintRuns footprint_runs(const Floorplan& plan, ModuleIrradiance mode) {
    FootprintRuns fr;
    const bool anchor = mode == ModuleIrradiance::AnchorCell;
    fr.rows = anchor ? 1 : plan.geometry.k2;
    fr.cols = anchor ? 1 : plan.geometry.k1;
    struct Piece {
        int y;
        int x;
        int index;  ///< module * rows + footprint row
    };
    std::vector<Piece> pieces;
    pieces.reserve(static_cast<std::size_t>(plan.module_count()) *
                   static_cast<std::size_t>(fr.rows));
    for (int i = 0; i < plan.module_count(); ++i) {
        const ModulePlacement& m = plan.modules[static_cast<std::size_t>(i)];
        for (int r = 0; r < fr.rows; ++r)
            pieces.push_back(Piece{m.y + r, m.x, i * fr.rows + r});
    }
    std::sort(pieces.begin(), pieces.end(),
              [](const Piece& a, const Piece& b) {
                  return a.y != b.y ? a.y < b.y : a.x < b.x;
              });
    // Feasible plans do not overlap, so within a row a piece either
    // starts where the open run ends (touching: extend it) or further
    // right (a gap: open a new run).
    fr.row_slot.resize(pieces.size());
    for (const Piece& piece : pieces) {
        if (fr.runs.empty() || fr.runs.back().y != piece.y ||
            fr.runs.back().x1 != piece.x) {
            fr.runs.push_back(Run{piece.y, piece.x, piece.x, fr.cells});
        }
        Run& run = fr.runs.back();
        run.x1 = piece.x + fr.cols;
        fr.cells += fr.cols;
        fr.row_slot[static_cast<std::size_t>(piece.index)] =
            run.slot + piece.x - run.x0;
    }
    return fr;
}

/// Unchecked core of module_irradiance: preconditions (module index in
/// range, footprint inside the field window, step in range) are
/// validated once at the evaluate_floorplan boundary.
double module_irradiance_raw(const Floorplan& plan, int module_index,
                             const solar::IrradianceField& field, long step,
                             ModuleIrradiance mode) {
    const ModulePlacement& m =
        plan.modules[static_cast<std::size_t>(module_index)];
    return anchor_irradiance_unchecked(plan.geometry, m.x, m.y, field, step,
                                       mode);
}

/// Per-shard accumulator: the time-dependent slice of EvaluationResult.
/// Shards cover disjoint step ranges and are merged in shard order, so
/// the fold is associative-by-construction and bitwise-reproducible.
struct Partial {
    double energy_kwh = 0.0;
    double ideal_energy_kwh = 0.0;
    double mismatch_loss_kwh = 0.0;
    double wiring_loss_kwh = 0.0;
    long daylight_steps = 0;  ///< sampled daylight steps (telemetry)
    std::vector<double> string_energy_kwh;
    std::vector<double> string_wiring_loss_kwh;

    explicit Partial(std::size_t n_strings = 0)
        : string_energy_kwh(n_strings, 0.0),
          string_wiring_loss_kwh(n_strings, 0.0) {}
};

Partial merge(Partial acc, const Partial& p) {
    acc.energy_kwh += p.energy_kwh;
    acc.ideal_energy_kwh += p.ideal_energy_kwh;
    acc.mismatch_loss_kwh += p.mismatch_loss_kwh;
    acc.wiring_loss_kwh += p.wiring_loss_kwh;
    acc.daylight_steps += p.daylight_steps;
    for (std::size_t j = 0; j < acc.string_energy_kwh.size(); ++j) {
        acc.string_energy_kwh[j] += p.string_energy_kwh[j];
        acc.string_wiring_loss_kwh[j] += p.string_wiring_loss_kwh[j];
    }
    return acc;
}

}  // namespace

double anchor_irradiance_unchecked(const PanelGeometry& g, int x, int y,
                                   const solar::IrradianceField& field,
                                   long step, ModuleIrradiance mode) {
    if (mode == ModuleIrradiance::AnchorCell) {
        return field.cell_irradiance_unchecked(x, y, step);
    }
    // Footprint modes ride the batched row kernel one footprint row at a
    // time (kMaxRow-wide spans for an unreachably wide module — chunking
    // a row left to right does not change the fold order); the row
    // values are folded in the scalar (yy, xx) cell order, so the result
    // is bitwise-identical to the per-cell loop.
    constexpr int kMaxRow = 256;
    double buf[kMaxRow];
    if (mode == ModuleIrradiance::WorstCell) {
        double worst = std::numeric_limits<double>::infinity();
        for (int yy = y; yy < y + g.k2; ++yy)
            for (int xx = x; xx < x + g.k1; xx += kMaxRow) {
                const int xe = std::min(xx + kMaxRow, x + g.k1);
                field.cell_irradiance_row(yy, step, xx, xe, buf);
                for (int i = 0; i < xe - xx; ++i)
                    worst = std::min(worst, buf[i]);
            }
        return worst;
    }
    double acc = 0.0;
    for (int yy = y; yy < y + g.k2; ++yy)
        for (int xx = x; xx < x + g.k1; xx += kMaxRow) {
            const int xe = std::min(xx + kMaxRow, x + g.k1);
            field.cell_irradiance_row(yy, step, xx, xe, buf);
            for (int i = 0; i < xe - xx; ++i) acc += buf[i];
        }
    return acc / g.cell_count();
}

void anchor_irradiance_series(const PanelGeometry& g, int x, int y,
                              const solar::IrradianceField& field,
                              std::span<const long> steps,
                              ModuleIrradiance mode, double* out) {
    const std::size_t n = steps.size();
    if (n == 0) return;
    // Validate the step span once here, not once per footprint cell.
    const long n_steps = field.steps();
    for (const long s : steps)
        check_arg(s >= 0 && s < n_steps,
                  "anchor_irradiance_series: step out of range");
    if (mode == ModuleIrradiance::AnchorCell) {
        field.cell_irradiance_series_unchecked(x, y, steps, out);
        return;
    }
    // One batched series per footprint cell, folded elementwise in the
    // scalar (yy, xx) cell order: per step this performs exactly the
    // additions / mins of anchor_irradiance_unchecked.
    static thread_local std::vector<double> cell_buf;
    cell_buf.resize(n);
    if (mode == ModuleIrradiance::WorstCell) {
        std::fill(out, out + n,
                  std::numeric_limits<double>::infinity());
        for (int yy = y; yy < y + g.k2; ++yy)
            for (int xx = x; xx < x + g.k1; ++xx) {
                field.cell_irradiance_series_unchecked(xx, yy, steps,
                                                       cell_buf.data());
                for (std::size_t k = 0; k < n; ++k)
                    out[k] = std::min(out[k], cell_buf[k]);
            }
        return;
    }
    std::fill(out, out + n, 0.0);
    for (int yy = y; yy < y + g.k2; ++yy)
        for (int xx = x; xx < x + g.k1; ++xx) {
            field.cell_irradiance_series_unchecked(xx, yy, steps,
                                                   cell_buf.data());
            for (std::size_t k = 0; k < n; ++k) out[k] += cell_buf[k];
        }
    const double count = g.cell_count();
    for (std::size_t k = 0; k < n; ++k) out[k] /= count;
}

pv::OperatingPoint sample_operating_point(const pv::EmpiricalModuleModel& model,
                                          double g, double t_air,
                                          double thermal_k) {
    return model.operating_point(g, t_air + thermal_k * g);
}

double module_irradiance(const Floorplan& plan, int module_index,
                         const solar::IrradianceField& field, long step,
                         ModuleIrradiance mode) {
    check_arg(module_index >= 0 && module_index < plan.module_count(),
              "module_irradiance: index out of range");
    check_arg(step >= 0 && step < field.steps(),
              "module_irradiance: step out of range");
    const ModulePlacement& m =
        plan.modules[static_cast<std::size_t>(module_index)];
    check_arg(m.x >= 0 && m.y >= 0 &&
                  m.x + plan.geometry.k1 <= field.width() &&
                  m.y + plan.geometry.k2 <= field.height(),
              "module_irradiance: module footprint outside the field "
              "window");
    return module_irradiance_raw(plan, module_index, field, step, mode);
}

EvaluationResult evaluate_floorplan(const Floorplan& plan,
                                    const geo::PlacementArea& area,
                                    const solar::IrradianceField& field,
                                    const pv::EmpiricalModuleModel& model,
                                    const EvaluationOptions& options) {
    std::string why;
    check_arg(floorplan_feasible(plan, area, &why),
              "evaluate_floorplan: infeasible plan: " + why);
    check_arg(field.width() == area.width && field.height() == area.height,
              "evaluate_floorplan: field window does not match area");
    check_arg(options.step_stride >= 1,
              "evaluate_floorplan: step_stride must be >= 1");
    pv::check_topology(plan.topology, plan.module_count());
    // Boundary validation complete: feasibility puts every module
    // footprint inside the area (== the field window), so every row run
    // below is a valid row-kernel span, and the step loop stays inside
    // [0, steps) by construction.

    const int n_modules = plan.module_count();
    const int n_strings = plan.topology.strings;

    // Wiring overhead is a property of the geometry, not of time.
    const auto centers = plan.centers_m(area.cell_size);
    const auto extra_lengths =
        pv::panel_extra_lengths(centers, plan.topology, options.wiring);

    EvaluationResult result;
    result.strings.resize(static_cast<std::size_t>(n_strings));
    for (int j = 0; j < n_strings; ++j) {
        result.strings[static_cast<std::size_t>(j)].extra_cable_m =
            extra_lengths[static_cast<std::size_t>(j)];
        result.extra_cable_m += extra_lengths[static_cast<std::size_t>(j)];
    }
    result.wiring_cost_usd = pv::wiring_cost(extra_lengths, options.wiring);

    const double k_th = field.config().thermal_k;
    const double step_h = field.time_grid().step_hours();
    const long n_steps = field.steps();
    const long stride = options.step_stride;
    const long n_samples = (n_steps + stride - 1) / stride;

    const ModuleIrradiance mode = options.module_irradiance;
    const FootprintRuns fr = footprint_runs(plan, mode);
    const solar::detail::FieldView view = field.view();
    const solar::detail::RowKernel row = solar::detail::row_kernel();
    const double cell_count = plan.geometry.cell_count();

    // Shard the time axis over sampled steps; each shard accumulates its
    // own Partial and the partials merge in shard order.  Within a
    // shard the sweep is step-major: per sampled daylight step the row
    // kernel fills the run buffer once, and each module folds its
    // footprint rows out of it in the scalar (yy, xx) cell order — the
    // additions / mins of anchor_irradiance_unchecked, so every g is
    // bitwise the per-cell value.  Scratch (the run buffer, the
    // operating-point vector, the panel aggregate) comes from a pool so
    // a shard reuses the previous shard's allocations.
    struct ShardScratch {
        std::vector<double> cells;  ///< run buffer, FootprintRuns::cells
        std::vector<pv::OperatingPoint> points;
        pv::PanelOperating panel;  ///< refilled per step, no allocation
    };
    ScratchPool<ShardScratch> scratch_pool;

    const Partial total = parallel_reduce(
        0L, n_samples, kStepsPerShard, Partial(static_cast<std::size_t>(n_strings)),
        [&](long kb, long ke) {
            Partial p(static_cast<std::size_t>(n_strings));
            auto scratch = scratch_pool.acquire();
            scratch->cells.resize(static_cast<std::size_t>(fr.cells));
            scratch->points.resize(static_cast<std::size_t>(n_modules));
            double* const buf = scratch->cells.data();
            std::vector<pv::OperatingPoint>& points = scratch->points;
            pv::PanelOperating& panel = scratch->panel;
            for (long k = kb; k < ke; ++k) {
                const long s = k * stride;
                if (!field.is_daylight(s)) continue;
                ++p.daylight_steps;
                // The sampled step stands in for the next `stride` real
                // steps — except the last sample, which only represents
                // the steps that actually remain in the horizon.
                const double dt_h =
                    step_h *
                    static_cast<double>(std::min(stride, n_steps - s));
                const double t_air = field.air_temperature(s);
                for (const Run& run : fr.runs)
                    row(view, run.y, s, run.x0, run.x1, buf + run.slot);
                for (int i = 0; i < n_modules; ++i) {
                    const int* slots =
                        fr.row_slot.data() +
                        static_cast<std::size_t>(i) *
                            static_cast<std::size_t>(fr.rows);
                    double g;
                    if (mode == ModuleIrradiance::AnchorCell) {
                        g = buf[slots[0]];
                    } else if (mode == ModuleIrradiance::WorstCell) {
                        g = std::numeric_limits<double>::infinity();
                        for (int r = 0; r < fr.rows; ++r)
                            for (int c = 0; c < fr.cols; ++c)
                                g = std::min(g, buf[slots[r] + c]);
                    } else {
                        double acc = 0.0;
                        for (int r = 0; r < fr.rows; ++r)
                            for (int c = 0; c < fr.cols; ++c)
                                acc += buf[slots[r] + c];
                        g = acc / cell_count;
                    }
                    points[static_cast<std::size_t>(i)] =
                        sample_operating_point(model, g, t_air, k_th);
                }
                pv::aggregate_panel(points, plan.topology, panel);

                double wiring_w = 0.0;
                if (options.include_wiring_loss) {
                    for (int j = 0; j < n_strings; ++j) {
                        const double loss = pv::wiring_power_loss(
                            extra_lengths[static_cast<std::size_t>(j)],
                            panel.strings[static_cast<std::size_t>(j)]
                                .current_a,
                            options.wiring);
                        wiring_w += loss;
                        p.string_wiring_loss_kwh[static_cast<std::size_t>(
                            j)] += loss * dt_h / 1000.0;
                    }
                }

                const double net_w = std::max(0.0, panel.power_w - wiring_w);
                p.energy_kwh += net_w * dt_h / 1000.0;
                p.ideal_energy_kwh += panel.ideal_power_w * dt_h / 1000.0;
                p.mismatch_loss_kwh += panel.mismatch_loss_w * dt_h / 1000.0;
                p.wiring_loss_kwh += wiring_w * dt_h / 1000.0;
                for (int j = 0; j < n_strings; ++j) {
                    p.string_energy_kwh[static_cast<std::size_t>(j)] +=
                        panel.voltage_v *
                        panel.strings[static_cast<std::size_t>(j)]
                            .current_a *
                        dt_h / 1000.0;
                }
            }
            return p;
        },
        merge);

    if (obs::enabled()) {
        obs::MetricsRegistry& reg = obs::registry();
        reg.counter("core.evaluate.cell_steps")
            .add(static_cast<std::uint64_t>(fr.cells) *
                 static_cast<std::uint64_t>(total.daylight_steps));
        reg.counter("core.evaluate.row_runs")
            .add(static_cast<std::uint64_t>(fr.runs.size()));
    }

    result.energy_kwh = total.energy_kwh;
    result.ideal_energy_kwh = total.ideal_energy_kwh;
    result.mismatch_loss_kwh = total.mismatch_loss_kwh;
    result.wiring_loss_kwh = total.wiring_loss_kwh;
    for (int j = 0; j < n_strings; ++j) {
        result.strings[static_cast<std::size_t>(j)].energy_kwh =
            total.string_energy_kwh[static_cast<std::size_t>(j)];
        result.strings[static_cast<std::size_t>(j)].wiring_loss_kwh =
            total.string_wiring_loss_kwh[static_cast<std::size_t>(j)];
    }
    return result;
}

}  // namespace pvfp::core
