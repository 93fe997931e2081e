#include "oracles/evaluate_reference.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "pvfp/pv/array.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/parallel.hpp"

namespace pvfp::oracles {
namespace {

/// Same shard size as the library, so the merge order matches.
constexpr long kStepsPerShard = 256;

/// Per-shard accumulator: the time-dependent slice of EvaluationResult.
struct Partial {
    double energy_kwh = 0.0;
    double ideal_energy_kwh = 0.0;
    double mismatch_loss_kwh = 0.0;
    double wiring_loss_kwh = 0.0;
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
    for (std::size_t j = 0; j < acc.string_energy_kwh.size(); ++j) {
        acc.string_energy_kwh[j] += p.string_energy_kwh[j];
        acc.string_wiring_loss_kwh[j] += p.string_wiring_loss_kwh[j];
    }
    return acc;
}

}  // namespace

core::EvaluationResult evaluate_floorplan_reference(
    const core::Floorplan& plan, const geo::PlacementArea& area,
    const solar::IrradianceField& field,
    const pv::EmpiricalModuleModel& model,
    const core::EvaluationOptions& options) {
    std::string why;
    check_arg(core::floorplan_feasible(plan, area, &why),
              "evaluate_floorplan: infeasible plan: " + why);
    check_arg(field.width() == area.width && field.height() == area.height,
              "evaluate_floorplan: field window does not match area");
    check_arg(options.step_stride >= 1,
              "evaluate_floorplan: step_stride must be >= 1");
    pv::check_topology(plan.topology, plan.module_count());

    const int n_modules = plan.module_count();
    const int n_strings = plan.topology.strings;

    const auto centers = plan.centers_m(area.cell_size);
    const auto extra_lengths =
        pv::panel_extra_lengths(centers, plan.topology, options.wiring);

    core::EvaluationResult result;
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

    const Partial total = parallel_reduce(
        0L, n_samples, kStepsPerShard,
        Partial(static_cast<std::size_t>(n_strings)),
        [&](long kb, long ke) {
            Partial p(static_cast<std::size_t>(n_strings));
            std::vector<long> steps;
            std::vector<double> dt_hs;
            std::vector<double> t_airs;
            for (long k = kb; k < ke; ++k) {
                const long s = k * stride;
                if (!field.is_daylight(s)) continue;
                steps.push_back(s);
                dt_hs.push_back(
                    step_h *
                    static_cast<double>(std::min(stride, n_steps - s)));
                t_airs.push_back(field.air_temperature(s));
            }
            const std::size_t nk = steps.size();
            if (nk == 0) return p;
            // Module-major: every module's footprint series for the
            // whole shard, one gathered series per footprint cell.
            std::vector<double> g(static_cast<std::size_t>(n_modules) * nk);
            for (int i = 0; i < n_modules; ++i) {
                const core::ModulePlacement& m =
                    plan.modules[static_cast<std::size_t>(i)];
                core::anchor_irradiance_series(
                    plan.geometry, m.x, m.y, field, steps,
                    options.module_irradiance,
                    g.data() + static_cast<std::size_t>(i) * nk);
            }
            std::vector<pv::OperatingPoint> points(
                static_cast<std::size_t>(n_modules));
            for (std::size_t k = 0; k < nk; ++k) {
                const double dt_h = dt_hs[k];
                const double t_air = t_airs[k];
                for (int i = 0; i < n_modules; ++i) {
                    points[static_cast<std::size_t>(i)] =
                        core::sample_operating_point(
                            model, g[static_cast<std::size_t>(i) * nk + k],
                            t_air, k_th);
                }
                const auto panel = pv::aggregate_panel(points, plan.topology);

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

}  // namespace pvfp::oracles
