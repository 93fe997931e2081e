#pragma once
/// \file evaluator.hpp
/// Yearly energy evaluation of a floorplan (the objective of the paper's
/// optimization, Section III-A: "maximize the energy extracted in the
/// interval [0, NT]").
///
/// Per time step: each module sees the mean plane-of-array irradiance over
/// its footprint cells (option: worst cell), its actual temperature
/// Tact = Tair + k*G, and operates at its empirical maximum power point;
/// modules aggregate through the series-parallel min-rules (pv::array) and
/// the sparse placement pays the per-string wiring loss R*Lextra*I^2
/// (pv::wiring).  Integration uses the midpoint rule over the TimeGrid.

#include <span>

#include "pvfp/core/layout.hpp"
#include "pvfp/pv/wiring.hpp"
#include "pvfp/solar/irradiance.hpp"

namespace pvfp::core {

/// How a multi-cell module aggregates its footprint irradiance.
enum class ModuleIrradiance {
    FootprintMean,  ///< average over covered cells (default, physical)
    WorstCell,      ///< pessimistic: minimum over covered cells
    /// The paper's granularity: the module takes the G/T of its anchor
    /// grid point ("each grid point has a specific value of G and T",
    /// Section III-A).  Cell-scale variance then transfers 1:1 into
    /// module output instead of averaging out — required to reproduce
    /// Table I magnitudes; see the evaluation-granularity ablation.
    AnchorCell,
};

struct EvaluationOptions {
    pv::WiringSpec wiring{};
    bool include_wiring_loss = true;
    ModuleIrradiance module_irradiance = ModuleIrradiance::FootprintMean;
    /// Evaluate every k-th step; each sampled step is billed for the real
    /// steps it represents (k, clamped for the trailing interval when the
    /// horizon is not a multiple of k).  Exact at 1.
    long step_stride = 1;
};

/// Per-string breakdown.
struct StringEnergy {
    double energy_kwh = 0.0;       ///< string share of panel energy (V*Ij)
    double extra_cable_m = 0.0;
    double wiring_loss_kwh = 0.0;
};

/// Totals over the horizon.
struct EvaluationResult {
    /// Net extracted energy (panel minus wiring losses) [kWh].
    double energy_kwh = 0.0;
    /// Energy with ideal per-module MPPT (no mismatch, no wiring) [kWh].
    double ideal_energy_kwh = 0.0;
    /// Series/parallel mismatch loss [kWh].
    double mismatch_loss_kwh = 0.0;
    /// Wiring loss [kWh] and material.
    double wiring_loss_kwh = 0.0;
    double extra_cable_m = 0.0;
    double wiring_cost_usd = 0.0;
    std::vector<StringEnergy> strings;

    double net_mwh() const { return energy_kwh / 1000.0; }
};

/// Evaluate \p plan against \p field with \p model.  The floorplan must be
/// feasible on the field's window (checked).
EvaluationResult evaluate_floorplan(const Floorplan& plan,
                                    const geo::PlacementArea& area,
                                    const solar::IrradianceField& field,
                                    const pv::EmpiricalModuleModel& model,
                                    const EvaluationOptions& options = {});

/// Footprint irradiance of one module at one step (exposed for tests);
/// validates the module index, the step, and that the module footprint
/// lies inside the field window.
double module_irradiance(const Floorplan& plan, int module_index,
                         const solar::IrradianceField& field, long step,
                         ModuleIrradiance mode);

/// Footprint irradiance of a geometry-sized footprint anchored at (x, y):
/// the per-module value evaluate_floorplan computes (it folds the same
/// cells in the same order out of its row-run buffer), shared with the
/// IncrementalEvaluator so both compute bitwise-identical values.
/// Preconditions (footprint inside the field window, step in range) are
/// debug-asserted only — validate at the call-site boundary.
double anchor_irradiance_unchecked(const PanelGeometry& geometry, int x, int y,
                                   const solar::IrradianceField& field,
                                   long step, ModuleIrradiance mode);

/// Batched footprint irradiance: out[k] = anchor_irradiance_unchecked of
/// the footprint anchored at (x, y) at steps[k] — bitwise identical to
/// the per-step scalar loop (it rides the field's series kernel, one
/// series per footprint cell, and folds footprint cells in the scalar
/// cell order).  This is the per-anchor path of the
/// IncrementalEvaluator's series build and of ideal_anchor_energies
/// (evaluate_floorplan sweeps step-major over the plan's footprint row
/// runs with the row kernel instead).
/// Preconditions as anchor_irradiance_unchecked; the step span is
/// validated here, once, not per footprint cell.
void anchor_irradiance_series(const PanelGeometry& geometry, int x, int y,
                              const solar::IrradianceField& field,
                              std::span<const long> steps,
                              ModuleIrradiance mode, double* out);

/// Operating point of one module seeing irradiance \p g at air temperature
/// \p t_air: Tact = Tair + k*G (paper Section III-B1), then the empirical
/// maximum-power model.  Deliberately a non-inline shared kernel so the
/// full and incremental evaluators produce the same bits.
pv::OperatingPoint sample_operating_point(const pv::EmpiricalModuleModel& model,
                                          double g, double t_air,
                                          double thermal_k);

}  // namespace pvfp::core
