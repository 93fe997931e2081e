#pragma once
/// \file pipeline.hpp
/// End-to-end orchestration: scene -> DSM -> suitable area -> horizons ->
/// weather -> irradiance field -> suitability -> placements -> energy.
/// This is the programmatic equivalent of the paper's full flow (GIS data
/// extraction of Section IV feeding the algorithm of Section III), and the
/// single entry point used by examples and benches.

#include <memory>
#include <span>
#include <string>

#include "pvfp/core/compact_placer.hpp"
#include "pvfp/core/evaluator.hpp"
#include "pvfp/core/greedy_placer.hpp"
#include "pvfp/core/roof_library.hpp"
#include "pvfp/core/suitability.hpp"
#include "pvfp/geo/horizon.hpp"
#include "pvfp/solar/sky_artifact.hpp"
#include "pvfp/weather/synthetic.hpp"

namespace pvfp::core {

/// Every knob of the pipeline, with paper-faithful defaults.
struct ScenarioConfig {
    solar::Location location{};  ///< Torino defaults
    pvfp::TimeGrid grid{15, 1, 365};  ///< one year at 15-minute steps
    weather::SyntheticWeatherOptions weather{};
    solar::FieldConfig field{};
    geo::SuitableAreaOptions area{};
    geo::HorizonOptions horizon{};
    SuitabilityOptions suitability{};
    pv::ModuleSpec module{};
    /// Virtual grid pitch s [m] (paper: 0.2); also the DSM resolution.
    double cell_size = 0.2;
    /// Shared per-batch sky precompute (ROADMAP "shared-weather
    /// batching").  When set, prepare_scenario consumes it instead of
    /// regenerating synthetic weather and the per-step sun/transposition
    /// precompute for every roof; it must have been prepared for this
    /// config's location, grid, and sky model (checked).  run_scenarios
    /// prepares one automatically when unset.  Results are bitwise
    /// identical either way.
    std::shared_ptr<const solar::SharedSkyArtifact> shared_sky;
    /// Optional shared horizon source (ROADMAP "share prepared
    /// HorizonMaps between adjacent roofs").  When set,
    /// prepare_scenario asks it for the placement window's horizons —
    /// arguments are the scenario DSM and the window the local build
    /// would march — before marching locally; returning std::nullopt
    /// falls back to the local build.  The returned map must cover
    /// exactly the requested window (checked).  gis::HorizonCache
    /// windows satisfy the determinism contract: served planes are
    /// bitwise-identical to a fresh HorizonMap over the same terrain,
    /// independent of thread count and eviction order.
    geo::HorizonProvider horizon_provider;
};

/// A scenario with all derived data materialized, ready for experiments.
struct PreparedScenario {
    std::string name;
    /// The DSM the artifacts were derived from — shared, never null:
    /// GIS scenarios alias their (immutable) mosaic instead of copying
    /// a possibly multi-megabyte window per roof; procedural scenarios
    /// own their rasterization.
    std::shared_ptr<const geo::Raster> dsm;
    geo::PlacementArea area;
    solar::IrradianceField field;
    SuitabilityResult suitability;
    pv::EmpiricalModuleModel model;
    PanelGeometry geometry;
    ScenarioConfig config;
};

/// Build every derived artifact of \p scenario under \p config.
PreparedScenario prepare_scenario(const RoofScenario& scenario,
                                  const ScenarioConfig& config = {});

/// One Table-I style comparison: traditional vs proposed on a topology.
struct PlacementComparison {
    Floorplan traditional;
    CompactMode traditional_mode = CompactMode::FullBlock;
    Floorplan proposed;
    GreedyStats greedy_stats;
    EvaluationResult traditional_eval;
    EvaluationResult proposed_eval;

    /// Fractional improvement of proposed over traditional (Table I "%").
    double improvement() const {
        return traditional_eval.energy_kwh > 0.0
                   ? proposed_eval.energy_kwh /
                             traditional_eval.energy_kwh -
                         1.0
                   : 0.0;
    }
};

/// Run both placers and evaluate them over the full horizon.
PlacementComparison compare_placements(
    const PreparedScenario& prepared, const pv::Topology& topology,
    const GreedyOptions& greedy_options = {},
    const EvaluationOptions& eval_options = {});

/// How the batch runner distributes its work over the thread pool.
enum class ParallelPolicy {
    /// Outer-loop when the batch is at least as wide as the pool (many
    /// small roofs), inner-loop otherwise (few big roofs).
    Auto,
    /// One scenario per task; each scenario's own loops run serially.
    /// Best when scenarios are many and individually small.
    OuterScenarios,
    /// Scenarios processed one after the other; each one's horizon /
    /// field / evaluation loops fan out.  Best for few large roofs.
    InnerLoops,
};

/// Batch configuration: which topologies to compare on every scenario,
/// and how to parallelize.
struct BatchOptions {
    /// Topologies compared on each scenario (paper Table I: 8x2, 8x4).
    std::vector<pv::Topology> topologies{{8, 2}, {8, 4}};
    GreedyOptions greedy{};
    EvaluationOptions eval{};
    ParallelPolicy policy = ParallelPolicy::Auto;
};

/// Everything the batch produced for one scenario.
struct ScenarioReport {
    PreparedScenario prepared;
    /// One comparison per BatchOptions::topologies entry, same order.
    std::vector<PlacementComparison> comparisons;
};

/// Prepare and compare many roof scenarios concurrently — the many-roofs
/// workload (one report per input scenario, input order preserved).
/// Results are identical under every policy and thread count: scenarios
/// are independent, and the inner loops use deterministic fixed-chunk
/// parallelism.  The first exception thrown by any scenario (e.g.
/// Infeasible when a topology does not fit) is rethrown.
std::vector<ScenarioReport> run_scenarios(
    std::span<const RoofScenario> scenarios,
    const ScenarioConfig& config = {}, const BatchOptions& options = {});

}  // namespace pvfp::core
