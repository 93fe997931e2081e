#pragma once
/// \file evaluate_reference.hpp
/// Differential oracle for core::evaluate_floorplan: the module-major
/// loop the library shipped before its step-major rewrite.  Each time
/// shard builds every module's footprint-irradiance series through
/// core::anchor_irradiance_series (one gathered series per footprint
/// cell), then walks the shard's steps aggregating the panel.  It is
/// the reference the row-run sweep must match bit for bit, not a
/// production path.

#include "pvfp/core/evaluator.hpp"

namespace pvfp::oracles {

/// Same contract, options and output bits as core::evaluate_floorplan.
core::EvaluationResult evaluate_floorplan_reference(
    const core::Floorplan& plan, const geo::PlacementArea& area,
    const solar::IrradianceField& field,
    const pv::EmpiricalModuleModel& model,
    const core::EvaluationOptions& options = {});

}  // namespace pvfp::oracles
