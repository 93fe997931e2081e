#pragma once
/// \file suitability_reference.hpp
/// Differential oracle for core::compute_suitability: the per-cell
/// sweep the library shipped before its step-major rewrite.  Each valid
/// cell runs the gathered series kernel over the sampled time axis, the
/// fused binning pass turns the series into bin indices, and two
/// pvfp::Histogram objects per cell count them.  Slow and memory-hungry
/// by design — it is the reference the blocked sweep must match bit for
/// bit, not a production path.

#include "pvfp/core/suitability.hpp"

namespace pvfp::oracles {

/// Same contract, options and output bits as core::compute_suitability.
core::SuitabilityResult compute_suitability_reference(
    const solar::IrradianceField& field, const geo::PlacementArea& area,
    const core::SuitabilityOptions& options = {});

}  // namespace pvfp::oracles
