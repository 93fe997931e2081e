#pragma once
/// \file horizon_reference.hpp
/// Differential oracle for the geo::HorizonMap constructor: the per-cell
/// build the library shipped before its batched row-march kernels.
/// Every (cell, sector) marches the DSM on its own, sampling bilinearly
/// and calling atan2 at every step that sees terrain above the observer.
/// Slow by design — it is the reference the batched kernels must match
/// bit for bit at every SIMD level, not a production path.

#include "pvfp/geo/horizon.hpp"
#include "pvfp/geo/raster.hpp"

namespace pvfp::oracles {

/// Same contract, options and output bits as the geo::HorizonMap ctor.
geo::HorizonMap horizon_map_reference(const geo::Raster& dsm, int x0,
                                      int y0, int win_w, int win_h,
                                      const geo::HorizonOptions& options = {});

}  // namespace pvfp::oracles
