#pragma once
/// \file sky_reference.hpp
/// Differential oracle for solar::prepare_sky_artifact: the unbatched
/// per-step loop the library shipped before its batched sweep (one
/// sun_position call plus the inline transposition block per step),
/// followed by the per-step float rounding and horizon-sector
/// interpolation that every IrradianceField ran for itself before the
/// step planes moved into the artifact.  It is the reference the
/// batched prepare must match bit for bit, series and planes alike, not
/// a production path.

#include "pvfp/solar/sky_artifact.hpp"

namespace pvfp::oracles {

/// Same contract, validation and output bits as
/// solar::prepare_sky_artifact.
solar::SharedSkyArtifact prepare_sky_artifact_reference(
    const solar::Location& location, const pvfp::TimeGrid& grid,
    std::vector<solar::EnvSample> env, solar::SkyModel sky_model,
    int azimuth_sectors);

}  // namespace pvfp::oracles
