#pragma once
/// \file resident_state.hpp
/// The serving daemon's hot state: prepared roofs that stay resident.
///
/// A batch run amortizes tile decode and the ~105k-step sky precompute
/// across one pass and then exits; a serving process must instead keep
/// exactly that state alive between requests so a re-plan costs
/// milliseconds.  ResidentState owns the long-lived layers:
///
///   TileIndex (scanned once)  +  RoofRegistry (swappable snapshot)
///   -> TileCache              (decoded tiles, bounded LRU, PR-5)
///   -> per-site SharedSkyArtifact cache (one sun/transposition
///      precompute and one set of irradiance step planes per distinct
///      site, shared by every roof there)
///   -> per-roof PreparedRoof cache (mosaic + plane fit + HorizonMap +
///      IrradianceField's two tilt-dependent planes + suitability —
///      everything a rank/plan request needs), LRU-evicted against a
///      byte budget accounted from the actual buffer sizes.
///
/// Entries are content-hashed over the registry record and the build
/// knobs, so an index edit (new bbox, moved polygon, changed site)
/// invalidates exactly the affected roofs on their next request after
/// update_registry — stale state can never serve.  Both the roof and the
/// sky layers are KeyedCaches: concurrent requests for the same cold roof
/// join one in-flight build, and requests for different roofs prepare
/// fully in parallel.  All responses derived from a
/// PreparedRoof are bitwise deterministic at any thread count (the
/// PR-2..PR-5 contract), so caching is invisible in the output bytes —
/// the property the serving plane's replay gate rests on.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pvfp/core/pipeline.hpp"
#include "pvfp/gis/horizon_cache.hpp"
#include "pvfp/gis/roof_registry.hpp"
#include "pvfp/gis/tile_index.hpp"
#include "pvfp/util/keyed_cache.hpp"

namespace pvfp::serve {

/// Everything the daemon applies to every roof it prepares.
struct ServeConfig {
    /// Pipeline configuration shared by every roof (cell_size is
    /// overridden by the tile set's; location by registry lat/lon).
    core::ScenarioConfig config{};
    /// Topologies a `rank` request compares.
    std::vector<pv::Topology> topologies{{8, 2}};
    core::GreedyOptions greedy{};
    core::EvaluationOptions eval{};
    gis::ScenarioBuildOptions build{};
    /// Resident decoded tiles in the shared LRU cache.
    std::size_t tile_cache_tiles = 16;
    /// Byte budget for resident roofs + sky artifacts + shared horizon
    /// planes.  The LRU evicts past it after every build; the most
    /// recent entry is always kept, so a single roof larger than the
    /// budget still serves (the budget then bounds *additional*
    /// residency, not that one roof).
    std::size_t memory_budget_bytes = 512ull << 20;
    /// Share horizon marching across roofs (gis::HorizonCache): sector
    /// planes are computed once per macro tile over a max_distance-halo
    /// mosaic and each prepared roof assembles its window from the
    /// cached planes.  Served results then match a
    /// `run_city --shared-horizon` stream (uniform march distance over
    /// real neighbouring terrain) instead of the cold per-roof-capped
    /// one; either mode is bitwise deterministic.
    bool share_horizon = false;
};

/// One roof's resident hot state — immutable once built, shared with
/// any request currently using it (eviction only drops the cache's
/// reference, never memory in use).
struct PreparedRoof {
    std::string id;
    /// FNV-1a over the registry record + build knobs; a mismatch with
    /// the current registry means the entry is stale.
    std::uint64_t content_hash = 0;
    gis::RoofPlaneFit fit{};
    /// The per-roof adjusted configuration (site override, horizon
    /// march clamp, shared sky) — identical to what run_city applies,
    /// so a served result equals the batch JSONL record bit for bit.
    core::ScenarioConfig config{};
    core::PreparedScenario prepared;
    /// Actual buffer footprint: DSM window + placement mask + horizon
    /// planes + irradiance SoA planes + suitability grids.
    std::size_t resident_bytes = 0;
};

/// Accounting snapshot (approximate under concurrency; exact when
/// quiescent).
struct ResidentStats {
    std::size_t entries = 0;         ///< resident PreparedRoofs
    /// Aggregate: prepared + sky + horizon bytes (the budget's view).
    std::size_t resident_bytes = 0;
    /// Per-cache byte accounting (status op: tiles/sky/prepared/horizon).
    std::size_t tile_cache_bytes = 0;  ///< decoded tiles (outside budget)
    std::size_t sky_bytes = 0;         ///< resident sky artifacts
    std::size_t prepared_bytes = 0;    ///< resident PreparedRoof buffers
    std::size_t sky_artifacts = 0;   ///< distinct resident sites
    std::size_t hits = 0;            ///< served without building
    std::size_t misses = 0;          ///< builds initiated
    std::size_t evictions = 0;       ///< entries dropped for the budget
    std::size_t invalidations = 0;   ///< entries dropped as stale
    std::size_t tile_cache_hits = 0;
    std::size_t tile_cache_misses = 0;
    /// Shared horizon cache accounting (share_horizon; zero otherwise).
    std::size_t horizon_cache_hits = 0;
    std::size_t horizon_cache_misses = 0;
    std::size_t horizon_cache_evictions = 0;
    std::size_t horizon_cache_bytes = 0;
};

class ResidentState {
public:
    ResidentState(gis::TileIndex tiles, gis::RoofRegistry registry,
                  ServeConfig config);

    /// The prepared hot state of \p roof_id: resident entry when fresh,
    /// else built (joining an identical in-flight build when one is
    /// running).  Throws InvalidArgument for an unknown id; build
    /// failures (footprint off the tiles, ...) propagate to every
    /// joined caller and leave nothing cached.
    std::shared_ptr<const PreparedRoof> prepare(const std::string& roof_id);

    /// Swap the registry (an edited index reloaded).  Resident entries
    /// are revalidated lazily: the next prepare() of a changed roof sees
    /// the content-hash mismatch and rebuilds; untouched roofs keep
    /// serving from cache.
    void update_registry(gis::RoofRegistry registry);

    /// Drop one roof's resident entry (no-op when absent).
    void invalidate(const std::string& roof_id);

    /// Registry record for \p roof_id, nullptr when unknown.  The
    /// returned pointer stays valid while the returned snapshot guard
    /// is held.
    std::shared_ptr<const gis::RoofRegistry> registry() const;

    const gis::TileIndex& tiles() const { return tiles_; }
    const ServeConfig& config() const { return serve_config_; }

    ResidentStats stats() const;

private:
    std::shared_ptr<PreparedRoof> build_roof(const gis::RoofRecord& record,
                                             std::uint64_t hash);
    std::shared_ptr<const solar::SharedSkyArtifact> sky_for(
        const solar::Location& location);
    void evict_over_budget();

    gis::TileIndex tiles_;
    ServeConfig serve_config_;
    core::ScenarioConfig base_config_;  ///< config with tile cell size
    gis::TileCache tile_cache_;
    /// Shared macro-tile horizon planes (share_horizon; else null).
    /// Its bytes count against memory_budget_bytes: the roof eviction
    /// pass shrinks it once the resident roofs alone fit.
    std::unique_ptr<gis::HorizonCache> horizon_cache_;

    mutable std::mutex registry_mutex_;
    std::shared_ptr<const gis::RoofRegistry> registry_;
    /// id -> record index of *registry_ (rebuilt on update_registry).
    std::shared_ptr<const std::unordered_map<std::string, long>> by_id_;

    /// Roof id -> prepared roof, tagged with the record content hash.
    /// Unbounded itself: evict_over_budget applies the memory budget.
    KeyedCache<std::string, PreparedRoof> roofs_;
    /// Site (lat, lon) -> sky artifact; an artifact stays while a
    /// resident roof uses it.
    KeyedCache<std::pair<double, double>, solar::SharedSkyArtifact> skies_;
    std::mutex budget_mutex_;  ///< serializes eviction passes
};

/// Actual buffer footprint of a prepared scenario (the accounting unit
/// of the memory budget), excluding the step planes its field reads from
/// the site's sky artifact; exposed for the eviction tests.
std::size_t prepared_scenario_bytes(const core::PreparedScenario& prepared);

/// Bytes of one shared sky artifact: its env series, daylight flags and
/// isotropic diffuse share, and the step planes every roof of the site
/// reads.
std::size_t sky_artifact_bytes(const solar::SharedSkyArtifact& artifact);

/// FNV-1a content hash of a registry record under \p build — the
/// invalidation key of the resident cache.
std::uint64_t roof_record_hash(const gis::RoofRecord& record,
                               const gis::ScenarioBuildOptions& build);

}  // namespace pvfp::serve
