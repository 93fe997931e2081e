/// \file city.cpp
/// The city workloads.  city_cold ranks the city with gis::run_city from a
/// fresh tile cache (per-roof horizon march, shared sky); city_rerank
/// re-ranks it through a caller-owned gis::HorizonCache that an earlier
/// run filled.  The traced run recomposes run_city's per-roof body from
/// the library's public calls and times each call as its layer.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <set>

#include "common.hpp"
#include "pvfp/core/pipeline.hpp"
#include "pvfp/geo/raster.hpp"
#include "pvfp/gis/horizon_cache.hpp"
#include "pvfp/grid/feeder_model.hpp"
#include "pvfp/grid/sequential_place.hpp"
#include "pvfp/util/parallel.hpp"
#include "pvfp/util/simd.hpp"

namespace perfbench {

namespace core = pvfp::core;
namespace geo = pvfp::geo;
namespace gis = pvfp::gis;
namespace solar = pvfp::solar;

namespace {

/// The layers of one roof, in call order: the span names of the traced
/// run.  "roof" is the enclosing span; its self time is the glue between
/// the calls (module model, panel geometry, result assembly).
const char* const kRoofLayers[] = {
    "gis.make_scenario", "geo.area",        "geo.horizon",
    "gis.horizon_window", "geo.normals",    "solar.field",
    "core.suitability",  "core.place_compact", "core.place_greedy",
    "core.evaluate",     "roof"};

/// What one recomposed pass produced besides its spans.
struct Recomposed {
    std::string jsonl;
    double wall_s = 0.0;
    std::size_t tile_hits = 0;
    std::size_t tile_misses = 0;
    long horizon_cell_sectors = 0;
    long suitability_cell_steps = 0;
    long greedy_candidates = 0;
};

/// run_city's per-roof body rebuilt from public calls, one span per
/// call: same sharding, same shared-sky preparation per shard, same site
/// override and per-roof march cap (or cache windows when \p horizon is
/// set), same thread policy.  The JSONL it returns must equal run_city's
/// byte for byte; that is what makes its layer times the program's.
Recomposed recompose_city(const City& city, const gis::CityRunOptions& options,
                          gis::HorizonCache* horizon, Tracer* tracer) {
    const gis::TileIndex& tiles = city.tiles;
    const gis::RoofRegistry& registry = city.registry;
    core::ScenarioConfig base = options.config;
    base.cell_size = tiles.cell_size();
    base.shared_sky = nullptr;
    const auto location_of = [&](const gis::RoofRecord& rec) {
        solar::Location loc = base.location;
        if (rec.has_location) {
            loc.latitude_deg = rec.latitude_deg;
            loc.longitude_deg = rec.longitude_deg;
        }
        return loc;
    };

    Recomposed out;
    gis::TileCache cache(options.tile_cache_tiles);
    std::map<std::pair<double, double>,
             std::shared_ptr<const solar::SharedSkyArtifact>>
        artifacts;
    std::atomic<long> cell_sectors{0};
    std::atomic<long> cell_steps{0};
    std::atomic<long> candidates{0};
    const Clock::time_point t0 = Clock::now();
    const long total = registry.size();

    for (long begin = 0; begin < total; begin += options.shard_size) {
        const long end = std::min(total, begin + options.shard_size);
        const long n = end - begin;
        std::vector<gis::RoofResult> shard(static_cast<std::size_t>(n));

        std::set<std::pair<double, double>> needed;
        for (long i = begin; i < end; ++i) {
            const solar::Location loc = location_of(registry.record(i));
            needed.insert({loc.latitude_deg, loc.longitude_deg});
        }
        for (auto it = artifacts.begin(); it != artifacts.end();)
            it = needed.count(it->first) ? std::next(it) : artifacts.erase(it);
        for (const auto& key : needed) {
            if (artifacts.count(key)) continue;
            const solar::Location loc{key.first, key.second,
                                      base.location.timezone_hours};
            std::vector<solar::EnvSample> env;
            {
                ScopedSpan span(tracer, "weather.synthetic");
                env = pvfp::weather::generate_synthetic_weather(
                    loc, base.grid, base.weather);
            }
            ScopedSpan span(tracer, "solar.sky_prepare");
            artifacts.emplace(key, solar::make_shared_sky(
                                       loc, base.grid, std::move(env),
                                       base.field.sky_model));
        }

        const auto process = [&](long k) {
            const long index = begin + k;
            ScopedSpan roof_span(tracer, "roof", static_cast<int>(index));
            const gis::RoofRecord& rec = registry.record(index);
            gis::RoofResult& r = shard[static_cast<std::size_t>(k)];
            r.id = rec.id;
            try {
                gis::RoofPlaneFit fit;
                gis::WindowOrigin origin;
                std::optional<core::RoofScenario> scenario;
                {
                    ScopedSpan span(tracer, "gis.make_scenario");
                    scenario = gis::make_scenario(rec, tiles, options.build,
                                                  &cache, &fit, &origin);
                }
                core::ScenarioConfig config = base;
                config.location = location_of(rec);
                if (!horizon) {
                    config.horizon.max_distance = std::min(
                        config.horizon.max_distance,
                        options.build.context_margin_m +
                            std::hypot(rec.bbox.width(), rec.bbox.height()));
                }
                config.shared_sky = artifacts.at(
                    {config.location.latitude_deg,
                     config.location.longitude_deg});

                const geo::Raster& dsm = *scenario->dsm;
                std::optional<geo::PlacementArea> area;
                {
                    ScopedSpan span(tracer, "geo.area");
                    area = geo::extract_placement_area(
                        dsm, scenario->scene, scenario->roof_index,
                        config.area, scenario->placement_mask.get());
                }
                std::optional<geo::HorizonMap> map;
                if (horizon) {
                    ScopedSpan span(tracer, "gis.horizon_window");
                    const double cs = tiles.cell_size();
                    map = horizon->window(origin.x + area->origin_col * cs,
                                          origin.y - area->origin_row * cs,
                                          area->origin_col, area->origin_row,
                                          area->width, area->height);
                } else {
                    ScopedSpan span(tracer, "geo.horizon");
                    map.emplace(dsm, area->origin_col, area->origin_row,
                                area->width, area->height, config.horizon);
                    cell_sectors += static_cast<long>(area->width) *
                                    area->height *
                                    config.horizon.azimuth_sectors;
                }
                geo::NormalMap normals;
                {
                    ScopedSpan span(tracer, "geo.normals");
                    normals = geo::NormalMap::from_dsm(
                        dsm, area->origin_col, area->origin_row, area->width,
                        area->height);
                }
                solar::FieldConfig field_config = config.field;
                field_config.location = config.location;
                std::optional<solar::IrradianceField> field;
                {
                    ScopedSpan span(tracer, "solar.field");
                    field.emplace(std::move(*map), config.shared_sky,
                                  area->tilt_rad, area->azimuth_rad,
                                  field_config, std::move(normals));
                }
                core::SuitabilityResult suitability;
                {
                    ScopedSpan span(tracer, "core.suitability");
                    suitability = core::compute_suitability(
                        *field, *area, config.suitability);
                }
                const long stride = config.suitability.step_stride;
                cell_steps += static_cast<long>(area->valid_count) *
                              ((field->steps() + stride - 1) / stride);

                const pvfp::pv::EmpiricalModuleModel model(config.module);
                const core::PanelGeometry geometry =
                    core::PanelGeometry::from_module(config.module,
                                                     config.cell_size);
                r.valid_cells = area->valid_count;
                r.area_w = area->width;
                r.area_h = area->height;
                r.tilt_deg = fit.tilt_deg;
                r.azimuth_deg = fit.azimuth_deg;
                r.fit_rmse_m = fit.rmse_m;
                for (const pvfp::pv::Topology& topology : options.topologies) {
                    std::optional<core::CompactResult> compact;
                    {
                        ScopedSpan span(tracer, "core.place_compact");
                        compact = core::place_compact(
                            *area, suitability.suitability, geometry, topology);
                    }
                    core::GreedyStats stats;
                    std::optional<core::Floorplan> proposed;
                    {
                        ScopedSpan span(tracer, "core.place_greedy");
                        proposed = core::place_greedy(
                            *area, suitability.suitability, geometry,
                            topology, options.greedy, &stats);
                    }
                    candidates += stats.candidate_count;
                    double compact_kwh = 0.0;
                    double proposed_kwh = 0.0;
                    {
                        ScopedSpan span(tracer, "core.evaluate");
                        compact_kwh = core::evaluate_floorplan(
                                          compact->plan, *area, *field, model,
                                          options.eval)
                                          .energy_kwh;
                    }
                    {
                        ScopedSpan span(tracer, "core.evaluate");
                        proposed_kwh = core::evaluate_floorplan(
                                           *proposed, *area, *field, model,
                                           options.eval)
                                           .energy_kwh;
                    }
                    gis::RoofTopologyResult t;
                    t.topology = topology;
                    t.proposed_kwh = proposed_kwh;
                    t.compact_kwh = compact_kwh;
                    t.improvement_pct =
                        (compact_kwh > 0.0 ? proposed_kwh / compact_kwh - 1.0
                                           : 0.0) *
                        100.0;
                    r.best_kwh = std::max(r.best_kwh, t.proposed_kwh);
                    r.topologies.push_back(t);
                }
                r.ok = true;
            } catch (const std::exception& e) {
                gis::RoofResult failed;
                failed.id = rec.id;
                failed.error = e.what();
                r = std::move(failed);
            }
        };

        if (n > 1 && n >= pvfp::thread_count()) {
            pvfp::parallel_for(0, n, 1, [&](long b, long e) {
                pvfp::SerialScope serial;
                for (long k = b; k < e; ++k) process(k);
            });
        } else {
            for (long k = 0; k < n; ++k) process(k);
        }
        for (long k = 0; k < n; ++k) {
            ScopedSpan span(tracer, "gis.jsonl", static_cast<int>(begin + k));
            out.jsonl += gis::roof_result_to_jsonl(shard[static_cast<std::size_t>(k)]);
            out.jsonl += '\n';
        }
    }
    out.wall_s = seconds_since(t0);
    out.tile_hits = cache.hits();
    out.tile_misses = cache.misses();
    out.horizon_cell_sectors = cell_sectors;
    out.suitability_cell_steps = cell_steps;
    out.greedy_candidates = candidates;
    return out;
}

/// Self time of each span: its duration minus the time its children
/// cover.
std::vector<double> self_ms(const std::vector<Tracer::Span>& spans) {
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].duration_ms();
    for (const Tracer::Span& s : spans)
        if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.duration_ms();
    return self;
}

/// Self times grouped by span name.
std::map<std::string, std::vector<double>> self_ms_by_name(
    const std::vector<Tracer::Span>& spans) {
    const std::vector<double> self = self_ms(spans);
    std::map<std::string, std::vector<double>> out;
    for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name].push_back(self[i]);
    return out;
}

/// One timed gis::run_city pass; returns its JSONL bytes.
struct CityPass {
    std::string jsonl;
    double wall_s = 0.0;
    gis::CityRunSummary summary;
};

CityPass timed_run_city(const City& city, gis::CityRunOptions options,
                        const std::string& jsonl_path,
                        gis::HorizonCache* horizon = nullptr) {
    options.jsonl_path = jsonl_path;
    options.shared_horizon_cache = horizon;
    CityPass pass;
    const Clock::time_point t0 = Clock::now();
    pass.summary = gis::run_city(city.tiles, city.registry, options);
    pass.wall_s = seconds_since(t0);
    pass.jsonl = read_file(jsonl_path);
    return pass;
}

/// The pinned digest of \p workload's stream for the default seed, or
/// "" when \p args.seed is another seed.
std::string pinned_digest(const RunArgs& args, const std::string& workload) {
    const auto default_seed =
        static_cast<std::uint64_t>(args.config.at("default_seed").as_number());
    if (args.seed != default_seed) return "";
    return args.config.at("pinned_jsonl_digests").at(workload).as_string();
}

/// Setup timing: the fixture, scan and registry load, done five times;
/// the median goes into setup_s.
double city_setup_median_s(const RunArgs& args, std::optional<City>& city) {
    std::vector<double> times;
    for (int i = 0; i < 5; ++i) {
        const Clock::time_point t0 = Clock::now();
        city.emplace(make_city(args.work_dir + "/city", args.seed));
        times.push_back(seconds_since(t0));
    }
    return median(times);
}

/// The untraced measurement loop shared by both city workloads: run
/// \p pass until the run's seconds are spent (at least twice), check
/// every repetition against \p reference, and fill the end-to-end
/// metrics.
void measure_city(const RunArgs& args, const std::string& workload,
                  const std::function<CityPass(int)>& pass,
                  const std::string& reference, Report& report) {
    std::vector<double> roofs_per_s;
    std::string first;
    const Clock::time_point t0 = Clock::now();
    for (int rep = 0; rep < 2 || seconds_since(t0) < args.seconds; ++rep) {
        const CityPass p = pass(rep);
        roofs_per_s.push_back(static_cast<double>(p.summary.processed) /
                              p.wall_s);
        report.attempted += p.summary.total;
        if (rep == 0) first = p.jsonl;
        const long bad = count_line_mismatches(reference.empty() ? first : reference,
                                               p.jsonl);
        if (bad) report.fail(bad, workload + ": repetition " +
                                      std::to_string(rep) + " differs in " +
                                      std::to_string(bad) + " lines");
    }
    const std::string pinned = pinned_digest(args, workload);
    if (!pinned.empty() && digest(first) != pinned)
        report.fail(static_cast<long>(split_lines(first).size()),
                    workload + ": stream digest " + digest(first) +
                        " != pinned " + pinned);
    std::string reps;
    for (double r : roofs_per_s) reps += " " + std::to_string(r);
    report.lines.push_back(workload + ": stream digest " + digest(first) +
                           ", " + std::to_string(roofs_per_s.size()) +
                           " repetitions, roofs/s:" + reps);

    report.set("throughput_per_s", median(roofs_per_s), "1/s");
    report.lines.push_back(workload + ": mean improvement over compact " +
                           std::to_string(improvement_pct_mean(first)) + " %");
}

/// Per-layer metrics of a traced pass: p50 across roofs and run total
/// of each layer's self time, its share of roof time, and the
/// throughput ceiling if the layer took no time (the Amdahl line).
void layer_metrics(const std::vector<Tracer::Span>& spans,
                   double untraced_roofs_per_s, Report& report) {
    // Per roof, per layer: summed self time (a roof evaluates twice).
    std::map<std::string, std::map<int, double>> per_roof;
    const std::vector<double> self = self_ms(spans);
    double roof_time_ms = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span& s = spans[i];
        if (s.roof < 0) continue;
        per_roof[s.name][s.roof] += self[i];
        if (s.name == "roof") roof_time_ms += s.duration_ms();
    }
    const auto totals = self_ms_by_name(spans);
    const auto total_of = [&](const std::string& name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : sum(it->second);
    };

    char buf[256];
    std::snprintf(buf, sizeof buf, "%-22s %12s %10s %8s %16s", "layer",
                  "self_total_ms", "p50/roof", "share", "ceiling_roofs/s");
    report.lines.push_back(buf);
    for (const char* layer : kRoofLayers) {
        std::vector<double> values;
        for (const auto& [roof, ms] : per_roof[layer]) values.push_back(ms);
        const double total = sum(values);
        const double share = roof_time_ms > 0 ? total / roof_time_ms : 0.0;
        const double ceiling =
            share < 1.0 ? untraced_roofs_per_s / (1.0 - share) : 0.0;
        const std::string name = std::string(layer) == "roof" ? "roof.glue" : layer;
        report.set(name + "_ms", median(values), "ms");
        report.set(name + "_total_ms", total, "ms");
        report.set("share." + name, share, "ratio");
        report.set("ceiling_roofs_per_s." + name, ceiling, "1/s");
        std::snprintf(buf, sizeof buf, "%-22s %12.1f %10.3f %7.1f%% %16.2f",
                      name.c_str(), total, median(values), share * 100.0,
                      ceiling);
        report.lines.push_back(buf);
    }
    std::vector<double> roof_ms;
    for (const Tracer::Span& s : spans)
        if (s.name == "roof") roof_ms.push_back(s.duration_ms());
    report.set("roof_ms", median(roof_ms), "ms");
    report.set("roof_total_ms", roof_time_ms, "ms");
    report.set("gis.jsonl_total_ms", total_of("gis.jsonl"), "ms");
    report.set("weather.synthetic_ms", total_of("weather.synthetic"), "ms");
    report.set("solar.sky_prepare_ms", total_of("solar.sky_prepare"), "ms");
}

/// The SIMD ladder: the three kernel-bearing stages timed at every level
/// the CPU supports (p50 across roofs), with the stream checked
/// byte-equal at each level.
void simd_ladder(const City& city, const gis::CityRunOptions& options,
                 gis::HorizonCache* horizon, const std::string& reference,
                 Report& report) {
    std::vector<pvfp::SimdLevel> levels{pvfp::SimdLevel::Scalar};
    if (pvfp::cpu_supports_avx2()) levels.push_back(pvfp::SimdLevel::Avx2);
    if (pvfp::cpu_supports_avx512()) levels.push_back(pvfp::SimdLevel::Avx512);
    for (const pvfp::SimdLevel level : levels) {
        pvfp::set_simd_level(level);
        Tracer tracer;
        const Recomposed pass = recompose_city(city, options, horizon, &tracer);
        const std::string suffix = std::string(".") + pvfp::simd_level_name(level);
        const auto times = self_ms_by_name(tracer.spans());
        for (const char* layer : {"core.suitability", "geo.horizon", "solar.field"}) {
            const auto it = times.find(layer);
            report.set(std::string(layer) + "_ms" + suffix,
                       it == times.end() ? 0.0 : median(it->second), "ms");
        }
        report.attempted += city.registry.size();
        const long bad = count_line_mismatches(reference, pass.jsonl);
        if (bad) report.fail(bad, std::string("SIMD level ") +
                                      pvfp::simd_level_name(level) +
                                      " changes " + std::to_string(bad) +
                                      " lines");
    }
    pvfp::set_simd_level_auto();
}

/// The traced run of either city workload.
Report trace_city(const RunArgs& args, bool rerank) {
    Report report;
    const std::string workload = rerank ? "city_rerank" : "city_cold";
    const City city = make_city(args.work_dir + "/city", args.seed);
    const gis::CityRunOptions options = city_options();

    gis::TileCache horizon_tiles(16);
    gis::HorizonCacheOptions cache_options;
    cache_options.horizon = options.config.horizon;
    std::optional<gis::HorizonCache> cache;
    std::string cold_jsonl;
    if (rerank) {
        cache.emplace(city.tiles, &horizon_tiles, cache_options);
        const CityPass fill = timed_run_city(
            city, options, args.work_dir + "/fill.jsonl", &*cache);
        report.set("gis.horizon_populate_s", fill.wall_s, "s");
        cold_jsonl = fill.jsonl;
    }
    gis::HorizonCache* horizon = rerank ? &*cache : nullptr;

    // Untraced run_city passes and traced recompositions alternate,
    // twice each, so neither side alone pays the process's first-run
    // costs; the spans are the second traced pass's.
    CityPass ref;
    Recomposed rec;
    Tracer tracer;
    gis::HorizonCacheStats before;
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    for (int rep = 0; rep < 2; ++rep) {
        ref = timed_run_city(city, options, args.work_dir + "/ref.jsonl", horizon);
        untraced_s.push_back(ref.wall_s);
        report.attempted += ref.summary.total;
        if (rerank) {
            const long bad = count_line_mismatches(cold_jsonl, ref.jsonl);
            if (bad) report.fail(bad, "warm re-rank differs from the filling run");
        }
        tracer.clear();
        before = horizon ? horizon->stats() : gis::HorizonCacheStats{};
        rec = recompose_city(city, options, horizon, &tracer);
        traced_s.push_back(rec.wall_s);
        report.attempted += city.registry.size();
        const long bad = count_line_mismatches(ref.jsonl, rec.jsonl);
        if (bad) report.fail(bad, "recomposed JSONL differs from run_city in " +
                                      std::to_string(bad) + " lines");
    }
    write_file(args.spans_path, tracer.to_jsonl());

    const double roofs = static_cast<double>(city.registry.size());
    const double untraced = roofs / median(untraced_s);
    const double traced = roofs / median(traced_s);
    layer_metrics(tracer.spans(), untraced, report);
    report.set("trace.overhead_frac", traced / untraced, "ratio");
    report.set("city.roofs_per_s", untraced, "1/s");
    report.set("quality.improvement_pct_mean", improvement_pct_mean(ref.jsonl), "%");
    report.set("gis.tile_cache_hit_ratio",
               static_cast<double>(rec.tile_hits) /
                   std::max<double>(1.0, static_cast<double>(rec.tile_hits + rec.tile_misses)),
               "ratio");
    if (horizon) {
        const gis::HorizonCacheStats after = horizon->stats();
        const double hits = static_cast<double>(after.hits + after.joins -
                                                before.hits - before.joins);
        const double misses = static_cast<double>(after.misses - before.misses);
        report.set("gis.horizon_cache_hit_ratio",
                   hits / std::max(1.0, hits + misses), "ratio");
        report.set("gis.horizon_cache_mb",
                   static_cast<double>(after.bytes) / (1 << 20), "MiB");
    }
    const auto times = self_ms_by_name(tracer.spans());
    const auto total_ns = [&](const char* name) {
        const auto it = times.find(name);
        return it == times.end() ? 0.0 : sum(it->second) * 1e6;
    };
    report.set("geo.horizon_cell_sectors",
               static_cast<double>(rec.horizon_cell_sectors), "count");
    report.set("geo.horizon_ns_per_cell_sector",
               rec.horizon_cell_sectors
                   ? total_ns("geo.horizon") / static_cast<double>(rec.horizon_cell_sectors)
                   : 0.0,
               "ns");
    report.set("core.suitability_cell_steps",
               static_cast<double>(rec.suitability_cell_steps), "count");
    report.set("core.suitability_ns_per_cell_step",
               total_ns("core.suitability") /
                   std::max(1.0, static_cast<double>(rec.suitability_cell_steps)),
               "ns");
    report.set("core.greedy_candidates",
               static_cast<double>(rec.greedy_candidates), "count");

    // grid: the feeder-aware planner over this run's results.
    const pvfp::grid::FeederModel feeders =
        pvfp::grid::FeederModel::load(city.fixture.csv_feeder_path);
    std::vector<double> grid_ms;
    for (int i = 0; i < 5; ++i) {
        const Clock::time_point t0 = Clock::now();
        (void)pvfp::grid::sequential_place(feeders, ref.summary.results);
        grid_ms.push_back(ms_since(t0));
    }
    report.set("grid.sequential_place_ms", median(grid_ms), "ms");

    simd_ladder(city, options, horizon, ref.jsonl, report);

    // Parallel efficiency: the same pass on one thread.
    const int threads = pvfp::thread_count();
    pvfp::set_thread_count(1);
    const CityPass single = timed_run_city(city, options,
                                           args.work_dir + "/single.jsonl", horizon);
    pvfp::set_thread_count(0);
    report.attempted += single.summary.total;
    const long bad1 = count_line_mismatches(ref.jsonl, single.jsonl);
    if (bad1) report.fail(bad1, "1-thread stream differs from the N-thread one");
    report.set("util.parallel_efficiency",
               single.wall_s / (threads * median(untraced_s)), "ratio");
    report.lines.push_back(workload + ": " + std::to_string(threads) +
                           " threads, " + std::to_string(untraced) +
                           " roofs/s untraced, " + std::to_string(traced) +
                           " traced");
    return report;
}

}  // namespace

Report run_city_cold(const RunArgs& args) {
    if (args.trace) return trace_city(args, false);
    Report report;
    std::optional<City> city;
    const double setup_s = city_setup_median_s(args, city);
    const gis::CityRunOptions options = city_options();
    measure_city(
        args, "city_cold",
        [&](int rep) {
            return timed_run_city(*city, options, args.work_dir + "/cold" +
                                                      std::to_string(rep) + ".jsonl");
        },
        "", report);
    report.set("setup_s", setup_s, "s");
    return report;
}

Report run_city_rerank(const RunArgs& args) {
    if (args.trace) return trace_city(args, true);
    Report report;
    std::optional<City> city;
    const double fixture_s = city_setup_median_s(args, city);
    const gis::CityRunOptions options = city_options();
    gis::TileCache horizon_tiles(16);
    gis::HorizonCacheOptions cache_options;
    cache_options.horizon = options.config.horizon;
    gis::HorizonCache cache(city->tiles, &horizon_tiles, cache_options);
    const CityPass fill =
        timed_run_city(*city, options, args.work_dir + "/fill.jsonl", &cache);
    report.attempted += fill.summary.total;
    measure_city(
        args, "city_rerank",
        [&](int rep) {
            return timed_run_city(*city, options,
                                  args.work_dir + "/warm" + std::to_string(rep) + ".jsonl",
                                  &cache);
        },
        fill.jsonl, report);
    report.set("setup_s", fixture_s + fill.wall_s, "s");
    return report;
}

}  // namespace perfbench
