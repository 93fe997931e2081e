/// \file serve_latency.cpp
/// Serving-plane latency bench: cold vs warm request cost on the
/// always-on daemon (ROADMAP "always-on ranking service").
///
/// Generates a synthetic city, then measures three request shapes
/// through pvfp::serve::Server pipe-mode sessions under a production
/// sky configuration:
///   1. cold plan   — fresh server per request: every plan pays tile
///      decode + plane fit + horizon march + the full sky precompute
///      (what a batch CLI would pay per invocation);
///   2. warm plan   — the same requests against one resident server:
///      everything above is cached, a plan re-runs only placement +
///      evaluation;
///   3. warm rank   — topology comparison on resident state.
/// The cold/warm ratio is the resident-state speedup the serving layer
/// exists for; `--json out.json` records every section for the BENCH_*
/// trajectory (scripts/collect_bench_serve.sh).
///
///   bench_serve_latency [--roofs N] [--minutes M] [--warm K]
///                       [--json out.json]

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "pvfp/gis/fixture.hpp"
#include "pvfp/serve/server.hpp"
#include "pvfp/util/parallel.hpp"

namespace {

/// One pipe-mode session; returns the response bytes.
std::string session(pvfp::serve::Server& server, const std::string& in) {
    std::istringstream is(in);
    std::ostringstream os;
    (void)server.serve(is, os);
    return os.str();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace pvfp;
    using Clock = std::chrono::steady_clock;

    bench::BenchReporter reporter(argc, argv);
    int roofs = 12;
    int minutes = 5;
    int warm = 50;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (arg == "--roofs") roofs = std::atoi(next());
        else if (arg == "--minutes") minutes = std::atoi(next());
        else if (arg == "--warm") warm = std::atoi(next());
    }

    bench::print_banner(std::cout, "Serving-plane latency",
                        "ROADMAP: always-on ranking service");

    const std::string dir =
        (std::filesystem::temp_directory_path() / "pvfp_bench_serve")
            .string();
    std::filesystem::remove_all(dir);
    gis::CityFixtureOptions fixture_options;
    fixture_options.roofs = roofs;
    const gis::CityFixture fixture =
        gis::generate_city_fixture(dir, fixture_options);
    const gis::TileIndex tiles = gis::TileIndex::scan(dir);
    const gis::RoofRegistry registry =
        gis::RoofRegistry::load(fixture.csv_index_path);

    serve::ServerOptions options;
    options.state.config.grid = TimeGrid(minutes, 1, 365);
    options.state.config.suitability.step_stride = 96;
    options.state.eval.step_stride = 96;
    options.state.topologies = {{8, 2}};
    std::cout << "fixture: " << fixture.records << " roofs, "
              << fixture.tiles_written << " tiles, " << minutes
              << "-minute grid, " << thread_count() << " threads\n\n";

    const auto plan_request = [&](long i) {
        return "{\"op\":\"plan\",\"id\":\"" +
               registry.record(i % registry.size()).id +
               "\",\"series\":6,\"strings\":2}\n";
    };

    // ---- Cold: a fresh server per plan (every request pays the full
    // prepare: tiles + fit + horizon + sky precompute).
    constexpr int kCold = 3;
    double cold_ms = 0.0;
    for (int i = 0; i < kCold; ++i) {
        serve::Server server(tiles, registry, options);
        const auto t0 = Clock::now();
        const std::string out = session(server, plan_request(i));
        cold_ms += std::chrono::duration<double, std::milli>(Clock::now() -
                                                             t0)
                       .count();
        if (out.find("\"status\":\"ok\"") == std::string::npos) {
            std::cerr << "cold plan failed: " << out;
            return 1;
        }
    }
    cold_ms /= kCold;
    reporter.record("serve/cold_plan_ms", cold_ms, 1);
    std::cout << "cold plan   : " << cold_ms << " ms (avg of " << kCold
              << ", fresh server each)\n";

    // ---- Warm: one resident server, same roofs round-robin.
    serve::Server server(tiles, registry, options);
    for (int i = 0; i < kCold; ++i)  // pre-warm the touched roofs
        (void)session(server, plan_request(i));
    std::string warm_batch;
    for (int i = 0; i < warm; ++i) warm_batch += plan_request(i % kCold);
    const auto w0 = Clock::now();
    const std::string warm_out = session(server, warm_batch);
    const double warm_total =
        std::chrono::duration<double, std::milli>(Clock::now() - w0)
            .count();
    const double warm_ms = warm_total / warm;
    reporter.record("serve/warm_plan_ms", warm_ms, warm);
    std::cout << "warm plan   : " << warm_ms << " ms (" << warm
              << " requests, resident state)\n";

    std::string rank_batch;
    for (int i = 0; i < warm; ++i)
        rank_batch += "{\"op\":\"rank\",\"id\":\"" +
                      registry.record(i % kCold).id + "\"}\n";
    const auto r0 = Clock::now();
    (void)session(server, rank_batch);
    const double rank_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - r0)
            .count() /
        warm;
    reporter.record("serve/warm_rank_ms", rank_ms, warm);
    std::cout << "warm rank   : " << rank_ms << " ms\n";

    if ((void)warm_out, warm_ms > 0.0)
        std::cout << "\ncold/warm plan speedup: " << cold_ms / warm_ms
                  << "x (resident tiles + sky + prepared roofs)\n";
    std::filesystem::remove_all(dir);
    return 0;
}
