#pragma once
/// \file common.hpp
/// Shared pieces of the pvfp benchmark: the workload configurations, the
/// generated city, timing and order statistics, the benchmark's own
/// in-memory trace spans, and the result record every workload fills.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "pvfp/gis/city_runner.hpp"
#include "pvfp/gis/fixture.hpp"
#include "pvfp/gis/json.hpp"
#include "pvfp/gis/roof_registry.hpp"
#include "pvfp/gis/tile_index.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);
double ms_since(Clock::time_point t0);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double sum(const std::vector<double>& values);

/// FNV-1a 64 over \p bytes, as 16 hex digits.
std::string digest(const std::string& bytes);
std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& bytes);

/// Peak resident set of this process [MiB].
double peak_rss_mb();

/// Lines of \p text, without their newlines.
std::vector<std::string> split_lines(const std::string& text);

/// Lines of \p got that differ from \p want, counting missing or extra
/// lines too.
long count_line_mismatches(const std::string& want, const std::string& got);

/// CPU model, core count, dispatched SIMD level, compiler and build type.
std::map<std::string, std::string> machine_fingerprint();

/// Everything one invocation is told on its command line, plus the
/// benchmark's fixed settings (perfbench/config.json).
struct RunArgs {
    std::string workload;
    std::uint64_t seed = 7;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;  ///< scratch space inside the checkout
    std::string spans_path;  ///< where a traced run writes its spans
    pvfp::gis::JsonValue config;  ///< perfbench/config.json
};

/// The generated input city: fixture on disk, scanned tiles, index.
struct City {
    pvfp::gis::CityFixture fixture;
    pvfp::gis::TileIndex tiles;
    pvfp::gis::RoofRegistry registry;
};

/// Generate the 60-record city of \p seed into \p dir and load it.
City make_city(const std::string& dir, std::uint64_t seed);

/// cfg.city: 15-minute grid over one year, suitability/eval stride 4,
/// 72 sectors, 40 m march, topology 8x2, shared sky.
pvfp::gis::CityRunOptions city_options();

/// cfg.serve: 5-minute grid over one year, stride 96, 48 sectors,
/// topology 8x2 (the serve-latency bench's configuration).
pvfp::gis::CityRunOptions serve_city_options();

/// Mean proposed-over-compact gain [%] of the first topology over the
/// successful roofs of a JSONL stream (the paper's Table I quantity).
double improvement_pct_mean(const std::string& jsonl);

/// One named measurement.
struct Metric {
    double value = 0.0;
    std::string unit;
};

/// What a workload reports: the end-to-end or per-layer metrics, the
/// operation accounting, and free-form notes for the record file.
struct Report {
    std::map<std::string, Metric> metrics;
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> problems;  ///< failed checks, human-readable
    std::vector<std::string> lines;     ///< human-readable summary lines

    void set(const std::string& name, double value, const std::string& unit) {
        metrics[name] = Metric{value, unit};
    }
    void fail(long ops, const std::string& why);
};

/// The benchmark's own spans: name, start, end, parent and roof, kept in
/// memory and written out when the run ends.  Spans nest per thread.
class Tracer {
public:
    struct Span {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        int parent = -1;
        int roof = -1;
        double duration_ms() const { return (end_ns - start_ns) * 1e-6; }
    };

    int begin(const std::string& name, int roof);
    void end(int id);
    std::vector<Span> spans() const;
    void clear();
    /// One JSON object per span, one per line.
    std::string to_jsonl() const;

private:
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
public:
    ScopedSpan(Tracer* tracer, const std::string& name, int roof = -1)
        : tracer_(tracer), id_(tracer ? tracer->begin(name, roof) : -1) {}
    ~ScopedSpan() {
        if (tracer_) tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    Tracer* tracer_;
    int id_;
};

/// The workloads.
Report run_city_cold(const RunArgs& args);
Report run_city_rerank(const RunArgs& args);
Report run_serve_zipf(const RunArgs& args);

}  // namespace perfbench
