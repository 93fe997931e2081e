#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "pvfp/util/simd.hpp"

namespace perfbench {

namespace gis = pvfp::gis;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
    double s = 0.0;
    for (double v : values) s += v;
    return s;
}

std::string digest(const std::string& bytes) {
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
    if (!os.good()) throw std::runtime_error("cannot write " + path);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) lines.push_back(line);
    return lines;
}

long count_line_mismatches(const std::string& want, const std::string& got) {
    const std::vector<std::string> a = split_lines(want);
    const std::vector<std::string> b = split_lines(got);
    long bad = static_cast<long>(std::max(a.size(), b.size()) -
                                 std::min(a.size(), b.size()));
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        if (a[i] != b[i]) ++bad;
    return bad;
}

std::map<std::string, std::string> machine_fingerprint() {
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            cpu = line.substr(line.find(':') + 2);
            break;
        }
    }
    return {
        {"cpu", cpu},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"simd", pvfp::simd_level_name(pvfp::simd_level())},
        {"compiler", std::string("g++ ") + __VERSION__},
        {"build_type",
         std::string(PERFBENCH_BUILD_TYPE) + " (" PERFBENCH_CXX_FLAGS ")"},
    };
}

City make_city(const std::string& dir, std::uint64_t seed) {
    std::filesystem::remove_all(dir);
    gis::CityFixtureOptions options;
    options.roofs = 60;
    options.seed = seed;
    gis::CityFixture fixture = gis::generate_city_fixture(dir, options);
    gis::TileIndex tiles = gis::TileIndex::scan(dir);
    gis::RoofRegistry registry = gis::RoofRegistry::load(fixture.csv_index_path);
    return City{std::move(fixture), std::move(tiles), std::move(registry)};
}

gis::CityRunOptions city_options() {
    gis::CityRunOptions options;
    options.config.grid = pvfp::TimeGrid(15, 1, 365);
    options.config.suitability.step_stride = 4;
    options.eval.step_stride = 4;
    options.config.horizon.azimuth_sectors = 72;
    options.config.horizon.max_distance = 40.0;
    options.topologies = {{8, 2}};
    return options;
}

gis::CityRunOptions serve_city_options() {
    gis::CityRunOptions options;
    options.config.grid = pvfp::TimeGrid(5, 1, 365);
    options.config.suitability.step_stride = 96;
    options.eval.step_stride = 96;
    options.config.horizon.azimuth_sectors = 48;
    options.topologies = {{8, 2}};
    return options;
}

double improvement_pct_mean(const std::string& jsonl) {
    double total = 0.0;
    long n = 0;
    for (const std::string& line : split_lines(jsonl)) {
        const gis::RoofResult r = gis::roof_result_from_jsonl(line);
        if (!r.ok || r.topologies.empty()) continue;
        total += r.topologies.front().improvement_pct;
        ++n;
    }
    return n ? total / static_cast<double>(n) : 0.0;
}

void Report::fail(long ops, const std::string& why) {
    failed += ops;
    problems.push_back(why);
}

namespace {
thread_local int t_current_span = -1;
}

int Tracer::begin(const std::string& name, int roof) {
    Span span;
    span.name = name;
    span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - epoch_)
                        .count();
    span.parent = t_current_span;
    std::lock_guard<std::mutex> lock(mutex_);
    // A child span inherits its parent's roof id.
    span.roof = roof >= 0 || span.parent < 0
                    ? roof
                    : spans_[static_cast<std::size_t>(span.parent)].roof;
    spans_.push_back(std::move(span));
    t_current_span = static_cast<int>(spans_.size() - 1);
    return t_current_span;
}

void Tracer::end(int id) {
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = now;
    t_current_span = span.parent;
}

std::vector<Tracer::Span> Tracer::spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void Tracer::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
}

std::string Tracer::to_jsonl() const {
    std::string out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                      "\"end_ns\":%lld,\"parent\":%d,\"roof\":%d}\n",
                      i, s.name.c_str(), static_cast<long long>(s.start_ns),
                      static_cast<long long>(s.end_ns), s.parent, s.roof);
        out += buf;
    }
    return out;
}

}  // namespace perfbench
