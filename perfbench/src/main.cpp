/// \file main.cpp
/// pvfp_perfbench — the repository's benchmark program.
///
///   pvfp_perfbench --workload <city_cold|city_rerank|serve_zipf>
///                  --seed <n> --seconds <s> --trace <0|1>
///
/// Run from the root of a checkout (perfbench/run.py builds and starts
/// it).  Inputs are generated from --seed; the program under test sees
/// only them.  With --trace 0 the workload runs untraced and reports the
/// end-to-end metrics of BENCHMARK.json; with --trace 1 a separate traced
/// run reports the per-layer metrics.  Human-readable lines come first;
/// the last line of standard output is the JSON result.  A record with
/// the machine fingerprint, every metric and every failed check is
/// written to .bench_work/records/.

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;
namespace gis = pvfp::gis;

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out + "\"";
}

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int usage(const char* why) {
    std::cerr << "pvfp_perfbench: " << why
              << "\nusage: pvfp_perfbench --workload <city_cold|city_rerank|"
                 "serve_zipf> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    RunArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (!value) return usage(("missing value for " + arg).c_str());
        ++i;
        if (arg == "--workload") args.workload = value;
        else if (arg == "--seed") args.seed = std::stoull(value);
        else if (arg == "--seconds") args.seconds = std::stod(value);
        else if (arg == "--trace") args.trace = std::strcmp(value, "0") != 0;
        else return usage(("unknown argument " + arg).c_str());
    }
    Report (*workload)(const RunArgs&) = nullptr;
    if (args.workload == "city_cold") workload = run_city_cold;
    else if (args.workload == "city_rerank") workload = run_city_rerank;
    else if (args.workload == "serve_zipf") workload = run_serve_zipf;
    else return usage("unknown workload");

    try {
        const gis::JsonValue bench = gis::JsonValue::parse(read_file("BENCHMARK.json"));
        args.config = gis::JsonValue::parse(read_file("perfbench/config.json"));
        const std::string tag = args.workload + "-seed" + std::to_string(args.seed) +
                                "-trace" + (args.trace ? "1" : "0");
        args.work_dir = ".bench_work/" + tag;
        args.spans_path = ".bench_work/records/" + tag + ".spans.jsonl";
        std::filesystem::remove_all(args.work_dir);
        std::filesystem::create_directories(args.work_dir);
        std::filesystem::create_directories(".bench_work/records");

        Report report = workload(args);
        if (!args.trace) {
            if (!report.metrics.count("peak_rss_mb"))
                report.set("peak_rss_mb", peak_rss_mb(), "MiB");
            report.set("ok_frac",
                       report.attempted > 0
                           ? 1.0 - static_cast<double>(report.failed) /
                                       static_cast<double>(report.attempted)
                           : 0.0,
                       "ratio");
        }

        // Every metric of the run's list, in BENCHMARK.json's units.  A
        // per-layer metric a workload does not exercise reads 0.
        const gis::JsonValue& list = bench.at(args.trace ? "per_layer" : "end_to_end");
        std::string metrics;
        for (const gis::JsonValue& entry : list.as_array()) {
            const std::string& name = entry.at("name").as_string();
            const std::string& unit = entry.at("unit").as_string();
            const auto it = report.metrics.find(name);
            if (it == report.metrics.end() && !args.trace)
                throw std::runtime_error("workload did not measure " + name);
            const double value = it == report.metrics.end() ? 0.0 : it->second.value;
            if (it != report.metrics.end() && it->second.unit != unit)
                throw std::runtime_error(name + " measured in " + it->second.unit +
                                         ", BENCHMARK.json says " + unit);
            metrics += std::string(metrics.empty() ? "" : ", ") + json_string(name) +
                       ": {\"value\": " + json_number(value) +
                       ", \"unit\": " + json_string(unit) + "}";
        }

        std::string record = "{\"workload\": " + json_string(args.workload) +
                             ", \"seed\": " + std::to_string(args.seed) +
                             ", \"trace\": " + (args.trace ? "1" : "0") +
                             ", \"machine\": {";
        bool first = true;
        for (const auto& [key, value] : machine_fingerprint()) {
            std::cout << "machine." << key << ": " << value << "\n";
            record += std::string(first ? "" : ", ") + json_string(key) + ": " +
                      json_string(value);
            first = false;
        }
        record += "}, \"metrics\": {";
        first = true;
        for (const auto& [name, metric] : report.metrics) {
            record += std::string(first ? "" : ", ") + json_string(name) +
                      ": {\"value\": " + json_number(metric.value) +
                      ", \"unit\": " + json_string(metric.unit) + "}";
            first = false;
        }
        record += "}, \"problems\": [";
        for (std::size_t i = 0; i < report.problems.size(); ++i)
            record += std::string(i ? ", " : "") + json_string(report.problems[i]);
        record += "]}\n";
        write_file(".bench_work/records/" + tag + ".json", record);

        for (const std::string& line : report.lines) std::cout << line << "\n";
        for (const std::string& problem : report.problems)
            std::cout << "CHECK FAILED: " << problem << "\n";
        for (const auto& [name, metric] : report.metrics) {
            char buf[160];
            std::snprintf(buf, sizeof buf, "%-44s %16.6f %s", name.c_str(),
                          metric.value, metric.unit.c_str());
            std::cout << buf << "\n";
        }
        std::filesystem::remove_all(args.work_dir);
        const bool correct = report.failed == 0 && report.problems.empty();
        std::cout << "{\"correct\": " << (correct ? "true" : "false")
                  << ", \"attempted\": " << std::max(1L, report.attempted)
                  << ", \"failed\": " << report.failed << ", \"metrics\": {"
                  << metrics << "}}" << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "pvfp_perfbench: " << e.what() << "\n";
        return 1;
    }
}
