// stps_perfbench: the repository's end-to-end benchmark (see README.md).
//
//   stps_perfbench --workload <join_sweep|serve_rw|snapshot_restart>
//                  --seed <n> --seconds <s> [--trace 0|1] [--smoke]
//                  [--work-dir <dir>] [--spans <file>]
//
// Prints the host/configuration line, one "metric" line per named
// measurement (value, unit, sample count), and as the last line the
// result object: {"correct", "attempted", "failed", "metrics"} with the
// four end-to-end slots, scaled to the reference host speed (Yardstick in
// bench.h). A traced run also writes its spans to --spans.
// Exit code 0 only when every correctness check passed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/parse.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: stps_perfbench --workload <join_sweep|serve_rw|"
               "snapshot_restart> --seed <n> --seconds <s> [--trace 0|1] "
               "[--smoke] [--work-dir <dir>] [--spans <file>]\n");
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      if (!stps::ParseUint64(argv[++i], &options.seed)) return Usage();
    } else if (arg == "--seconds" && has_value) {
      if (!stps::ParseDouble(argv[++i], &options.seconds) ||
          options.seconds <= 0) {
        return Usage();
      }
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return Usage();
      options.trace = v == "1";
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else if (arg == "--spans" && has_value) {
      options.spans_path = argv[++i];
    } else {
      return Usage();
    }
  }
  if (options.trace && options.spans_path.empty()) return Usage();

  perfbench::Tracer tracer(options.trace);
  perfbench::Report report;
  perfbench::RecordHostConfig(options, &report);
  perfbench::Yardstick yardstick;
  if (options.workload == "join_sweep") {
    perfbench::RunJoinSweep(options, tracer, &report);
  } else if (options.workload == "serve_rw") {
    perfbench::RunServeRw(options, tracer, &report);
  } else if (options.workload == "snapshot_restart") {
    perfbench::RunSnapshotRestart(options, tracer, &report);
  } else {
    return Usage();
  }
  // The slots read as on a host of the reference speed (bench.h); the
  // named metrics stay as measured.
  yardstick.Stop();
  report.Named("host.yardstick_ms", yardstick.MedianMs(), "ms",
               yardstick.samples());
  for (auto& [name, slot] : report.slots) slot.value *= yardstick.Factor();
  if (options.trace) {
    report.Attempt(tracer.WriteJsonLines(options.spans_path),
                   "cannot write spans to " + options.spans_path);
  }
  const double error_rate =
      report.attempted == 0 ? 1.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  report.Named("error_rate", error_rate, "fraction", report.attempted);
  const bool correct = report.failed == 0 && report.attempted > 0;

  std::printf("config {");
  for (size_t i = 0; i < report.config.size(); ++i) {
    std::printf("%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                JsonEscape(report.config[i].first).c_str(),
                JsonEscape(report.config[i].second).c_str());
  }
  std::printf("}\n");
  for (size_t i = 0; i < report.failures.size() && i < 10; ++i) {
    std::printf("failure %s\n", report.failures[i].c_str());
  }
  for (const auto& [name, m] : report.named) {
    std::printf("metric %s %.17g %s n=%zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, m] : report.slots) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
