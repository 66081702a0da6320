// emx_e2e — the end-to-end benchmark harness (driven by run.py).
//
//   emx_e2e gen --workload=W --seed=N --dir=D [--tiny]
//       Generates the workload's inputs into D (scale workloads only; the
//       case study is generated inside the measured process).
//   emx_e2e run --workload=W --seed=N --seconds=S --trace=0|1 --dir=D
//               [--trace-out=FILE] [--tiny] [--corrupt=NAME]
//       Measures one run. Prints a human-readable summary and, as its last
//       line, "E2E_RESULT {...}" with correct/attempted/failed/metrics.
//       Exit code 1 when an output check failed.
//   emx_e2e selftest --dir=D
//       Runs every workload at tiny size clean and with each deliberate
//       output corruption; exit code 0 only if every clean run passes its
//       checks and every corrupted one trips them.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "e2e_bench/bench_util.h"
#include "e2e_bench/inputs.h"
#include "e2e_bench/workloads.h"

namespace emx_e2e {
namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) continue;
    size_t eq = a.find('=');
    std::string value = eq == std::string::npos ? std::string(1, '1')
                                                : a.substr(eq + 1);
    flags[a.substr(2, eq == std::string::npos ? std::string::npos : eq - 2)] =
        std::move(value);
  }
  return flags;
}

bool KnownWorkload(const std::string& w) {
  return w == "batch_sf100" || w == "case_study" || w == "serve_read" ||
         w == "serve_mixed";
}

RunReport RunWorkload(const RunOptions& opts) {
  RunReport report;
  if (opts.workload == "batch_sf100") {
    RunBatchSf(opts, report);
  } else if (opts.workload == "case_study") {
    RunCaseStudy(opts, report);
  } else {
    RunServe(opts, report);
  }
  if (!opts.trace) {
    double attempted = static_cast<double>(report.attempted);
    report.metrics["ok_rate"] =
        (attempted - static_cast<double>(report.failed)) / attempted;
  }
  return report;
}

void PrintReport(const RunOptions& opts, const RunReport& report) {
  if (opts.trace) {
    std::printf("per-layer self time (traced run):\n");
    for (const auto& [name, value] : report.metrics) {
      if (name.size() > 7 && name.compare(name.size() - 7, 7, ".self_s") == 0) {
        std::printf("  %-12s %10.4f s\n",
                    name.substr(0, name.size() - 7).c_str(), value);
      }
    }
    auto it = report.metrics.find("trace.overhead_frac");
    if (it != report.metrics.end()) {
      std::printf("  trace.overhead_frac %+.4f\n", it->second);
    }
  }
  for (const std::string& f : report.check_failures) {
    std::printf("OUTPUT CHECK FAILED: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += (first ? "\"" : ", \"") + name + "\": " + buf;
    first = false;
  }
  json += "}}";
  std::printf("E2E_RESULT %s\n", json.c_str());
  std::fflush(stdout);
}

int Gen(const std::map<std::string, std::string>& flags) {
  const std::string workload =
      flags.count("workload") ? flags.at("workload") : "";
  if (!KnownWorkload(workload) || !flags.count("dir")) {
    std::fprintf(stderr, "gen: --workload and --dir are required\n");
    return 2;
  }
  if (!IsScaleWorkload(workload)) return 0;
  uint64_t seed = flags.count("seed")
                      ? std::strtoull(flags.at("seed").c_str(), nullptr, 10)
                      : 1;
  OrDie(GenerateScaleInputs(workload, seed, flags.count("tiny") > 0,
                            flags.at("dir")),
        "input generation");
  return 0;
}

Corruption ParseCorruption(const std::string& name) {
  if (name == "drop_matches") return Corruption::kDropMatches;
  if (name == "unstable_output") return Corruption::kUnstableOutput;
  if (name == "corrupt_csv") return Corruption::kCorruptCsv;
  if (name == "wrong_lookup") return Corruption::kWrongLookup;
  if (name == "drop_served") return Corruption::kDropServed;
  if (name == "late_send") return Corruption::kLateSend;
  if (name == "lost_write") return Corruption::kLostWrite;
  return Corruption::kNone;
}

int Run(const std::map<std::string, std::string>& flags) {
  RunOptions opts;
  opts.workload = flags.count("workload") ? flags.at("workload") : "";
  if (!KnownWorkload(opts.workload) || !flags.count("dir")) {
    std::fprintf(stderr, "run: --workload and --dir are required\n");
    return 2;
  }
  opts.dir = flags.at("dir");
  if (flags.count("seed")) {
    opts.seed = std::strtoull(flags.at("seed").c_str(), nullptr, 10);
  }
  if (flags.count("seconds")) {
    opts.seconds = std::atof(flags.at("seconds").c_str());
  }
  opts.trace = flags.count("trace") && flags.at("trace") == "1";
  if (flags.count("trace-out")) opts.trace_out = flags.at("trace-out");
  opts.tiny = flags.count("tiny") > 0;
  if (flags.count("corrupt")) {
    opts.corrupt = ParseCorruption(flags.at("corrupt"));
  }

  RunReport report = RunWorkload(opts);
  if (opts.trace && !opts.trace_out.empty()) {
    if (Trace::Get().WriteChromeJson(opts.trace_out)) {
      std::printf("trace: %s\n", opts.trace_out.c_str());
    } else {
      std::printf("trace: cannot write %s\n", opts.trace_out.c_str());
    }
  }
  PrintReport(opts, report);
  return report.correct ? 0 : 1;
}

// Each case runs in its own process (the harness binary re-invoked), so a
// corruption that aborts cannot take the other cases down with it.
int SelfTest(const std::map<std::string, std::string>& flags,
             const char* self) {
  if (!flags.count("dir")) {
    std::fprintf(stderr, "selftest: --dir is required\n");
    return 2;
  }
  const std::string dir = flags.at("dir");
  // Each corrupted case names the output check it must trip.
  struct Case {
    const char* workload;
    const char* corrupt;
    int trace;
    const char* trips;
  };
  const Case cases[] = {
      {"batch_sf100", "none", 0, ""},
      {"batch_sf100", "none", 1, ""},
      {"batch_sf100", "drop_matches", 0, "gold P/R"},
      {"batch_sf100", "unstable_output", 0, "differs between jobs"},
      {"batch_sf100", "unstable_output", 1, "staged run's match set differs"},
      {"batch_sf100", "corrupt_csv", 0, "matches.csv differs"},
      {"case_study", "none", 0, ""},
      {"case_study", "none", 1, ""},
      {"case_study", "drop_matches", 0, "gold P/R"},
      {"case_study", "unstable_output", 0, "differs between jobs"},
      {"case_study", "unstable_output", 1, "staged run's match set differs"},
      {"case_study", "corrupt_csv", 0, "matches.csv differs"},
      {"serve_read", "none", 0, ""},
      {"serve_read", "none", 1, ""},
      {"serve_read", "wrong_lookup", 0, "differ from the batch run"},
      {"serve_read", "drop_served", 0, "served gold P/R"},
      {"serve_read", "late_send", 0, "generator lag"},
      {"serve_mixed", "none", 0, ""},
      {"serve_mixed", "none", 1, ""},
      {"serve_mixed", "lost_write", 0, "live_records"},
      {"serve_mixed", "late_send", 1, "generator lag"},
  };
  int bad = 0;
  for (const Case& c : cases) {
    std::string work = dir + "/" + c.workload;
    std::filesystem::create_directories(work);
    std::string common = std::string(" --workload=") + c.workload +
                         " --seed=7 --tiny --dir=" + work;
    std::string gen = std::string(self) + " gen" + common + " > /dev/null";
    std::string run = std::string(self) + " run" + common +
                      " --seconds=1 --trace=" + std::to_string(c.trace) +
                      " --corrupt=" + c.corrupt + " > " + work +
                      "/selftest.log 2>&1";
    bool clean = std::string(c.corrupt) == "none";
    int gen_rc = std::system(gen.c_str());
    int run_rc = gen_rc == 0 ? std::system(run.c_str()) : -1;
    std::ifstream log(work + "/selftest.log");
    std::string text((std::istreambuf_iterator<char>(log)),
                     std::istreambuf_iterator<char>());
    // A corrupted run must fail through its own output check, not by
    // crashing or through another check.
    bool tripped = text.find("OUTPUT CHECK FAILED") != std::string::npos;
    bool passed_checks = run_rc == 0 && !tripped;
    bool target = false;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
      target = target || (line.rfind("OUTPUT CHECK FAILED: ", 0) == 0 &&
                          line.find(c.trips) != std::string::npos);
    }
    bool as_expected =
        gen_rc == 0 && (clean ? passed_checks : run_rc != 0 && target);
    std::printf("  %-12s %-16s trace %d  checks %-6s %s\n", c.workload,
                c.corrupt, c.trace, passed_checks ? "pass" : "trip",
                as_expected ? "ok" : "WRONG");
    bad += !as_expected;
  }
  std::printf("selftest: %s\n", bad == 0 ? "every check trips on wrong output"
                                         : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace emx_e2e

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: emx_e2e gen|run|selftest --flag=value ...\n");
    return 2;
  }
  std::string cmd = argv[1];
  auto flags = emx_e2e::ParseFlags(argc, argv);
  if (cmd == "gen") return emx_e2e::Gen(flags);
  if (cmd == "run") return emx_e2e::Run(flags);
  if (cmd == "selftest") return emx_e2e::SelfTest(flags, argv[0]);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
