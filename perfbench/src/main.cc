// perfbench: runs one benchmark workload and prints its result.
//
//   perfbench --workload fig1a_1d|fig1b_2d|serve_mixed --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//             [--git-sha SHA] [--source-digest HEX]
//
// Output: the failed checks (if any), notes, one `record {...}` line with
// the workload, seed and machine/build record, then — as the last line —
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones of this workload. Exit status 1 when any operation or
// check failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/machine.h"
#include "perfbench/src/workloads.h"

namespace {

void Usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string workload, git_sha = "unknown", digest = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && opt.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      digest = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opt.work_dir.empty()) {
    Usage("--seed, --seconds, --trace and --work-dir are required");
  }

  perfbench::Outcome out;
  if (workload == "fig1a_1d") {
    out = perfbench::RunGrid(perfbench::Fig1a1D(), opt);
  } else if (workload == "fig1b_2d") {
    out = perfbench::RunGrid(perfbench::Fig1b2D(), opt);
  } else if (workload == "serve_mixed") {
    out = perfbench::RunServe(opt);
  } else {
    Usage(("unknown workload '" + workload + "'").c_str());
  }

  for (const perfbench::CheckResult& f : out.failures) {
    std::printf("FAILED check %s: %s\n", f.name.c_str(), f.detail.c_str());
  }
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  for (const perfbench::Metric& m : out.metrics) {
    std::printf("metric %s = %.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf(
      "record {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"failed_frac\": %.9g, \"machine\": %s}\n",
      workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0,
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 1.0,
      perfbench::MachineRecordJson(git_sha, digest).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
