#include "perfbench/src/workloads.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

constexpr unsigned kChildTimeoutS = 60;

struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kGridOnlyLayers[] = {
    {"data.shape_s", "s"},
    {"data.sample_s", "s"},
    {"workload.build_s", "s"},
    {"workload.truth_s", "s"},
    {"workload.eval_s", "s"},
    {"algorithms.plan_s", "s"},
    {"algorithms.lockstep_frac", "fraction"},
    {"error.score_s", "s"},
    {"runner.plan_s", "s"},
    {"runner.execute_s", "s"},
    {"runner.materialize_s", "s"},
    {"runner.critical_path_s", "s"},
    {"runner.parallel_efficiency", "fraction"},
    {"thread_pool.tasks_stolen", "count"},
    {"runner.bytes_per_trial", "B"},
};

constexpr LayerMetric kServeOnlyLayers[] = {
    {"serve.decode_us", "us"},
    {"serve.admit_us", "us"},
    {"serve.journal_us", "us"},
    {"serve.encode_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.p99_ms", "ms"},
    {"serve.plan_cache_hit_ratio", "fraction"},
    {"serve.data_cache_hit_ratio", "fraction"},
    {"serve.journal_appends", "count"},
};

/// Every algorithm some workload of the benchmark runs, each once.
std::vector<std::string> BenchmarkAlgorithms() {
  std::vector<std::string> all;
  for (const auto& list : {Fig1a1D().config.algorithms,
                           Fig1b2D().config.algorithms, ServeAlgorithms()}) {
    for (const std::string& algo : list) {
      if (std::find(all.begin(), all.end(), algo) == all.end()) {
        all.push_back(algo);
      }
    }
  }
  return all;
}

}  // namespace

void AddAbsentAlgorithms(const std::vector<std::string>& present,
                         bool grid_layers, Outcome* out) {
  for (const std::string& algo : BenchmarkAlgorithms()) {
    if (std::find(present.begin(), present.end(), algo) != present.end()) {
      continue;
    }
    if (grid_layers) {
      out->Add("algorithms." + MetricAlgo(algo) + ".execute_s", 0.0, "s");
    }
    out->Add("algorithms." + MetricAlgo(algo) + ".draws_per_trial", 0.0,
             "count");
  }
}

void AddAbsentGridLayers(Outcome* out) {
  for (const LayerMetric& m : kGridOnlyLayers) out->Add(m.name, 0.0, m.unit);
  for (const std::string& algo : BenchmarkAlgorithms()) {
    out->Add("algorithms." + MetricAlgo(algo) + ".execute_s", 0.0, "s");
  }
}

void AddAbsentServeLayers(Outcome* out) {
  for (const LayerMetric& m : kServeOnlyLayers) out->Add(m.name, 0.0, m.unit);
  for (const std::string& algo : ServeAlgorithms()) {
    out->Add("serve.execute_us." + MetricAlgo(algo), 0.0, "us");
  }
}

void Outcome::Check(const CheckResult& result) {
  ++attempted;
  if (!result.ok) {
    ++failed;
    failures.push_back(result);
  }
}

dpbench::Result<std::vector<double>> TimeInChildren(
    const std::function<double()>& pass) {
  std::vector<double> seconds;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  std::fflush(nullptr);  // no buffered output may be duplicated by fork
  for (size_t i = 0; i < kMinSetupPasses || elapsed() < kMinSetupSeconds;
       ++i) {
    int fds[2];
    if (pipe(fds) != 0) return dpbench::Status::Internal("pipe failed");
    pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      return dpbench::Status::Internal("fork failed");
    }
    if (pid == 0) {
      close(fds[0]);
      alarm(kChildTimeoutS);  // a stuck pass must not outlive the run
      double s = pass();
      ssize_t w = write(fds[1], &s, sizeof(s));
      _exit(w == static_cast<ssize_t>(sizeof(s)) && s > 0.0 ? 0 : 1);
    }
    close(fds[1]);
    double s = 0.0;
    ssize_t got = read(fds[0], &s, sizeof(s));
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (got != static_cast<ssize_t>(sizeof(s)) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      return dpbench::Status::Internal("set-up pass " + std::to_string(i) +
                                       " failed in its child process");
    }
    seconds.push_back(s);
  }
  return seconds;
}

std::string MetricAlgo(const std::string& algorithm) {
  std::string out;
  for (char c : algorithm) {
    if (c == '*') {
      out += "_star";
    } else {
      out += c;
    }
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
