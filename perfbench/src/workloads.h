// The benchmark's workloads. Each one measures its end-to-end metrics
// with tracing off, or — in a traced run — replays the same inputs
// through each layer's public functions and reports per-layer metrics.
// Inputs are generated from the benchmark seed only; the program under
// test receives nothing but those inputs.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/checks.h"
#include "src/engine/runner.h"

namespace perfbench {

struct Options {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch space for ledgers, journals, traces
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run produced: operations and checks attempted and
/// failed, the failures themselves, metrics, and human-readable notes
/// (sample counts, spreads) printed ahead of the result line.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<CheckResult> failures;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  /// Counts one check; a failed check counts as a failed operation.
  void Check(const CheckResult& result);
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Cold set-up passes per run: at least this many, and more until this
/// much wall time has passed since the first began. setup_s is their
/// median.
inline constexpr size_t kMinSetupPasses = 11;
inline constexpr double kMinSetupSeconds = 4.0;

/// Runs `pass` in freshly forked child processes, each starting from this
/// process's state (so every pass sees cold process-wide caches when
/// called before anything warmed them), until at least kMinSetupPasses
/// passes have run and kMinSetupSeconds have passed, and returns
/// the seconds each reported. Must be called while the process has a
/// single thread. A child that fails or reports nothing fails the whole
/// measurement.
dpbench::Result<std::vector<double>> TimeInChildren(
    const std::function<double()>& pass);

/// A paper-figure grid: the experiment minus seed and thread count.
struct GridSpec {
  std::string name;
  dpbench::ExperimentConfig config;
};

GridSpec Fig1a1D();
GridSpec Fig1b2D();

Outcome RunGrid(const GridSpec& spec, const Options& options);
Outcome RunServe(const Options& options);

/// The algorithms the serving workload's request mix uses.
std::vector<std::string> ServeAlgorithms();

/// A traced run reports every per-layer metric of the benchmark. The
/// metrics of layers a workload does not have read 0, and each workload
/// names them itself, so a metric it should report and does not is caught
/// as missing rather than read as 0.
///
/// Adds 0 for the per-algorithm metrics of every algorithm of the
/// benchmark that is not in `present`: algorithms.<ALGO>.draws_per_trial,
/// and with `grid_layers` also algorithms.<ALGO>.execute_s.
void AddAbsentAlgorithms(const std::vector<std::string>& present,
                         bool grid_layers, Outcome* out);
/// Adds 0 for every per-layer metric only the grid workloads have,
/// including algorithms.<ALGO>.execute_s of every algorithm.
void AddAbsentGridLayers(Outcome* out);
/// Adds 0 for every per-layer metric only the serving workload has.
void AddAbsentServeLayers(Outcome* out);

/// Metric-name form of an algorithm name ("MWEM*" -> "MWEM_star").
std::string MetricAlgo(const std::string& algorithm);

/// Peak resident set of this process in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
