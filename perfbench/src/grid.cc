// The paper-figure grid workloads (fig1a_1d, fig1b_2d).
//
// Untraced: repeated Runner::Run over the grid at threads = cores for the
// run's duration; every repetition is checked against the first
// byte for byte, and a few seeded-random cells are re-run alone at one
// thread and compared with the grid's copy.
//
// Traced: one Runner::Run for the runner's own diagnostics, then a
// single-threaded replay of the same grid through the layers' public
// functions (shape, sample, workload, plan, execute, evaluate, score),
// alternately with and without spans. Every replay's cells pass the same
// shape and IDENTITY checks as the runner's.
#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/common/lockstep.h"
#include "src/common/rng.h"
#include "src/data/datasets.h"
#include "src/data/sampler.h"
#include "src/engine/error.h"
#include "src/engine/stats.h"

namespace perfbench {

using dpbench::CellResult;
using dpbench::ExperimentConfig;

namespace {

/// Untraced/traced replay pairs in a traced run.
constexpr size_t kReplayPairs = 2;
/// Seeded-random cells re-run alone after the timed runs.
constexpr size_t kIsolatedCells = 2;

double Since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

size_t Cores() {
  return std::max<size_t>(std::thread::hardware_concurrency(), 1);
}

/// The grid's master seed: a pure function of the benchmark seed.
uint64_t GridSeed(uint64_t bench_seed) {
  return dpbench::SeedMixer(bench_seed)
      .Mix(std::string("perfbench.grid"))
      .seed();
}

/// The dimensionality-supported cells of the grid, in the runner's
/// canonical order (dataset, domain, scale, epsilon, algorithm).
size_t CountCells(const ExperimentConfig& c) {
  size_t cells = 0;
  for (const std::string& ds : c.datasets) {
    size_t dims = dpbench::DatasetRegistry::Info(ds)->dims;
    for (const std::string& algo : c.algorithms) {
      if ((*dpbench::MechanismRegistry::Get(algo))->SupportsDims(dims)) {
        cells += c.domain_sizes.size() * c.scales.size() * c.epsilons.size();
      }
    }
  }
  return cells;
}

/// Plan-cache key of a cell, as the runner forms it.
std::string PlanKey(const std::string& algo, const dpbench::Domain& domain,
                    double eps, bool side_scale, uint64_t scale) {
  std::ostringstream key;
  key.precision(17);
  key << algo << "|" << domain.ToString() << "|eps=" << eps;
  if (side_scale) key << "|scale=" << scale;
  return key.str();
}

/// One cold set-up pass: the first Runner::Run in a fresh process, over
/// the grid with one data sample and one trial per cell, less the time the
/// runner reports for executing cells. What is left is what any first grid
/// run pays before its trials: registries, the pool, dataset shapes,
/// workloads, input materialization and every plan. It runs on one thread
/// so that it does not depend on how the pool's threads get scheduled;
/// every timed grid run repeats the parallel part of this work.
double ColdGridSetup(const ExperimentConfig& c) {
  ExperimentConfig one = c;
  one.data_samples = 1;
  one.runs_per_sample = 1;
  one.threads = 1;
  dpbench::RunDiagnostics diag;
  auto start = std::chrono::steady_clock::now();
  auto cells = dpbench::Runner::Run(one, nullptr, &diag);
  return cells.ok() ? Since(start) - diag.execute_seconds : -1.0;
}

/// Result of a single-threaded replay of the grid.
struct Replay {
  std::vector<CellResult> cells;
  std::map<std::string, uint64_t> draws;   ///< per algorithm
  std::map<std::string, uint64_t> trials;  ///< per algorithm
  double wall_s = 0.0;
};

/// Replays the grid on this thread the way Runner::Run computes it: same
/// canonical order, seeds, plan sharing and lockstep batching. This loop
/// mirrors runner.cc's trial loop and needs updating when that loop
/// changes; its cells are checked with the value-family-independent checks
/// only, so a stream-family change does not fail the traced run.
dpbench::Result<Replay> ReplayGrid(const ExperimentConfig& c, Tracer* t) {
  Replay out;
  auto start = std::chrono::steady_clock::now();
  ScopedSpan root(t, "replay");
  std::map<std::string, std::shared_ptr<const dpbench::Workload>> workloads;
  std::map<std::string, dpbench::PlanPtr> plans;
  std::map<std::string, dpbench::MechanismPtr> mechs;
  for (const std::string& algo : c.algorithms) {
    DPB_ASSIGN_OR_RETURN(mechs[algo], dpbench::MechanismRegistry::Get(algo));
  }
  const size_t active_lanes = dpbench::lockstep::ActiveLaneWidth();
  dpbench::ExecScratch scratch;
  dpbench::DataVector est;
  std::vector<double> y_hat, cum, est_lanes, yhat_lanes;
  uint64_t cell_id = 0;
  for (const std::string& ds : c.datasets) {
    for (size_t dom : c.domain_sizes) {
      dpbench::DataVector shape;
      {
        ScopedSpan span(t, "data.shape");
        DPB_ASSIGN_OR_RETURN(shape,
                             dpbench::DatasetRegistry::ShapeAtDomain(ds, dom));
      }
      const dpbench::Domain& domain = shape.domain();
      auto& workload = workloads[domain.ToString()];
      if (workload == nullptr) {
        ScopedSpan span(t, "workload.build");
        workload = std::make_shared<const dpbench::Workload>(
            dpbench::MakeWorkload(c.workload, domain, c.random_queries,
                                  c.seed));
      }
      for (uint64_t scale : c.scales) {
        std::vector<dpbench::DataVector> samples;
        {
          ScopedSpan span(t, "data.sample");
          std::ostringstream label;
          label << "data/" << ds << "/" << dom << "/" << scale;
          dpbench::Rng data_rng(dpbench::StreamSeed(c.seed, label.str()));
          for (size_t s = 0; s < c.data_samples; ++s) {
            DPB_ASSIGN_OR_RETURN(dpbench::DataVector x,
                                 dpbench::SampleAtScale(shape, scale,
                                                        &data_rng));
            samples.push_back(std::move(x));
          }
        }
        std::vector<std::vector<double>> truth;
        {
          ScopedSpan span(t, "workload.truth");
          truth = workload->EvaluateAll(samples);
        }
        for (double eps : c.epsilons) {
          for (const std::string& algo : c.algorithms) {
            const dpbench::MechanismPtr& mech = mechs[algo];
            if (!mech->SupportsDims(domain.num_dims())) continue;
            dpbench::SideInfo info;
            if (c.provide_true_scale) {
              info.true_scale = static_cast<double>(scale);
            }
            std::string key =
                PlanKey(algo, domain, eps,
                        mech->uses_side_info() && info.true_scale.has_value(),
                        scale);
            dpbench::PlanPtr& plan = plans[key];
            if (plan == nullptr) {
              ScopedSpan span(t, "algorithms.plan");
              DPB_ASSIGN_OR_RETURN(plan,
                                   mech->Plan({domain, *workload, eps, info}));
            }
            ScopedSpan cell_span(t, "runner.cell", cell_id++);
            const std::string exec_name = "algorithms." + algo + ".execute";
            CellResult cell;
            cell.key = {algo, ds, scale, dom, eps};
            const size_t W = (active_lanes > 1 && plan->SupportsLockstep() &&
                              workload->has_eval_plan())
                                 ? active_lanes
                                 : 1;
            const size_t nq = workload->size();
            dpbench::Rng rng(dpbench::CellStreamSeed(c.seed, cell.key));
            for (size_t s = 0; s < samples.size(); ++s) {
              const dpbench::DataVector& x = samples[s];
              size_t r = 0;
              for (; W > 1 && r + W <= c.runs_per_sample; r += W) {
                dpbench::ExecContext ctx{x, &rng, &scratch};
                {
                  ScopedSpan span(t, exec_name);
                  DPB_RETURN_NOT_OK(plan->ExecuteMany(ctx, W, &est_lanes));
                }
                {
                  ScopedSpan span(t, "workload.eval");
                  workload->EvaluateMany(est_lanes.data(), W, &cum,
                                         &yhat_lanes);
                }
                ScopedSpan span(t, "error.score");
                y_hat.resize(nq);
                for (size_t l = 0; l < W; ++l) {
                  for (size_t q = 0; q < nq; ++q) {
                    y_hat[q] = yhat_lanes[q * W + l];
                  }
                  DPB_ASSIGN_OR_RETURN(
                      double err, dpbench::ScaledL2PerQueryError(
                                      truth[s], y_hat, x.Scale()));
                  cell.errors.push_back(err);
                }
              }
              for (; r < c.runs_per_sample; ++r) {
                dpbench::ExecContext ctx{x, &rng, &scratch};
                {
                  ScopedSpan span(t, exec_name);
                  DPB_RETURN_NOT_OK(plan->ExecuteInto(ctx, &est));
                }
                {
                  ScopedSpan span(t, "workload.eval");
                  workload->EvaluateInto(est, &cum, &y_hat);
                }
                ScopedSpan span(t, "error.score");
                DPB_ASSIGN_OR_RETURN(double err,
                                     dpbench::ScaledL2PerQueryError(
                                         truth[s], y_hat, x.Scale()));
                cell.errors.push_back(err);
              }
            }
            {
              ScopedSpan span(t, "error.summarize");
              DPB_ASSIGN_OR_RETURN(cell.summary,
                                   dpbench::Summarize(cell.errors));
            }
            out.draws[algo] += rng.generator().position();
            out.trials[algo] += cell.errors.size();
            out.cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
  out.wall_s = Since(start);
  return out;
}

struct GridRun {
  std::vector<CellResult> cells;
  dpbench::RunDiagnostics diag;
  double wall_s = 0.0;
};

dpbench::Result<GridRun> TimedRun(const ExperimentConfig& c) {
  GridRun run;
  auto start = std::chrono::steady_clock::now();
  DPB_ASSIGN_OR_RETURN(run.cells,
                       dpbench::Runner::Run(c, nullptr, &run.diag));
  run.wall_s = Since(start);
  return run;
}

/// Seeded-random cells re-run alone at one thread must match the grid.
void CheckIsolatedCells(const ExperimentConfig& c,
                        const std::vector<CellResult>& grid, uint64_t seed,
                        Outcome* out) {
  dpbench::Rng pick(
      dpbench::SeedMixer(seed).Mix(std::string("isolated")).seed());
  std::set<size_t> chosen;
  while (chosen.size() < std::min(kIsolatedCells, grid.size())) {
    chosen.insert(static_cast<size_t>(pick.UniformInt(grid.size())));
  }
  for (size_t i : chosen) {
    const CellResult& cell = grid[i];
    ExperimentConfig one = c;
    one.algorithms = {cell.key.algorithm};
    one.datasets = {cell.key.dataset};
    one.scales = {cell.key.scale};
    one.domain_sizes = {cell.key.domain_size};
    one.epsilons = {cell.key.epsilon};
    one.threads = 1;
    ++out->attempted;
    auto alone = dpbench::Runner::Run(one);
    if (!alone.ok()) {
      out->Check({"isolated_cell", false, alone.status().ToString()});
      continue;
    }
    out->Check(CheckSameBytes({cell}, *alone, "isolated"));
  }
}

void CheckGridOutputs(const ExperimentConfig& c,
                      const std::vector<CellResult>& cells, Outcome* out) {
  out->Check(CheckCellShape(cells, CountCells(c),
                            c.data_samples * c.runs_per_sample));
  if (std::find(c.algorithms.begin(), c.algorithms.end(), "IDENTITY") ==
      c.algorithms.end()) {
    return;
  }
  for (const std::string& ds : c.datasets) {
    for (size_t dom : c.domain_sizes) {
      auto shape = dpbench::DatasetRegistry::ShapeAtDomain(ds, dom);
      if (!shape.ok()) {
        out->Check({"identity_error:" + ds, false, shape.status().ToString()});
        continue;
      }
      dpbench::Workload w = dpbench::MakeWorkload(
          c.workload, shape->domain(), c.random_queries, c.seed);
      for (double eps : c.epsilons) {
        std::vector<CellResult> subset;
        for (const CellResult& cell : cells) {
          if (cell.key.domain_size == dom && cell.key.epsilon == eps) {
            subset.push_back(cell);
          }
        }
        out->Check(CheckIdentityError(subset, ds, w.size(),
                                      IdentityExpectedSquaredNorm(w, eps)));
      }
    }
  }
}

void MeasureGrid(const GridSpec& spec, const ExperimentConfig& c,
                 const Options& opt, Outcome* out) {
  std::vector<double> walls;
  std::vector<CellResult> reference;
  auto start = std::chrono::steady_clock::now();
  while (walls.empty() || Since(start) < opt.seconds) {
    ++out->attempted;
    auto run = TimedRun(c);
    if (!run.ok()) {
      out->Check({"grid_run", false, run.status().ToString()});
      return;
    }
    walls.push_back(run->wall_s);
    if (reference.empty()) {
      reference = std::move(run->cells);
      CheckGridOutputs(c, reference, out);
    } else {
      out->Check(CheckSameBytes(reference, run->cells, "repeat"));
    }
  }
  out->Add("peak_rss_mb", PeakRssMb(), "MB");  // before the checks below
  CheckIsolatedCells(c, reference, opt.seed, out);
  const double grid_s = Median(walls);
  out->Add("grid_s", grid_s, "s");
  out->Add("qps", static_cast<double>(reference.size()) / grid_s, "1/s");
  // The latency of a grid request is one run over the whole grid. Cell
  // completion times are not used: which cells finish early depends on
  // how the pool happens to schedule the long cells.
  out->Add("p50_ms", Percentile(walls, 0.5) * 1e3, "ms");
  out->Add("p90_ms", Percentile(walls, 0.9) * 1e3, "ms");
  std::ostringstream note;
  note << spec.name << ": " << walls.size() << " grid runs of "
       << reference.size() << " cells, grid_s spread (IQR/median) "
       << RelativeSpread(walls) << "; runs (s)";
  for (double w : walls) note << " " << w;
  out->notes.push_back(note.str());
}

void TraceGrid(const GridSpec& spec, const ExperimentConfig& c,
               const Options& opt, Outcome* out) {
  ++out->attempted;
  auto run = TimedRun(c);
  if (!run.ok()) {
    out->Check({"grid_run", false, run.status().ToString()});
    return;
  }
  CheckGridOutputs(c, run->cells, out);
  // Untraced and traced replays alternate; the overhead compares the
  // fastest of each, and the last traced replay gives the spans.
  Tracer traced(false);
  double traced_s = 0.0, untraced_s = 0.0;
  dpbench::Result<Replay> replay = dpbench::Status::Internal("not run");
  for (size_t i = 0; i < 2 * kReplayPairs; ++i) {
    const bool on = i % 2 == 1;
    traced = Tracer(on);
    ++out->attempted;
    replay = ReplayGrid(c, &traced);
    if (!replay.ok()) {
      out->Check({"replay", false, replay.status().ToString()});
      return;
    }
    CheckGridOutputs(c, replay->cells, out);
    double& best = on ? traced_s : untraced_s;
    best = best == 0.0 ? replay->wall_s : std::min(best, replay->wall_s);
  }

  const std::vector<Span>& spans = traced.spans();
  std::map<std::string, double> self = SelfSecondsByName(spans);
  out->Add("data.shape_s", self["data.shape"], "s");
  out->Add("data.sample_s", self["data.sample"], "s");
  out->Add("workload.build_s", self["workload.build"], "s");
  out->Add("workload.truth_s", self["workload.truth"], "s");
  out->Add("workload.eval_s", self["workload.eval"], "s");
  out->Add("algorithms.plan_s", self["algorithms.plan"], "s");
  for (const std::string& algo : c.algorithms) {
    const uint64_t trials = replay->trials[algo];
    if (trials == 0) continue;  // reported missing by run.py
    out->Add("algorithms." + MetricAlgo(algo) + ".execute_s",
             self["algorithms." + algo + ".execute"], "s");
    out->Add("algorithms." + MetricAlgo(algo) + ".draws_per_trial",
             static_cast<double>(replay->draws[algo]) /
                 static_cast<double>(trials),
             "count");
  }
  AddAbsentAlgorithms(c.algorithms, /*grid_layers=*/true, out);
  AddAbsentServeLayers(out);
  const dpbench::RunDiagnostics& d = run->diag;
  out->Add("algorithms.lockstep_frac",
           static_cast<double>(d.lockstep_trials) /
               static_cast<double>(d.trials),
           "fraction");
  out->Add("error.score_s", self["error.score"] + self["error.summarize"],
           "s");
  out->Add("runner.plan_s", d.plan_seconds, "s");
  out->Add("runner.execute_s", d.execute_seconds, "s");
  out->Add("runner.materialize_s",
           run->wall_s - d.plan_seconds - d.execute_seconds, "s");
  std::vector<double> cell_s = Durations(spans, "runner.cell");
  double cell_sum = 0.0;
  for (double s : cell_s) cell_sum += s;
  out->Add("runner.critical_path_s",
           *std::max_element(cell_s.begin(), cell_s.end()), "s");
  out->Add("runner.parallel_efficiency",
           cell_sum / (static_cast<double>(c.threads) * d.execute_seconds),
           "fraction");
  out->Add("thread_pool.tasks_stolen",
           static_cast<double>(d.pool_tasks_stolen), "count");
  out->Add("runner.bytes_per_trial", d.bytes_per_trial, "B");
  out->Add("trace.overhead_frac", (traced_s - untraced_s) / untraced_s,
           "fraction");
  out->Add("trace.uncovered_s", self["replay"] + self["runner.cell"], "s");
  std::ostringstream note;
  note << spec.name << ": fastest traced replay " << traced_s
       << " s, fastest untraced replay " << untraced_s << " s, "
       << spans.size()
       << " spans; runner.bytes_per_trial is computed analytically by the "
          "runner";
  out->notes.push_back(note.str());
  std::string path = opt.work_dir + "/trace-" + spec.name + "-" +
                     std::to_string(opt.seed) + ".json";
  dpbench::Status written = WriteChromeTrace(spans, path);
  out->notes.push_back(written.ok() ? "trace file: " + path
                                    : "trace file not written: " +
                                          written.ToString());
}

}  // namespace

GridSpec Fig1a1D() {
  GridSpec spec;
  spec.name = "fig1a_1d";
  ExperimentConfig& c = spec.config;
  c.algorithms = {"IDENTITY", "HB",     "MWEM*", "DAWA", "PHP",    "MWEM",
                  "EFPA",     "DPCUBE", "AHP*",  "SF",   "UNIFORM"};
  c.datasets = {"ADULT"};
  c.scales = {1000, 100000, 10000000};
  c.domain_sizes = {4096};
  c.epsilons = {0.1};
  c.workload = dpbench::WorkloadKind::kPrefix1D;
  c.data_samples = 5;
  c.runs_per_sample = 10;
  return spec;
}

GridSpec Fig1b2D() {
  GridSpec spec;
  spec.name = "fig1b_2d";
  ExperimentConfig& c = spec.config;
  c.algorithms = {"IDENTITY", "HB",       "AGRID", "MWEM",   "MWEM*",  "DAWA",
                  "QUADTREE", "UGRID",    "DPCUBE", "AHP",   "UNIFORM"};
  c.datasets = {"BJ-CABS-S", "GOWALLA", "STROKE"};
  c.scales = {10000, 1000000, 100000000};
  c.domain_sizes = {128};
  c.epsilons = {0.1};
  c.workload = dpbench::WorkloadKind::kRandomRange2D;
  c.random_queries = 2000;
  c.data_samples = 5;
  c.runs_per_sample = 10;
  return spec;
}

Outcome RunGrid(const GridSpec& spec, const Options& opt) {
  Outcome out;
  ExperimentConfig c = spec.config;
  c.seed = GridSeed(opt.seed);
  c.threads = Cores();
  // Cold set-up first, in child processes, while this process is still
  // single-threaded and its caches are cold.
  auto setup = TimeInChildren([&c] { return ColdGridSetup(c); });
  ++out.attempted;
  if (!setup.ok()) {
    out.Check({"setup", false, setup.status().ToString()});
    return out;
  }
  // Warm the process-wide shape cache so every timed run is alike.
  for (const std::string& ds : c.datasets) {
    for (size_t dom : c.domain_sizes) {
      (void)dpbench::DatasetRegistry::ShapeAtDomain(ds, dom);
    }
  }
  if (opt.trace) {
    TraceGrid(spec, c, opt, &out);
  } else {
    MeasureGrid(spec, c, opt, &out);
    out.Add("setup_s", Median(*setup), "s");
  }
  std::ostringstream note;
  note << spec.name << ": grid seed " << c.seed << ", threads " << c.threads
       << ", set-up passes (s)";
  for (double s : *setup) note << " " << s;
  out.notes.push_back(note.str());
  return out;
}

}  // namespace perfbench
