// The budgeted-serving workload (serve_mixed).
//
// An in-process serve::Server with a ledger file and a charge journal in
// a fresh directory on disk, driven by one closed-loop client over a
// persistent loopback socket that keeps kWindow requests in flight, so the
// server's connection thread always has the next request queued and never
// waits on the client's wake-up. Two busy threads on a shared machine
// leave headroom, and the measured rate follows the server's work rather
// than the host scheduler's wake-up latency. The request mix is generated
// from the benchmark seed, each request picking uniformly among IDENTITY,
// HB and DAWA on 1D datasets at n = 1024 and UGRID on a 2D dataset at
// 64x64, with 1-64 ranges, spread over several (user, dataset) ledgers.
// Replies on a connection come back in order, so each ledger's charges
// arrive in a known order and its spent value can be checked bit for bit.
// The budget is large enough that nothing is refused, and the mix's plans
// and samples fit the default cache bounds.
//
// Traced: the same loaded run for the server's counters and the client
// median, then a single-threaded replay of the mix through the serving
// path's public functions (decode, admit, journal, execute, encode),
// alternately with and without spans.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/common/rng.h"
#include "src/data/datasets.h"
#include "src/data/sampler.h"
#include "src/engine/net.h"
#include "src/engine/serialize.h"
#include "src/engine/serve.h"

namespace perfbench {

namespace serve = dpbench::serve;

namespace {

constexpr size_t kWindow = 8;  ///< requests in flight
constexpr size_t kMixSize = 4000;
constexpr size_t kMaxRanges = 64;
constexpr double kBudget = 1e9;
constexpr int kReplyTimeoutMs = 30000;
constexpr size_t kReplayPairs = 3;  ///< untraced/traced replay pairs
/// Random ranges of the workload the server plans 2D domains against.
constexpr size_t kPlanningQueries2D = 2000;

struct Target {
  const char* algorithm;
  const char* dataset;
  uint64_t domain_size;
  uint64_t scale;
};

// The mix is synthetic: no traffic record says how often each request type
// comes, so every request picks one of these uniformly.
constexpr Target kTargets[] = {
    {"IDENTITY", "ADULT", 1024, 100000},
    {"HB", "SEARCH", 1024, 100000},
    {"UGRID", "GOWALLA", 64, 1000000},
    {"DAWA", "PATENT", 1024, 100000},
};
constexpr double kEpsilons[] = {0.01, 0.05, 0.1};

struct MixEntry {
  serve::QueryRequest request;
  std::string encoded;
};

double Since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

uint64_t ServeSeed(uint64_t bench_seed) {
  return dpbench::SeedMixer(bench_seed)
      .Mix(std::string("perfbench.serve"))
      .seed();
}

serve::QueryRequest MakeRequest(const Target& t, double eps,
                                const std::string& user, size_t ranges,
                                dpbench::Rng* rng) {
  serve::QueryRequest q;
  q.user = user;
  q.dataset = t.dataset;
  q.algorithm = t.algorithm;
  q.epsilon = eps;
  q.scale = t.scale;
  q.domain_size = t.domain_size;
  const bool two_d = std::string(t.algorithm) == "UGRID";
  for (size_t i = 0; i < ranges; ++i) {
    uint64_t a = rng->UniformInt(t.domain_size);
    uint64_t b = rng->UniformInt(t.domain_size);
    q.lo_row.push_back(std::min(a, b));
    q.hi_row.push_back(std::max(a, b));
    if (two_d) {
      a = rng->UniformInt(t.domain_size);
      b = rng->UniformInt(t.domain_size);
      q.lo_col.push_back(std::min(a, b));
      q.hi_col.push_back(std::max(a, b));
    }
  }
  return q;
}

/// The seeded request mix, each entry for one of two users.
std::vector<MixEntry> MakeMix(uint64_t seed) {
  dpbench::Rng rng(dpbench::SeedMixer(seed).Mix(std::string("mix")).seed());
  std::vector<MixEntry> mix;
  for (size_t i = 0; i < kMixSize; ++i) {
    size_t t = static_cast<size_t>(rng.UniformInt(std::size(kTargets)));
    double eps = kEpsilons[rng.UniformInt(std::size(kEpsilons))];
    std::string user = "u" + std::to_string(rng.UniformInt(2));
    size_t ranges = 1 + static_cast<size_t>(rng.UniformInt(kMaxRanges));
    MixEntry e;
    e.request = MakeRequest(kTargets[t], eps, user, ranges, &rng);
    e.encoded = serve::EncodeQuery(e.request);
    mix.push_back(std::move(e));
  }
  return mix;
}

/// One request per (target, epsilon): fills the plan and data caches.
std::vector<MixEntry> WarmupList(const std::string& user) {
  dpbench::Rng rng(1);
  std::vector<MixEntry> out;
  for (const Target& t : kTargets) {
    for (double eps : kEpsilons) {
      MixEntry e;
      e.request = MakeRequest(t, eps, user, 1, &rng);
      e.encoded = serve::EncodeQuery(e.request);
      out.push_back(std::move(e));
    }
  }
  return out;
}

/// A closed-loop client on one persistent connection. It keeps the
/// running sum of epsilon charged to each of its ledgers, in send order.
struct Client {
  dpbench::net::Socket sock;
  std::map<serve::LedgerKey, double> spent;
  LatencyHistogram latency;  ///< seconds per answered request
  /// Requests answered in each whole second since `start`; sized before
  /// the load starts.
  std::vector<double> per_second;
  std::chrono::steady_clock::time_point start;
  uint64_t sent = 0;
  uint64_t failed = 0;
  std::vector<CheckResult> failures;  ///< the first few

  void Fail(const CheckResult& r) {
    ++failed;
    if (failures.size() < 4) failures.push_back(r);
  }

  /// Sends one request without waiting for its reply.
  bool Issue(const MixEntry& e) {
    ++sent;
    if (!sock.SendFrame(e.encoded).ok()) {
      Fail({"transport", false, "send failed"});
      return false;
    }
    return true;
  }

  /// Receives the reply to the oldest request in flight, `e`, sent at
  /// `t0`, and checks it; false on transport failure.
  bool Complete(const MixEntry& e, std::chrono::steady_clock::time_point t0,
                bool record) {
    auto frame = sock.RecvFrame(kReplyTimeoutMs);
    if (!frame.ok() || frame->timed_out) {
      Fail({"transport", false, "no reply"});
      return false;
    }
    double latency = Since(t0);
    auto reply = serve::DecodeReply(frame->bytes);
    if (!reply.ok()) {
      Fail({"reply", false, reply.status().ToString()});
      return true;
    }
    CheckResult shape = CheckReply(*reply, e.request.lo_row.size());
    if (!shape.ok) {
      Fail(shape);
      return true;
    }
    double& sum = spent[{e.request.user, e.request.dataset}];
    sum += e.request.epsilon;
    if (reply->spent != sum) {
      Fail({"reply_spent", false,
            e.request.user + "/" + e.request.dataset +
                ": reply spent is not the sum of the client's charges"});
    }
    if (record) {
      this->latency.Add(latency);
      size_t second = static_cast<size_t>(Since(start));
      if (second < per_second.size()) per_second[second] += 1.0;
    }
    return true;
  }

  /// Sends one request and checks its reply; false on transport failure.
  bool Send(const MixEntry& e, bool record) {
    auto t0 = std::chrono::steady_clock::now();
    return Issue(e) && Complete(e, t0, record);
  }

  /// Keeps kWindow requests of `list` in flight, in order, until
  /// `seconds` after `start`, then collects the replies still owed.
  void Loop(const std::vector<MixEntry>& list, double seconds) {
    struct InFlight {
      const MixEntry* entry;
      std::chrono::steady_clock::time_point sent_at;
    };
    std::deque<InFlight> pending;
    size_t next = 0;
    auto issue = [&] {
      const MixEntry& e = list[next++ % list.size()];
      pending.push_back({&e, std::chrono::steady_clock::now()});
      return Issue(e);
    };
    bool ok = true;
    while (ok && pending.size() < kWindow) ok = issue();
    while (ok && !pending.empty()) {
      InFlight f = pending.front();
      pending.pop_front();
      ok = Complete(*f.entry, f.sent_at, true);
      if (ok && Since(start) < seconds) ok = issue();
    }
  }
};

std::string FreshDir(const std::string& base, const std::string& tag) {
  std::string dir = base + "/serve-" + tag + "-" + std::to_string(getpid());
  mkdir(dir.c_str(), 0755);
  std::remove((dir + "/ledger").c_str());
  std::remove((dir + "/journal").c_str());
  return dir;
}

void RemoveDir(const std::string& dir) {
  std::remove((dir + "/ledger").c_str());
  std::remove((dir + "/ledger.tmp").c_str());
  std::remove((dir + "/journal").c_str());
  rmdir(dir.c_str());
}

serve::ServerOptions MakeServerOptions(const std::string& dir, uint64_t seed) {
  serve::ServerOptions o;
  o.ledger_path = dir + "/ledger";
  o.journal_path = dir + "/journal";
  o.default_budget = kBudget;
  o.seed = ServeSeed(seed);
  return o;
}

/// A running in-process server plus its serving thread.
class RunningServer {
 public:
  static dpbench::Result<std::unique_ptr<RunningServer>> Start(
      const serve::ServerOptions& options) {
    DPB_ASSIGN_OR_RETURN(serve::Server server, serve::Server::Create(options));
    std::unique_ptr<RunningServer> r(new RunningServer(std::move(server)));
    r->thread_ =
        std::thread([s = r.get()] { s->status_ = s->server_.Serve(); });
    return r;
  }
  ~RunningServer() { Stop(); }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  uint16_t port() const { return server_.port(); }
  serve::ServeStats stats() const { return server_.stats(); }

  /// Stops serving and joins the serving thread.
  dpbench::Status Stop() {
    if (thread_.joinable()) {
      server_.Stop();
      thread_.join();
    }
    return status_;
  }

 private:
  explicit RunningServer(serve::Server server) : server_(std::move(server)) {}

  serve::Server server_;
  dpbench::Status status_;
  std::thread thread_;
};

/// Set-up pass: create the server on a fresh directory and warm its caches.
double ColdServeSetup(const Options& opt) {
  std::string dir = FreshDir(opt.work_dir, "setup");
  auto start = std::chrono::steady_clock::now();
  double seconds = -1.0;
  {
    auto server = RunningServer::Start(MakeServerOptions(dir, opt.seed));
    if (server.ok()) {
      Client c;
      auto sock = dpbench::net::Connect((*server)->port(), 5000);
      if (sock.ok()) {
        c.sock = std::move(*sock);
        for (const MixEntry& e : WarmupList("warmup")) c.Send(e, false);
        if (c.failed == 0) seconds = Since(start);
      }
      (void)(*server)->Stop();
    }
  }
  RemoveDir(dir);
  return seconds;
}

struct LoadResult {
  Client client;  ///< latencies, per-second counts and ledger sums
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  double own_rss_mb = 0.0;  ///< before the server started
  serve::ServeStats stats;
};

/// The loaded run: warm-up, then the client loops over the mix until the
/// deadline. Checks every reply, the journal and the ledgers.
LoadResult RunLoad(const std::vector<MixEntry>& mix, const Options& opt,
                   Outcome* out) {
  LoadResult load;
  load.own_rss_mb = PeakRssMb();
  std::string dir = FreshDir(opt.work_dir, "load");
  auto server = RunningServer::Start(MakeServerOptions(dir, opt.seed));
  ++out->attempted;
  if (!server.ok()) {
    out->Check({"server_create", false, server.status().ToString()});
    RemoveDir(dir);
    return load;
  }
  Client& c = load.client;
  auto sock = dpbench::net::Connect((*server)->port(), 5000);
  if (!sock.ok()) {
    out->Check({"connect", false, sock.status().ToString()});
    RemoveDir(dir);
    return load;
  }
  c.sock = std::move(*sock);
  for (const MixEntry& e : WarmupList("u0")) c.Send(e, false);
  c.per_second.assign(static_cast<size_t>(opt.seconds) + 1, 0.0);
  c.start = std::chrono::steady_clock::now();
  c.Loop(mix, opt.seconds);
  load.wall_s = Since(c.start);
  load.peak_rss_mb = PeakRssMb();  // before the checks below allocate
  load.stats = (*server)->stats();
  dpbench::Status stopped = (*server)->Stop();
  out->Check({"server_stop", stopped.ok(), stopped.ToString()});

  const uint64_t answered = c.sent - c.failed;
  out->attempted += c.sent;
  out->failed += c.failed;
  out->failures.insert(out->failures.end(), c.failures.begin(),
                       c.failures.end());
  out->Check({"admitted", load.stats.admitted == answered &&
                              load.stats.refused_budget == 0 &&
                              load.stats.refused_invalid == 0,
              "server admitted " + std::to_string(load.stats.admitted) +
                  " of " + std::to_string(answered) + " answered requests"});
  auto journal = dpbench::ReadFileBytes(dir + "/journal");
  out->Check(journal.ok()
                 ? CheckJournal(*journal, load.stats.admitted, c.spent)
                 : CheckResult{"journal", false, journal.status().ToString()});
  RemoveDir(dir);
  return load;
}

/// Per-(dataset, domain, scale) sample and per-plan-key plan, resolved the
/// way the server resolves them.
struct ReplayCaches {
  std::map<std::string, std::shared_ptr<const dpbench::DataVector>> data;
  std::map<std::string, std::shared_ptr<const dpbench::Workload>> workloads;
  std::map<std::string, dpbench::PlanPtr> plans;
};

dpbench::Status Resolve(const serve::QueryRequest& q, uint64_t seed,
                        ReplayCaches* caches,
                        std::shared_ptr<const dpbench::DataVector>* data,
                        dpbench::PlanPtr* plan) {
  std::ostringstream dkey;
  dkey << q.dataset << "/" << q.domain_size << "/" << q.scale;
  auto& d = caches->data[dkey.str()];
  if (d == nullptr) {
    DPB_ASSIGN_OR_RETURN(dpbench::DataVector shape,
                         dpbench::DatasetRegistry::ShapeAtDomain(
                             q.dataset, static_cast<size_t>(q.domain_size)));
    dpbench::Rng rng(dpbench::StreamSeed(seed, "data/" + dkey.str()));
    DPB_ASSIGN_OR_RETURN(dpbench::DataVector x,
                         dpbench::SampleAtScale(shape, q.scale, &rng));
    d = std::make_shared<const dpbench::DataVector>(std::move(x));
  }
  const dpbench::Domain& domain = d->domain();
  std::ostringstream pkey;
  pkey.precision(17);
  pkey << q.algorithm << "|" << domain.ToString() << "|eps=" << q.epsilon
       << "|scale=" << q.scale;
  auto& p = caches->plans[pkey.str()];
  if (p == nullptr) {
    auto& w = caches->workloads[domain.ToString()];
    if (w == nullptr) {
      w = std::make_shared<const dpbench::Workload>(
          domain.num_dims() == 1
              ? dpbench::Workload::Prefix1D(domain.size(0))
              : dpbench::Workload::RandomRange(domain, kPlanningQueries2D,
                                               seed));
    }
    DPB_ASSIGN_OR_RETURN(dpbench::MechanismPtr mech,
                         dpbench::MechanismRegistry::Get(q.algorithm));
    dpbench::SideInfo info;
    info.true_scale = static_cast<double>(q.scale);
    DPB_ASSIGN_OR_RETURN(p, mech->Plan({domain, *w, q.epsilon, info}));
  }
  *data = d;
  *plan = p;
  return dpbench::Status::OK();
}

struct ServeReplay {
  double wall_s = 0.0;
  std::map<std::string, uint64_t> draws;     ///< per algorithm
  std::map<std::string, uint64_t> requests;  ///< per algorithm
};

/// Replays every request of the mix once, on this thread, through the
/// serving path's public functions, appending to its own journal.
dpbench::Result<ServeReplay> ReplayServe(
    const std::vector<MixEntry>& mix, const Options& opt,
    const std::string& journal_path, Tracer* t, Outcome* out) {
  ServeReplay result;
  const uint64_t seed = ServeSeed(opt.seed);
  ReplayCaches caches;
  for (const MixEntry& e : WarmupList("warmup")) {
    std::shared_ptr<const dpbench::DataVector> data;
    dpbench::PlanPtr plan;
    DPB_RETURN_NOT_OK(Resolve(e.request, seed, &caches, &data, &plan));
  }
  serve::LedgerAccountant accountant(kBudget);
  std::map<serve::LedgerKey, double> spent;
  dpbench::ExecScratch scratch;
  dpbench::DataVector est;
  std::vector<double> cum;
  uint64_t seq = 0;
  auto start = std::chrono::steady_clock::now();
  const int root = t->Begin("replay", 0);
  for (size_t i = 0; i < kMixSize; ++i) {
    const MixEntry& e = mix[i];
    // The request span ends after encoding: the checks below are the
    // benchmark's, not the serving path's.
    const int request_span = t->Begin("serve.request", i);
    serve::QueryRequest q;
    {
      ScopedSpan span(t, "serve.decode", i);
      DPB_ASSIGN_OR_RETURN(q, serve::DecodeQuery(e.encoded));
    }
    std::shared_ptr<const dpbench::DataVector> data;
    dpbench::PlanPtr plan;
    DPB_RETURN_NOT_OK(Resolve(q, seed, &caches, &data, &plan));
    serve::LedgerKey key{q.user, q.dataset};
    dpbench::LedgerEntry charged;
    {
      ScopedSpan span(t, "serve.admit", i);
      DPB_ASSIGN_OR_RETURN(charged, accountant.Charge(key, q.epsilon));
    }
    {
      ScopedSpan span(t, "serve.journal", i);
      dpbench::JournalRecord record;
      record.seq = ++seq;
      record.user = q.user;
      record.dataset = q.dataset;
      record.epsilon = q.epsilon;
      record.ordinal = charged.queries - 1;
      record.budget = charged.budget;
      record.spent_after = charged.spent;
      DPB_RETURN_NOT_OK(dpbench::AppendFileBytes(
          journal_path, dpbench::EncodeJournalRecord(record)));
    }
    serve::QueryResponse reply;
    {
      ScopedSpan span(t, "serve.execute." + q.algorithm, i);
      dpbench::Rng rng(dpbench::SeedMixer(seed)
                           .Mix(std::string("serve"))
                           .Mix(q.user)
                           .Mix(q.dataset)
                           .Mix(q.algorithm)
                           .Mix(q.scale)
                           .Mix(q.domain_size)
                           .MixDouble(q.epsilon)
                           .Mix(charged.queries - 1)
                           .seed());
      dpbench::ExecContext ctx{*data, &rng, &scratch};
      DPB_RETURN_NOT_OK(plan->ExecuteInto(ctx, &est));
      dpbench::ComputePrefixSums(est, &cum);
      reply.answers.resize(q.lo_row.size());
      const dpbench::Domain& domain = data->domain();
      for (size_t r = 0; r < q.lo_row.size(); ++r) {
        reply.answers[r] =
            domain.num_dims() == 1
                ? cum[q.hi_row[r] + 1] - cum[q.lo_row[r]]
                : dpbench::CumRangeSum2D(cum, domain.size(1), q.lo_row[r],
                                         q.lo_col[r], q.hi_row[r],
                                         q.hi_col[r]);
      }
      result.draws[q.algorithm] += rng.generator().position();
      ++result.requests[q.algorithm];
    }
    reply.spent = charged.spent;
    reply.remaining = charged.budget - charged.spent;
    reply.ledger_queries = charged.queries;
    std::string bytes;
    {
      ScopedSpan span(t, "serve.encode", i);
      bytes = serve::EncodeReply(reply);
    }
    t->End(request_span);
    auto decoded = serve::DecodeReply(bytes);
    out->Check(decoded.ok() ? CheckReply(*decoded, q.lo_row.size())
                            : CheckResult{"reply", false,
                                          decoded.status().ToString()});
    spent[key] += q.epsilon;
  }
  t->End(root);
  result.wall_s = Since(start);
  auto journal = dpbench::ReadFileBytes(journal_path);
  out->Check(journal.ok() ? CheckJournal(*journal, kMixSize, spent)
                          : CheckResult{"journal", false,
                                        journal.status().ToString()});
  return result;
}

/// Requests answered in each of the run's whole one-second windows.
std::vector<double> WindowRates(const LoadResult& load) {
  const std::vector<double>& counts = load.client.per_second;
  size_t whole = std::clamp<size_t>(static_cast<size_t>(load.wall_s), 1,
                                    counts.size());
  return std::vector<double>(counts.begin(), counts.begin() + whole);
}

double Ratio(uint64_t hits, uint64_t misses) {
  return hits + misses > 0 ? static_cast<double>(hits) /
                                 static_cast<double>(hits + misses)
                           : 0.0;
}

std::vector<double> SpanMicros(const std::vector<Span>& spans,
                               const std::string& name) {
  std::vector<double> us = Durations(spans, name);
  for (double& v : us) v *= 1e6;
  return us;
}

}  // namespace

std::vector<std::string> ServeAlgorithms() {
  std::vector<std::string> out;
  for (const Target& t : kTargets) out.push_back(t.algorithm);
  return out;
}

Outcome RunServe(const Options& opt) {
  Outcome out;
  // Cold set-up first, in child processes, while this process is still
  // single-threaded and its caches are cold.
  auto setup = TimeInChildren([&opt] { return ColdServeSetup(opt); });
  ++out.attempted;
  if (!setup.ok()) {
    out.Check({"setup", false, setup.status().ToString()});
    return out;
  }
  auto mix = MakeMix(opt.seed);
  LoadResult load = RunLoad(mix, opt, &out);
  if (load.client.latency.count() == 0) {
    out.Check({"load", false, "no request was answered"});
    return out;
  }
  const double p50_ms = load.client.latency.Percentile(0.5) * 1e3;
  const double p99_ms = load.client.latency.Percentile(0.99) * 1e3;
  std::ostringstream note;
  note << "serve_mixed: " << load.client.latency.count()
       << " latency samples over " << load.wall_s
       << " s from one closed-loop client with " << kWindow
       << " requests in flight; p99_ms " << p99_ms << "; mix of "
       << kMixSize << " requests, seed " << opt.seed
       << "; peak RSS before the server started " << load.own_rss_mb
       << " MB, after the load " << load.peak_rss_mb << " MB"
       << "; set-up passes (s)";
  for (double s : *setup) note << " " << s;
  // Requests answered per second: the median over the run's whole
  // one-second windows, so a stall of a few seconds — on a shared machine,
  // another tenant's burst — moves it little.
  const std::array<double, 3> rates = Quartiles(WindowRates(load));
  const double qps = rates[1];
  note << "; one-second window rates (quartiles) " << rates[0] << " "
       << rates[1] << " " << rates[2];
  out.notes.push_back(note.str());
  if (!opt.trace) {
    out.Add("grid_s", static_cast<double>(kMixSize) / qps, "s");
    out.Add("qps", qps, "1/s");
    out.Add("p50_ms", p50_ms, "ms");
    out.Add("p90_ms", load.client.latency.Percentile(0.9) * 1e3, "ms");
    out.Add("setup_s", Median(*setup), "s");
    out.Add("peak_rss_mb", load.peak_rss_mb, "MB");
    return out;
  }

  // Untraced and traced replays alternate, each on a fresh journal; the
  // overhead compares the fastest of each, and the last traced replay
  // gives the spans.
  std::string dir = FreshDir(opt.work_dir, "replay");
  Tracer traced(false);
  double traced_s = 0.0, untraced_s = 0.0;
  dpbench::Result<ServeReplay> replay = dpbench::Status::Internal("not run");
  for (size_t i = 0; i < 2 * kReplayPairs; ++i) {
    const bool on = i % 2 == 1;
    traced = Tracer(on);
    std::remove((dir + "/journal").c_str());
    replay = ReplayServe(mix, opt, dir + "/journal", &traced, &out);
    if (!replay.ok()) {
      out.Check({"replay", false, replay.status().ToString()});
      RemoveDir(dir);
      return out;
    }
    double& best = on ? traced_s : untraced_s;
    best = best == 0.0 ? replay->wall_s : std::min(best, replay->wall_s);
  }
  RemoveDir(dir);
  const std::vector<Span>& spans = traced.spans();
  out.Add("serve.decode_us", Median(SpanMicros(spans, "serve.decode")), "us");
  out.Add("serve.admit_us", Median(SpanMicros(spans, "serve.admit")), "us");
  out.Add("serve.journal_us", Median(SpanMicros(spans, "serve.journal")),
          "us");
  for (const std::string& algo : ServeAlgorithms()) {
    const uint64_t n = replay->requests[algo];
    if (n == 0) continue;  // reported missing by run.py
    out.Add("serve.execute_us." + MetricAlgo(algo),
            Median(SpanMicros(spans, "serve.execute." + algo)), "us");
    out.Add("algorithms." + MetricAlgo(algo) + ".draws_per_trial",
            static_cast<double>(replay->draws[algo]) / static_cast<double>(n),
            "count");
  }
  AddAbsentAlgorithms(ServeAlgorithms(), /*grid_layers=*/false, &out);
  AddAbsentGridLayers(&out);
  out.Add("serve.encode_us", Median(SpanMicros(spans, "serve.encode")), "us");
  // With a window in flight, client latency is mostly queueing, so the
  // connection's time per request comes from its loaded rate.
  out.Add("serve.transport_us",
          1e6 / qps - Median(SpanMicros(spans, "serve.request")), "us");
  out.Add("serve.p99_ms", p99_ms, "ms");
  out.Add("serve.plan_cache_hit_ratio",
          Ratio(load.stats.plan_cache_hits, load.stats.plan_cache_misses),
          "fraction");
  out.Add("serve.data_cache_hit_ratio",
          Ratio(load.stats.data_cache_hits, load.stats.data_cache_misses),
          "fraction");
  out.Add("serve.journal_appends",
          static_cast<double>(load.stats.journal_appends), "count");
  out.Add("trace.overhead_frac", (traced_s - untraced_s) / untraced_s,
          "fraction");
  std::map<std::string, double> self = SelfSecondsByName(spans);
  out.Add("trace.uncovered_s", self["replay"] + self["serve.request"], "s");
  std::string path = opt.work_dir + "/trace-serve_mixed-" +
                     std::to_string(opt.seed) + ".json";
  dpbench::Status written = WriteChromeTrace(spans, path);
  out.notes.push_back(written.ok() ? "trace file: " + path
                                   : "trace file not written: " +
                                         written.ToString());
  return out;
}

}  // namespace perfbench
