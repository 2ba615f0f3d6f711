// Output checks. None of them depends on the values a random-stream
// family happens to produce, so a stream-family change needs no edit
// here: they check structure (counts, finiteness, reply shape), the
// repository's own byte-identity guarantees, an analytic expectation with
// a stated tolerance, and exact budget arithmetic.
#ifndef PERFBENCH_SRC_CHECKS_H_
#define PERFBENCH_SRC_CHECKS_H_

#include <map>
#include <string>
#include <vector>

#include "src/engine/runner.h"
#include "src/engine/serve.h"
#include "src/workload/workload.h"

namespace perfbench {

struct CheckResult {
  std::string name;
  bool ok = true;
  std::string detail;  ///< why it failed (empty when ok)
};

/// The grid has `expected_cells` cells and each has exactly
/// `expected_trials` finite, non-negative errors with a matching summary.
CheckResult CheckCellShape(const std::vector<dpbench::CellResult>& cells,
                           size_t expected_cells, size_t expected_trials);

/// Cells match key for key and their error vectors byte for byte (the
/// runner's threads/order/shard independence guarantee).
CheckResult CheckSameBytes(const std::vector<dpbench::CellResult>& expected,
                           const std::vector<dpbench::CellResult>& actual,
                           const std::string& what);

/// E[||y - y_hat||^2] of IDENTITY on `w`: every query sums its cells'
/// independent Laplace(1/epsilon) noise, so the expectation is
/// (2 / epsilon^2) * (total cells covered by all queries).
double IdentityExpectedSquaredNorm(const dpbench::Workload& w, double epsilon);

/// Tolerance on the relative deviation of IDENTITY's pooled mean squared
/// error from its expectation. The squared norm of prefix-query noise has
/// a per-trial relative standard deviation of about 1.15 (a random walk's
/// integrated square), so over the 150 trials of one dataset's three
/// scales the mean's relative deviation is about 0.094; 0.45 is 4.8 sigma.
/// A wrong noise scale (epsilon off by 2x moves it by 4x) or missing noise
/// fails it.
inline constexpr double kIdentityTolerance = 0.45;

/// Pools the IDENTITY cells of one dataset: mean over trials of the
/// unscaled squared error norm (error * scale * |W|)^2, compared with
/// `expected_sq_norm` within kIdentityTolerance.
CheckResult CheckIdentityError(const std::vector<dpbench::CellResult>& cells,
                               const std::string& dataset, size_t queries,
                               double expected_sq_norm);

/// A served reply is kOk and carries one answer per requested range.
CheckResult CheckReply(const dpbench::serve::QueryResponse& reply,
                       size_t expected_answers);

/// The charge journal holds exactly `admitted` records, all grants, and
/// for every ledger the running sum of its charged epsilons, added in
/// journal order, equals each record's spent_after bit for bit and ends
/// at `spent` (the ledger's final value as the clients saw it).
CheckResult CheckJournal(
    const std::string& journal_bytes, uint64_t admitted,
    const std::map<dpbench::serve::LedgerKey, double>& spent);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHECKS_H_
