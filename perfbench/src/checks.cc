#include "perfbench/src/checks.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "src/engine/serialize.h"

namespace perfbench {

namespace {

CheckResult Fail(const std::string& name, const std::string& detail) {
  return {name, false, detail};
}

}  // namespace

CheckResult CheckCellShape(const std::vector<dpbench::CellResult>& cells,
                           size_t expected_cells, size_t expected_trials) {
  const std::string name = "cell_shape";
  if (cells.size() != expected_cells) {
    return Fail(name, "grid has " + std::to_string(cells.size()) +
                          " cells, expected " + std::to_string(expected_cells));
  }
  for (const dpbench::CellResult& cell : cells) {
    if (cell.errors.size() != expected_trials ||
        cell.summary.trials != expected_trials) {
      return Fail(name, cell.key.ToString() + " has " +
                            std::to_string(cell.errors.size()) +
                            " errors, expected " +
                            std::to_string(expected_trials));
    }
    for (double e : cell.errors) {
      if (!std::isfinite(e) || e < 0.0) {
        return Fail(name, cell.key.ToString() + " has a non-finite or "
                                                "negative error");
      }
    }
  }
  return {name, true, ""};
}

CheckResult CheckSameBytes(const std::vector<dpbench::CellResult>& expected,
                           const std::vector<dpbench::CellResult>& actual,
                           const std::string& what) {
  const std::string name = "same_bytes:" + what;
  if (expected.size() != actual.size()) {
    return Fail(name, std::to_string(actual.size()) + " cells, expected " +
                          std::to_string(expected.size()));
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const dpbench::CellResult& a = expected[i];
    const dpbench::CellResult& b = actual[i];
    if (a.key.ToString() != b.key.ToString()) {
      return Fail(name, "cell " + std::to_string(i) + " is " +
                            b.key.ToString() + ", expected " +
                            a.key.ToString());
    }
    if (a.errors.size() != b.errors.size() ||
        (!a.errors.empty() &&
         std::memcmp(a.errors.data(), b.errors.data(),
                     a.errors.size() * sizeof(double)) != 0)) {
      return Fail(name, a.key.ToString() + " errors differ");
    }
  }
  return {name, true, ""};
}

double IdentityExpectedSquaredNorm(const dpbench::Workload& w,
                                   double epsilon) {
  double cells = 0.0;
  for (const dpbench::RangeQuery& q : w.queries()) {
    cells += static_cast<double>(q.NumCells());
  }
  return 2.0 / (epsilon * epsilon) * cells;
}

CheckResult CheckIdentityError(const std::vector<dpbench::CellResult>& cells,
                               const std::string& dataset, size_t queries,
                               double expected_sq_norm) {
  const std::string name = "identity_error:" + dataset;
  double sum = 0.0;
  size_t n = 0;
  for (const dpbench::CellResult& cell : cells) {
    if (cell.key.algorithm != "IDENTITY" || cell.key.dataset != dataset) {
      continue;
    }
    double unscale = static_cast<double>(cell.key.scale) *
                     static_cast<double>(queries);
    for (double e : cell.errors) {
      sum += (e * unscale) * (e * unscale);
      ++n;
    }
  }
  if (n == 0) return Fail(name, "no IDENTITY trials");
  double ratio = sum / static_cast<double>(n) / expected_sq_norm;
  if (!(std::fabs(ratio - 1.0) <= kIdentityTolerance)) {
    std::ostringstream os;
    os << "mean squared error is " << ratio
       << "x its expectation (tolerance " << kIdentityTolerance << ")";
    return Fail(name, os.str());
  }
  return {name, true, ""};
}

CheckResult CheckReply(const dpbench::serve::QueryResponse& reply,
                       size_t expected_answers) {
  const std::string name = "reply";
  if (reply.status != dpbench::serve::ReplyStatus::kOk) {
    return Fail(name, std::string("status ") +
                          dpbench::serve::ReplyStatusName(reply.status) +
                          ": " + reply.message);
  }
  if (reply.answers.size() != expected_answers) {
    return Fail(name, std::to_string(reply.answers.size()) +
                          " answers, expected " +
                          std::to_string(expected_answers));
  }
  for (double a : reply.answers) {
    if (!std::isfinite(a)) return Fail(name, "non-finite answer");
  }
  return {name, true, ""};
}

CheckResult CheckJournal(
    const std::string& journal_bytes, uint64_t admitted,
    const std::map<dpbench::serve::LedgerKey, double>& spent) {
  const std::string name = "journal";
  auto journal = dpbench::DecodeJournal(journal_bytes);
  if (!journal.ok()) return Fail(name, journal.status().ToString());
  if (journal->records.size() != admitted) {
    return Fail(name, std::to_string(journal->records.size()) +
                          " records, expected " + std::to_string(admitted));
  }
  std::map<dpbench::serve::LedgerKey, double> sums;
  for (const dpbench::JournalRecord& r : journal->records) {
    if (r.outcome != dpbench::JournalOutcome::kGrant) {
      return Fail(name, std::string("unexpected ") +
                            dpbench::JournalOutcomeName(r.outcome) +
                            " record " + std::to_string(r.seq));
    }
    double& sum = sums[{r.user, r.dataset}];
    sum += r.epsilon;
    if (sum != r.spent_after) {
      return Fail(name, "record " + std::to_string(r.seq) + " of " + r.user +
                            "/" + r.dataset +
                            ": spent_after is not the sum of its charges");
    }
  }
  if (sums.size() != spent.size()) {
    return Fail(name, std::to_string(sums.size()) + " ledgers, expected " +
                          std::to_string(spent.size()));
  }
  for (const auto& [key, value] : spent) {
    auto it = sums.find(key);
    if (it == sums.end() || it->second != value) {
      return Fail(name, "ledger " + key.user + "/" + key.dataset +
                            " spent differs from the sum of its charges");
    }
  }
  return {name, true, ""};
}

}  // namespace perfbench
