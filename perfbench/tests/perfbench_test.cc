// Tests of the benchmark's own machinery: order statistics, span
// self-time arithmetic, and that every output check rejects a
// deliberately corrupted cell, reply or journal.
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "perfbench/src/checks.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"
#include "src/engine/serialize.h"

namespace perfbench {
namespace {

using dpbench::CellResult;

TEST(StatsTest, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(StatsTest, PercentileInterpolatesBetweenRanks) {
  std::vector<double> v = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.9), 46.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), Median(v));
}

// Reference values from Python's statistics.quantiles(values, n=4).
TEST(StatsTest, QuartilesMatchPythonExclusiveMethod) {
  auto q = Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  q = Quartiles({1, 2});
  EXPECT_DOUBLE_EQ(q[0], 0.75);
  EXPECT_DOUBLE_EQ(q[1], 1.5);
  EXPECT_DOUBLE_EQ(q[2], 2.25);
  q = Quartiles({3.1, 1.2, 9.9, 4.4, 5.0});
  EXPECT_NEAR(q[0], 2.15, 1e-12);
  EXPECT_NEAR(q[1], 4.4, 1e-12);
  EXPECT_NEAR(q[2], 7.45, 1e-12);
  q = Quartiles({5, 1, 4, 2, 3, 7, 6});
  EXPECT_DOUBLE_EQ(q[0], 2.0);
  EXPECT_DOUBLE_EQ(q[1], 4.0);
  EXPECT_DOUBLE_EQ(q[2], 6.0);
  EXPECT_NEAR(RelativeSpread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5 / 5.5,
              1e-12);
}

TEST(StatsTest, LatencyHistogramPercentilesWithinBucketWidth) {
  LatencyHistogram a, b;
  EXPECT_DOUBLE_EQ(a.Percentile(0.5), 0.0);
  for (int i = 1; i <= 50; ++i) a.Add(i * 1e-5);
  for (int i = 51; i <= 101; ++i) b.Add(i * 1e-5);
  a.Merge(b);
  EXPECT_EQ(a.count(), 101u);
  // Ranks 50 and 90 of 1e-5 .. 1.01e-3 in steps of 1e-5.
  EXPECT_NEAR(a.Percentile(0.5), 51e-5, 51e-5 * 5e-4);
  EXPECT_NEAR(a.Percentile(0.9), 91e-5, 91e-5 * 5e-4);
  EXPECT_NEAR(a.Percentile(0.0), 1e-5, 1e-5 * 5e-4);
  EXPECT_NEAR(a.Percentile(1.0), 101e-5, 101e-5 * 5e-4);
  // Out-of-range values land in the end buckets.
  LatencyHistogram c;
  c.Add(0.0);
  c.Add(1e6);
  EXPECT_NEAR(c.Percentile(0.0), 1e-7, 1e-10);
  EXPECT_NEAR(c.Percentile(1.0), 100.0, 0.1);
}

Span MakeSpan(const char* name, int64_t start, int64_t end, int parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

// root [0,100] has children a [10,40] and b [30,60] (overlapping) and c
// [90,120] (running past its parent); a has a child g [15,20].
TEST(TraceTest, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      MakeSpan("root", 0, 100, -1), MakeSpan("a", 10, 40, 0),
      MakeSpan("b", 30, 60, 0),     MakeSpan("g", 15, 20, 1),
      MakeSpan("c", 90, 120, 0),
  };
  std::vector<double> self = SelfSeconds(spans);
  EXPECT_NEAR(self[0], 40e-9, 1e-15);  // 100 - [10,60] - [90,100]
  EXPECT_NEAR(self[1], 25e-9, 1e-15);  // 30 - 5
  EXPECT_NEAR(self[2], 30e-9, 1e-15);
  EXPECT_NEAR(self[3], 5e-9, 1e-15);
  EXPECT_NEAR(self[4], 30e-9, 1e-15);
  spans.push_back(MakeSpan("a", 70, 80, 0));
  auto by_name = SelfSecondsByName(spans);
  EXPECT_NEAR(by_name["a"], 35e-9, 1e-15);
  EXPECT_NEAR(by_name["root"], 30e-9, 1e-15);
  EXPECT_EQ(Durations(spans, "a").size(), 2u);
}

TEST(TraceTest, TracerNestsSpansAndDisabledRecordsNothing) {
  Tracer t(true);
  {
    ScopedSpan outer(&t, "outer", 7);
    { ScopedSpan inner(&t, "inner", 7); }
    { ScopedSpan inner(&t, "inner", 8); }
  }
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, 0);
  EXPECT_EQ(t.spans()[2].id, 8u);
  for (const Span& s : t.spans()) EXPECT_LE(s.start_ns, s.end_ns);
  Tracer off(false);
  { ScopedSpan s(&off, "x"); }
  EXPECT_TRUE(off.spans().empty());
}

CellResult MakeCell(const std::string& algo, uint64_t scale,
                    std::vector<double> errors) {
  CellResult cell;
  cell.key = {algo, "ADULT", scale, 16, 1.0};
  cell.errors = std::move(errors);
  cell.summary.trials = cell.errors.size();
  return cell;
}

TEST(ChecksTest, CellShapeRejectsCorruptedCells) {
  std::vector<CellResult> cells = {MakeCell("HB", 10, {0.1, 0.2}),
                                   MakeCell("DAWA", 10, {0.3, 0.4})};
  EXPECT_TRUE(CheckCellShape(cells, 2, 2).ok);
  EXPECT_FALSE(CheckCellShape(cells, 3, 2).ok);
  auto nan = cells;
  nan[1].errors[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(CheckCellShape(nan, 2, 2).ok);
  auto short_cell = cells;
  short_cell[0].errors.pop_back();
  EXPECT_FALSE(CheckCellShape(short_cell, 2, 2).ok);
}

TEST(ChecksTest, SameBytesRejectsAOneBitFlip) {
  std::vector<CellResult> a = {MakeCell("HB", 10, {0.1, 0.2})};
  auto b = a;
  EXPECT_TRUE(CheckSameBytes(a, b, "t").ok);
  uint64_t bits;
  std::memcpy(&bits, &b[0].errors[1], sizeof(bits));
  bits ^= 1;
  std::memcpy(&b[0].errors[1], &bits, sizeof(bits));
  EXPECT_FALSE(CheckSameBytes(a, b, "t").ok);
  auto c = a;
  c[0].key.scale = 11;
  EXPECT_FALSE(CheckSameBytes(a, c, "t").ok);
}

TEST(ChecksTest, IdentityErrorRejectsAWrongNoiseScale) {
  dpbench::Workload w = dpbench::Workload::Prefix1D(16);
  double expected = IdentityExpectedSquaredNorm(w, 1.0);
  EXPECT_DOUBLE_EQ(expected, 2.0 * 136.0);  // 2/eps^2 * sum_{i<16} (i+1)
  // Errors whose unscaled squared norm is exactly the expectation.
  double scale = 10.0;
  double e = std::sqrt(expected) / (scale * 16.0);
  std::vector<CellResult> cells = {MakeCell("IDENTITY", 10, {e, e, e})};
  EXPECT_TRUE(CheckIdentityError(cells, "ADULT", 16, expected).ok);
  // Noise at epsilon/2 quadruples the squared norm.
  std::vector<CellResult> wrong = {
      MakeCell("IDENTITY", 10, {2 * e, 2 * e, 2 * e})};
  EXPECT_FALSE(CheckIdentityError(wrong, "ADULT", 16, expected).ok);
  std::vector<CellResult> silent = {MakeCell("IDENTITY", 10, {0, 0, 0})};
  EXPECT_FALSE(CheckIdentityError(silent, "ADULT", 16, expected).ok);
  EXPECT_FALSE(CheckIdentityError(cells, "TRACE", 16, expected).ok);
}

TEST(ChecksTest, ReplyCheckRejectsRefusalsAndWrongShapes) {
  dpbench::serve::QueryResponse r;
  r.answers = {1.0, 2.0};
  EXPECT_TRUE(CheckReply(r, 2).ok);
  EXPECT_FALSE(CheckReply(r, 3).ok);
  auto refused = r;
  refused.status = dpbench::serve::ReplyStatus::kBudgetExhausted;
  EXPECT_FALSE(CheckReply(refused, 2).ok);
  auto nan = r;
  nan.answers[1] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(CheckReply(nan, 2).ok);
}

std::string Journal(const std::vector<double>& eps, bool corrupt_sum) {
  std::string bytes;
  double spent = 0.0;
  for (size_t i = 0; i < eps.size(); ++i) {
    dpbench::JournalRecord r;
    r.seq = i + 1;
    r.user = "u0";
    r.dataset = "ADULT";
    r.epsilon = eps[i];
    r.ordinal = i;
    r.budget = 10.0;
    spent += eps[i];
    r.spent_after = spent;
    if (corrupt_sum && i + 1 == eps.size()) {
      r.spent_after = std::nextafter(spent, 1e9);
    }
    bytes += dpbench::EncodeJournalRecord(r);
  }
  return bytes;
}

TEST(ChecksTest, JournalCheckRejectsCorruptedJournals) {
  std::vector<double> eps = {0.1, 0.05, 0.01};
  double sum = 0.0;
  for (double e : eps) sum += e;
  std::map<dpbench::serve::LedgerKey, double> spent = {{{"u0", "ADULT"}, sum}};
  std::string good = Journal(eps, false);
  EXPECT_TRUE(CheckJournal(good, 3, spent).ok);
  EXPECT_FALSE(CheckJournal(good, 4, spent).ok);  // a lost record
  EXPECT_FALSE(CheckJournal(Journal(eps, true), 3, spent).ok);
  auto off = spent;
  off.begin()->second = std::nextafter(sum, 0.0);  // one ulp off
  EXPECT_FALSE(CheckJournal(good, 3, off).ok);
  auto extra = spent;
  extra[{"u1", "ADULT"}] = 0.1;
  EXPECT_FALSE(CheckJournal(good, 3, extra).ok);
  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x10;  // damage before the tail
  EXPECT_FALSE(CheckJournal(flipped, 3, spent).ok);
}

}  // namespace
}  // namespace perfbench
