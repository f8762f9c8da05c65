// The columnar AddColumn kernels must be bit-identical to the scalar Add
// loops they replace, at arbitrary (random) batch boundaries, including the
// masked (direction-split) variants.
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"
#include "stats/empirical_distribution.h"
#include "stats/histogram.h"
#include "stats/running_stats.h"
#include "stats/time_series.h"

namespace gametrace::stats {
namespace {

struct Columns {
  std::vector<double> times;
  std::vector<std::uint16_t> sizes;
  std::vector<std::uint8_t> dirs;  // 0 or 1
};

Columns RandomColumns(std::uint64_t seed, std::size_t n) {
  sim::Rng rng(seed);
  Columns c;
  c.times.reserve(n);
  c.sizes.reserve(n);
  c.dirs.reserve(n);
  double t = -5.0;  // starts negative: exercises the before-start path
  for (std::size_t i = 0; i < n; ++i) {
    t += 0.05 * rng.NextDouble();
    c.times.push_back(t);
    // Sizes span 0..599: exercises in-range, overflow (>= 500) and, for
    // histograms with lo > 0, underflow.
    c.sizes.push_back(static_cast<std::uint16_t>(rng.NextBelow(600)));
    c.dirs.push_back(static_cast<std::uint8_t>(rng.NextBelow(2)));
  }
  return c;
}

// Random split points so kernels see ragged batch boundaries, not one
// full-array call.
template <typename Fn>
void ForRandomChunks(std::uint64_t seed, std::size_t n, Fn&& fn) {
  sim::Rng rng(seed);
  std::size_t i = 0;
  while (i < n) {
    const std::size_t len = std::min<std::size_t>(1 + rng.NextBelow(97), n - i);
    fn(i, len);
    i += len;
  }
}

void ExpectHistogramIdentical(const Histogram& a, const Histogram& b) {
  ASSERT_EQ(a.bin_count(), b.bin_count());
  for (std::size_t i = 0; i < a.bin_count(); ++i) EXPECT_EQ(a.count(i), b.count(i));
  EXPECT_EQ(a.underflow(), b.underflow());
  EXPECT_EQ(a.overflow(), b.overflow());
  EXPECT_EQ(a.total(), b.total());
}

constexpr std::size_t kN = 20000;

TEST(AddColumn, HistogramMatchesScalarAdd) {
  const Columns c = RandomColumns(1, kN);
  // lo = 10 so some u16 samples underflow as well as overflow.
  Histogram scalar(10.0, 500.0, 490), columnar(10.0, 500.0, 490);
  for (const std::uint16_t x : c.sizes) scalar.Add(x);
  ForRandomChunks(101, kN, [&](std::size_t i, std::size_t len) {
    columnar.AddColumn(std::span<const std::uint16_t>(c.sizes).subspan(i, len));
  });
  ExpectHistogramIdentical(scalar, columnar);
}

TEST(AddColumn, HistogramMaskedMatchesFilteredAdd) {
  const Columns c = RandomColumns(2, kN);
  Histogram scalar(0.0, 500.0, 500), columnar(0.0, 500.0, 500);
  for (std::size_t i = 0; i < kN; ++i) {
    if (c.dirs[i] == 1) scalar.Add(c.sizes[i]);
  }
  ForRandomChunks(102, kN, [&](std::size_t i, std::size_t len) {
    columnar.AddColumn(std::span<const std::uint16_t>(c.sizes).subspan(i, len),
                       std::span<const std::uint8_t>(c.dirs).subspan(i, len), 1);
  });
  ExpectHistogramIdentical(scalar, columnar);
}

TEST(AddColumn, TimeSeriesMatchesScalarAdd) {
  const Columns c = RandomColumns(3, kN);
  TimeSeries scalar(0.0, 1.0), columnar(0.0, 1.0);
  for (const double t : c.times) scalar.Add(t, 1.0);
  ForRandomChunks(103, kN, [&](std::size_t i, std::size_t len) {
    columnar.AddColumn(std::span<const double>(c.times).subspan(i, len), 1.0);
  });
  EXPECT_EQ(scalar.dropped_before_start(), columnar.dropped_before_start());
  ASSERT_EQ(scalar.size(), columnar.size());
  EXPECT_EQ(scalar.values(), columnar.values());
}

TEST(AddColumn, TimeSeriesCountsDropsBeforeStart) {
  TimeSeries ts(100.0, 10.0);
  const std::vector<double> times{50.0, 99.9, 100.0, 105.0, 250.0};
  ts.AddColumn(times);
  EXPECT_EQ(ts.dropped_before_start(), 2u);
  EXPECT_EQ(ts.Sum(), 3.0);
}

TEST(AddColumn, TimeSeriesMaskedMatchesFilteredAdd) {
  const Columns c = RandomColumns(4, kN);
  TimeSeries scalar(0.0, 1.0), columnar(0.0, 1.0);
  for (std::size_t i = 0; i < kN; ++i) {
    if (c.dirs[i] == 0) scalar.Add(c.times[i], 2.0);
  }
  ForRandomChunks(104, kN, [&](std::size_t i, std::size_t len) {
    columnar.AddColumn(std::span<const double>(c.times).subspan(i, len),
                       std::span<const std::uint8_t>(c.dirs).subspan(i, len), 0, 2.0);
  });
  EXPECT_EQ(scalar.dropped_before_start(), columnar.dropped_before_start());
  ASSERT_EQ(scalar.size(), columnar.size());
  EXPECT_EQ(scalar.values(), columnar.values());
}

TEST(AddColumn, RunningStatsU16MatchesScalarAdd) {
  const Columns c = RandomColumns(5, kN);
  RunningStats scalar, columnar;
  for (const std::uint16_t x : c.sizes) scalar.Add(static_cast<double>(x));
  ForRandomChunks(105, kN, [&](std::size_t i, std::size_t len) {
    columnar.AddColumnU16(std::span<const std::uint16_t>(c.sizes).subspan(i, len));
  });
  EXPECT_EQ(scalar.count(), columnar.count());
  EXPECT_EQ(scalar.mean(), columnar.mean());       // bitwise: same sequential order
  EXPECT_EQ(scalar.variance(), columnar.variance());
  EXPECT_EQ(scalar.min(), columnar.min());
  EXPECT_EQ(scalar.max(), columnar.max());
}

TEST(AddColumn, RunningStatsMaskedMatchesFilteredAdd) {
  const Columns c = RandomColumns(6, kN);
  RunningStats scalar, columnar;
  for (std::size_t i = 0; i < kN; ++i) {
    if (c.dirs[i] == 1) scalar.Add(static_cast<double>(c.sizes[i]));
  }
  ForRandomChunks(106, kN, [&](std::size_t i, std::size_t len) {
    columnar.AddColumnU16(std::span<const std::uint16_t>(c.sizes).subspan(i, len),
                          std::span<const std::uint8_t>(c.dirs).subspan(i, len), 1);
  });
  EXPECT_EQ(scalar.count(), columnar.count());
  EXPECT_EQ(scalar.mean(), columnar.mean());
  EXPECT_EQ(scalar.variance(), columnar.variance());
  EXPECT_EQ(scalar.min(), columnar.min());
  EXPECT_EQ(scalar.max(), columnar.max());
}

TEST(AddColumn, EmpiricalDistributionMatchesUnitAdds) {
  const Columns c = RandomColumns(7, 4000);
  EmpiricalDistribution scalar, columnar;
  for (const std::uint16_t x : c.sizes) scalar.Add(static_cast<double>(x), 1.0);
  ForRandomChunks(107, c.sizes.size(), [&](std::size_t i, std::size_t len) {
    columnar.AddColumn(std::span<const std::uint16_t>(c.sizes).subspan(i, len));
  });
  EXPECT_EQ(scalar.support_size(), columnar.support_size());
  EXPECT_EQ(scalar.total_weight(), columnar.total_weight());
  EXPECT_EQ(scalar.Mean(), columnar.Mean());
  EXPECT_EQ(scalar.Variance(), columnar.Variance());
  for (double u = 0.0; u < 1.0; u += 0.0625) {
    EXPECT_EQ(scalar.SampleByUniform(u), columnar.SampleByUniform(u));
  }
}

TEST(AddColumn, EmptyBatchIsNoOp) {
  TimeSeries ts(0.0, 1.0);
  Histogram h(0.0, 1.0, 4);
  RunningStats rs;
  const std::span<const double> no_times;
  const std::span<const std::uint16_t> no_sizes;
  const std::span<const std::uint8_t> no_mask;
  ts.AddColumn(no_times);
  ts.AddColumn(no_times, no_mask, 0);
  h.AddColumn(no_sizes);
  h.AddColumn(no_sizes, no_mask, 0);
  rs.AddColumnU16(no_sizes);
  rs.AddColumnU16(no_sizes, no_mask, 0);
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(h.total(), 0u);
  EXPECT_TRUE(rs.empty());
}

}  // namespace
}  // namespace gametrace::stats
