// Golden digests: 64-bit FNV-1a fingerprints of three pinned runs, compared
// against values committed with the code. The fleet determinism tests only
// prove that one build agrees with itself across worker counts; these catch
// a refactor that changes every output the same way. A change that moves a
// digest on purpose must say why in CHANGES.md and re-pin the value (the
// failure message prints the new one).
//
// The digest covers the fields perfbench's ReportDigest covers, plus the
// summary's packet-size running stats and the variance-time points. It is
// pinned on a portable x86-64 GCC 12 Release build (RelWithDebInfo gives
// the same values). A build that lets the compiler contract a*b+c into one
// fused multiply-add (-march=native on an FMA-capable CPU, so __FMA__ is
// defined: the release-native configuration) rounds the simulator's
// arithmetic differently and moves every digest. Each value therefore
// carries a second pin for that codegen, taken from a GCC 12 -march=native
// build on an AVX-512 host.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "core/characterizer.h"
#include "core/experiment.h"
#include "core/fleet.h"
#include "game/config.h"
#include "router/device_stats.h"

namespace gametrace {
namespace {

class Digest {
 public:
  template <class T>
  void Add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) h_ = (h_ ^ b) * 0x100000001B3ULL;
  }
  void AddSeries(const stats::TimeSeries& s) {
    Add(s.size());
    for (double v : s.values()) Add(v);
  }
  void AddHistogram(const stats::Histogram& hist) {
    Add(hist.bin_count());
    for (std::size_t b = 0; b < hist.bin_count(); ++b) Add(hist.count(b));
  }
  void AddRunningStats(const stats::RunningStats& rs) {
    Add(rs.count());
    Add(rs.mean());
    Add(rs.variance());
    Add(rs.min());
    Add(rs.max());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::uint64_t ReportDigest(const core::CharacterizationReport& r) {
  Digest d;
  d.Add(r.summary.packets_in());
  d.Add(r.summary.packets_out());
  d.Add(r.summary.app_bytes_in());
  d.Add(r.summary.app_bytes_out());
  d.Add(r.summary.attempted_connections());
  d.Add(r.summary.established_connections());
  d.Add(r.summary.refused_connections());
  d.AddRunningStats(r.summary.size_stats_in());
  d.AddRunningStats(r.summary.size_stats_out());
  d.AddSeries(r.minute_packets_in);
  d.AddSeries(r.minute_packets_out);
  d.AddSeries(r.minute_bytes_in);
  d.AddSeries(r.minute_bytes_out);
  d.AddSeries(r.vt_base_packets);
  d.Add(r.variance_time.base_interval);
  d.Add(r.variance_time.base_variance);
  d.Add(r.variance_time.points.size());
  for (const stats::VariancePoint& p : r.variance_time.points) {
    d.Add(p.m);
    d.Add(p.interval_seconds);
    d.Add(p.normalized_variance);
  }
  d.Add(r.hurst.small_scale);
  d.Add(r.hurst.mid_scale);
  d.Add(r.hurst.large_scale);
  d.Add(r.sessions.size());
  for (const trace::Session& s : r.sessions) {
    d.Add(s.client_ip.value());
    d.Add(s.client_port);
    d.Add(s.start);
    d.Add(s.end);
    d.Add(s.packets_in);
    d.Add(s.packets_out);
    d.Add(s.app_bytes_in);
    d.Add(s.app_bytes_out);
  }
  d.AddHistogram(r.session_bandwidth);
  d.AddHistogram(r.size_total);
  d.AddHistogram(r.size_in);
  d.AddHistogram(r.size_out);
  return d.value();
}

std::uint64_t DeviceDigest(const router::DeviceStats& stats) {
  Digest d;
  for (int s = 0; s < router::kSegmentCount; ++s) {
    const auto segment = static_cast<router::Segment>(s);
    d.Add(stats.packets(segment));
    d.Add(stats.drops(segment));
  }
  d.AddRunningStats(stats.delay());
  d.Add(stats.delay_p50());
  d.Add(stats.delay_p99());
  return d.value();
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

#if defined(__FMA__)
constexpr bool kFma = true;
#else
constexpr bool kFma = false;
#endif

// Pinned values: {portable codegen, FMA-contracted codegen}.
struct Pin {
  std::uint64_t portable;
  std::uint64_t fma;
  [[nodiscard]] std::uint64_t value() const noexcept { return kFma ? fma : portable; }
};

constexpr Pin kServerHour{0x8b8a3e73b207657cULL, 0x868323261b750fabULL};
constexpr Pin kFleet16{0xd0af0588f5ee1da7ULL, 0x072c34062ff246d5ULL};
constexpr Pin kNatTable4{0xa9df92cc2718e88cULL, 0xb452c8af24a9e755ULL};

// The 1 h, seed-42 single server through the full characterization.
TEST(GoldenDigest, ServerHourReport) {
  const game::GameConfig cfg = game::GameConfig::ScaledDefaults(3600.0);
  ASSERT_EQ(cfg.seed, 42u);
  core::Characterizer analysis;
  core::RunServerTrace(cfg, analysis);
  const std::uint64_t got = ReportDigest(analysis.Finish(cfg.trace_duration));
  EXPECT_EQ(got, kServerHour.value()) << "ServerHourReport digest is " << Hex(got);
}

// A 16-shard fleet's merged report, at 1 and at 4 workers.
TEST(GoldenDigest, SixteenShardMergedReport) {
  for (const int threads : {1, 4}) {
    core::FleetConfig config = core::FleetConfig::Scaled(16, 120.0);
    config.base_seed = 42;
    config.threads = threads;
    const std::uint64_t got = ReportDigest(core::RunFleet(config).report);
    EXPECT_EQ(got, kFleet16.value())
        << "SixteenShardMergedReport digest at " << threads << " workers is " << Hex(got);
  }
}

// The Table IV NAT run: per-segment counts, drops and delay statistics.
TEST(GoldenDigest, NatTableIvDeviceStats) {
  const core::NatExperimentResult result =
      core::RunNatExperiment(core::NatExperimentConfig::Defaults());
  const std::uint64_t got = DeviceDigest(result.device);
  EXPECT_EQ(got, kNatTable4.value()) << "NatTableIvDeviceStats digest is " << Hex(got);
}

}  // namespace
}  // namespace gametrace
