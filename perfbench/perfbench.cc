// perfbench: end-to-end throughput of the gametrace pipeline, measured from
// outside through the libraries' public calls.
//
//   perfbench --workload <server_long|fleet_short|nat_meltdown>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Untraced (--trace 0): one warm-up rep, then timed reps until --seconds
// have passed. Before every rep run ~20 ms of one-tick calls of the same
// workload config (their median is the set-up time) and the calibration
// kernel; the kernel runs again after the rep. Each throughput is the median
// over the run's reps.
//
// Traced (--trace 1): the same reps, alternating with and without a bound
// metrics registry and the benchmark's own spans (the difference is the
// tracing overhead), followed by per-layer probes. The spans are written to
// <out-dir>/<workload>-seed<n>.json (Chrome trace-event JSON) at exit.
//
// Prints one JSON line: {"correct", "attempted", "failed", "values",
// "detail"}. run.py attaches the units declared in BENCHMARK.json.
#include <time.h>

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/characterizer.h"
#include "core/experiment.h"
#include "core/fleet.h"
#include "game/client.h"
#include "game/config.h"
#include "net/packet_batch.h"
#include "net/units.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/prom.h"
#include "obs/trace_log.h"
#include "router/device_stats.h"
#include "sim/rng.h"
#include "stats/histogram.h"
#include "stats/time_series.h"
#include "trace/aggregator.h"
#include "trace/capture.h"
#include "trace/fused_chain.h"
#include "trace/session_tracker.h"
#include "trace/summary.h"

namespace {

using namespace gametrace;

// ---------------------------------------------------------------------------
// Clocks and order statistics
// ---------------------------------------------------------------------------

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process CPU time: every thread of the process, so a two-worker fleet
// counts both workers.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Stopwatch {
  double wall0 = WallSeconds();
  double cpu0 = CpuSeconds();
  [[nodiscard]] double Wall() const { return WallSeconds() - wall0; }
  [[nodiscard]] double Cpu() const { return CpuSeconds() - cpu0; }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Quartiles by the same rule as Python's statistics.quantiles(v, n=4)
// (the "exclusive" method), so in-run spreads read like spreads taken
// across runs with it.
std::vector<double> Quartiles(std::vector<double> v) {
  if (v.size() < 2) {
    const double x = v.empty() ? 0.0 : v.front();
    return {x, x, x};
  }
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::vector<double> q;
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q.push_back((v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                 v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                4.0);
  }
  return q;
}

// Median CPU seconds of `reps` calls of fn.
template <class Fn>
double MedianCpu(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const Stopwatch sw;
    fn();
    t.push_back(sw.Cpu());
  }
  return Median(std::move(t));
}

// Runs fn inside a span of the benchmark's own trace (a no-op when spans is
// null) and returns its result.
template <class Fn>
auto Span(obs::TraceLog* spans, const char* name, Fn&& fn) {
  const obs::ScopedSpan span(spans, name, "bench");
  return fn();
}

// ---------------------------------------------------------------------------
// Calibration kernel: a fixed amount of machine work, timed in CPU seconds
// just before and just after every rep. Dividing a rep's throughput by the
// kernel's rate cancels much of the drift a shared host adds (neighbours
// contending for the core, caches and memory). Its loops follow the
// pipeline's mix: the generator's transcendental samplers, an event queue
// (a binary heap of pending timestamps), branchy integer code and scattered
// updates of a buffer larger than L2. Of the kernels tried, the sampler and
// queue loops slowed down most like the pipeline when the host got busy.
// The kernel calls nothing in gametrace, so a faster pipeline never speeds
// it up. Allocation-free after construction.
// ---------------------------------------------------------------------------

class Calibration {
 public:
  static constexpr std::uint64_t kFloatOps = 1u << 20;
  static constexpr std::uint64_t kQueueOps = 1u << 19;
  static constexpr std::uint64_t kBranchOps = 1u << 20;
  static constexpr std::uint64_t kMemOps = 1u << 22;
  static constexpr std::size_t kPending = 48;      // events in the queue
  static constexpr std::size_t kWords = 1u << 20;  // 4 MiB

  Calibration() : queue_(kPending), buffer_(kWords, 1u) {}

  // Loop iterations of the four loops per CPU-second.
  double Run() {
    const Stopwatch sw;
    std::uint64_t x = 0x2545F4914F6CDD1DULL;
    double f = 0.0;
    double g = 1.0;
    for (std::uint64_t i = 0; i < kFloatOps; ++i) {
      x = Step(x);
      const double u = Unit(x);
      f += std::log(u) * std::sqrt(g) + std::exp(-u);
      g = g * 1.0000001 + u;
    }
    for (std::size_t i = 0; i < kPending; ++i) {
      x = Step(x);
      queue_[i] = {Unit(x), static_cast<std::uint32_t>(i)};
    }
    std::make_heap(queue_.begin(), queue_.end(), std::greater<>());
    for (std::uint64_t i = 0; i < kQueueOps; ++i) {
      std::pop_heap(queue_.begin(), queue_.end(), std::greater<>());
      x = Step(x);
      queue_.back().first += Unit(x);
      std::push_heap(queue_.begin(), queue_.end(), std::greater<>());
    }
    std::uint64_t acc = queue_.front().second;
    for (std::uint64_t i = 0; i < kBranchOps; ++i) {
      x = Step(x);
      if (x >> 63) {
        acc += x >> 7;
      } else {
        acc ^= x << 3;
      }
      if ((x >> 40) & 1) acc += i;
    }
    std::uint32_t* buf = buffer_.data();
    for (std::uint64_t i = 0; i < kMemOps; ++i) {
      x = Step(x);
      buf[x >> 44] += static_cast<std::uint32_t>(x);
    }
    checksum_ ^= acc ^ static_cast<std::uint64_t>(std::fabs(f)) ^ buf[x & (kWords - 1)];
    return static_cast<double>(kFloatOps + kQueueOps + kBranchOps + kMemOps) / sw.Cpu();
  }

  // Folds the kernel's results into the output so the loops stay live.
  [[nodiscard]] std::uint64_t checksum() const noexcept { return checksum_; }

 private:
  static std::uint64_t Step(std::uint64_t x) noexcept {
    x ^= x >> 29;
    return x * 0xBF58476D1CE4E5B9ULL + 1;
  }
  // A double in (0, 1] from the top 53 bits.
  static double Unit(std::uint64_t x) noexcept {
    return static_cast<double>(x >> 11) * 0x1.0p-53 + 1e-12;
  }

  std::vector<std::pair<double, std::uint32_t>> queue_;
  std::vector<std::uint32_t> buffer_;
  std::uint64_t checksum_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kServerLong, kFleetShort, kNatMeltdown };

struct Workload {
  Kind kind = Kind::kServerLong;
  std::uint64_t seed = 0;
  game::GameConfig server;        // server_long
  core::FleetConfig fleet;        // fleet_short
  core::NatExperimentConfig nat;  // nat_meltdown
};

constexpr double kServerWindow = 6.0 * 3600.0;
constexpr int kFleetShards = 1000;
constexpr double kFleetWindow = 30.0;
constexpr int kFleetWorkers = 2;

std::optional<Kind> ParseKind(const std::string& name) {
  if (name == "server_long") return Kind::kServerLong;
  if (name == "fleet_short") return Kind::kFleetShort;
  if (name == "nat_meltdown") return Kind::kNatMeltdown;
  return std::nullopt;
}

Workload MakeWorkload(Kind kind, std::uint64_t seed) {
  Workload w;
  w.kind = kind;
  w.seed = seed;
  w.server = game::GameConfig::ScaledDefaults(kServerWindow);
  w.server.seed = seed;
  w.fleet = core::FleetConfig::Scaled(kFleetShards, kFleetWindow);
  w.fleet.threads = kFleetWorkers;
  w.fleet.base_seed = seed;
  w.nat = core::NatExperimentConfig::Defaults();  // Table IV: 30 min, packed map
  w.nat.game.seed = seed;
  w.nat.device.seed = sim::SubstreamSeed(seed, 1);
  return w;
}

// The same workload config with a one-tick simulated window: what a run
// costs before the first simulated second does any work.
Workload OneTick(Workload w) {
  const double tick = w.server.tick_interval;
  w.server.trace_duration = tick;
  w.fleet.server.trace_duration = tick;
  w.nat.duration = tick;
  w.nat.game.trace_duration = tick;
  return w;
}

// Bytes held by a report's vt bins, per-minute series, sessions and
// histograms.
double ReportMb(const core::CharacterizationReport& r) {
  const std::size_t series = r.vt_base_packets.size() + r.minute_packets_in.size() +
                             r.minute_packets_out.size() + r.minute_bytes_in.size() +
                             r.minute_bytes_out.size();
  const std::size_t hist_bins = r.session_bandwidth.bin_count() + r.size_total.bin_count() +
                                r.size_in.bin_count() + r.size_out.bin_count();
  const std::size_t bytes = series * sizeof(double) +
                            r.sessions.size() * sizeof(trace::Session) +
                            hist_bins * sizeof(std::uint64_t);
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// FNV-1a over everything a report holds; equal digests across reps mean the
// merged fleet result did not change.
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
  d.AddSeries(r.minute_packets_in);
  d.AddSeries(r.minute_packets_out);
  d.AddSeries(r.minute_bytes_in);
  d.AddSeries(r.minute_bytes_out);
  d.AddSeries(r.vt_base_packets);
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

// Table IV drop fraction: packets that entered the NAT and never left it,
// over both directions.
double DropFraction(const router::DeviceStats& d) {
  using router::Segment;
  const double entered = static_cast<double>(d.packets(Segment::kClientsToNat) +
                                             d.packets(Segment::kServerToNat));
  const double dropped =
      static_cast<double>(d.drops(Segment::kClientsToNat) + d.drops(Segment::kServerToNat));
  return entered > 0.0 ? dropped / entered : 0.0;
}

// One pass of the workload's pipeline. cpu_s/wall_s cover the pipeline
// calls only; the correctness check runs after the clocks stop.
struct Rep {
  double cpu_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t packets = 0;  // packets the server(s) emitted
  bool ok = true;
  std::string why;            // first failed check
  std::uint64_t digest = 0;   // fleet_short: merged report digest
  // Filled when the workload's own calls produce them (traced attribution).
  double finish_ms = -1.0;
  double report_mb = -1.0;

  void Require(bool cond, const std::string& what) {
    if (!cond && ok) {
      ok = false;
      why = what;
    }
  }
};

bool Near(double value, double target, double tol) { return std::fabs(value - target) <= tol; }

// Table III bands, as tests/integration/pipeline_test.cc asserts them.
void CheckTableIII(const core::CharacterizationReport& report, std::uint64_t emitted, Rep& rep) {
  const trace::TraceSummary& s = report.summary;
  rep.Require(s.total_packets() == emitted, "report packet count != packets_emitted");
  rep.Require(Near(s.mean_packet_size_in(), 39.72, 2.0),
              "inbound mean size outside Table III band");
  rep.Require(Near(s.mean_packet_size_out(), 129.51, 12.0),
              "outbound mean size outside Table III band");
  rep.Require(Near(s.mean_packet_size(), 80.33, 10.0), "mean size outside Table III band");
  rep.Require(Near(s.mean_packet_load(), 798.0, 120.0), "mean load outside Table III band");
  rep.Require(Near(net::Kbps(s.mean_bandwidth_bps()), 850.0, 130.0),
              "mean bandwidth outside Table III band");
}

Rep RunServerLong(const Workload& w, obs::TraceLog* spans) {
  Rep rep;
  const Stopwatch sw;
  core::Characterizer analysis;
  const core::ServerTraceResult run =
      Span(spans, "RunServerTrace", [&] { return core::RunServerTrace(w.server, analysis); });
  const Stopwatch finish;
  const core::CharacterizationReport report =
      Span(spans, "Finish", [&] { return analysis.Finish(w.server.trace_duration); });
  rep.finish_ms = 1e3 * finish.Wall();
  rep.cpu_s = sw.Cpu();
  rep.wall_s = sw.Wall();
  rep.packets = run.stats.packets_emitted;
  rep.report_mb = ReportMb(report);
  CheckTableIII(report, rep.packets, rep);
  return rep;
}

struct Exported {
  std::size_t bytes = 0;
  double ms = 0.0;
};

// The merged surfaces an operator exports, rendered to in-memory strings.
Exported ExportFleet(const core::FleetResult& fleet) {
  const Stopwatch sw;
  const std::string metrics = fleet.metrics.ToJson();
  const std::string prom = obs::ToPrometheusText(fleet.metrics);
  const std::string trace = fleet.trace_log.ToJson();
  return {metrics.size() + prom.size() + trace.size(), 1e3 * sw.Wall()};
}

Rep RunFleetShort(const Workload& w, obs::TraceLog* spans) {
  Rep rep;
  const Stopwatch sw;
  const core::FleetResult fleet = Span(spans, "RunFleet", [&] { return core::RunFleet(w.fleet); });
  const Exported exported = Span(spans, "export", [&] { return ExportFleet(fleet); });
  rep.cpu_s = sw.Cpu();
  rep.wall_s = sw.Wall();
  rep.packets = fleet.total_packets;
  rep.digest = ReportDigest(fleet.report);
  rep.report_mb = ReportMb(fleet.report);
  rep.Require(fleet.report.summary.total_packets() == fleet.total_packets,
              "merged report packet count != fleet total_packets");
  rep.Require(exported.bytes > 0, "empty export");
  return rep;
}

// Table IV: 1.3% incoming and 0.46% outgoing loss, 0.93% of all packets
// entering the device. The band allows a factor of three either way and
// keeps the paper's asymmetry.
void CheckTableIV(const router::DeviceStats& d, Rep& rep) {
  const double drop = DropFraction(d);
  rep.Require(drop >= 0.0031 && drop <= 0.028, "drop fraction outside Table IV band");
  rep.Require(d.loss_rate_incoming() > d.loss_rate_outgoing(),
              "incoming loss not above outgoing loss");
}

Rep RunNatMeltdown(const Workload& w, obs::TraceLog* spans) {
  Rep rep;
  const Stopwatch sw;
  const core::NatExperimentResult result =
      Span(spans, "RunNatExperiment", [&] { return core::RunNatExperiment(w.nat); });
  rep.cpu_s = sw.Cpu();
  rep.wall_s = sw.Wall();
  rep.packets = result.server.packets_emitted;
  CheckTableIV(result.device, rep);
  return rep;
}

Rep RunPipeline(const Workload& w, obs::TraceLog* spans) {
  switch (w.kind) {
    case Kind::kServerLong:
      return RunServerLong(w, spans);
    case Kind::kFleetShort:
      return RunFleetShort(w, spans);
    case Kind::kNatMeltdown:
      return RunNatMeltdown(w, spans);
  }
  return {};
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced mode only). Each times one layer's public call on
// inputs derived from the workload: a probe stream of the workload's own
// per-server traffic mix, a fleet (the workload's, or a small one of its
// servers) and a NAT run (the workload's, or a short Table IV one).
// ---------------------------------------------------------------------------

constexpr double kProbeWindow = 900.0;  // ~0.7 M packets of one server
constexpr int kProbeReps = 5;
constexpr std::size_t kChunk = 4096;    // trace::Replay's chunk size

using Layers = std::map<std::string, double>;

game::GameConfig ProbeServer(const Workload& w) {
  game::GameConfig cfg;
  switch (w.kind) {
    case Kind::kServerLong:
      cfg = w.server;
      break;
    case Kind::kFleetShort:
      cfg = w.fleet.server;
      cfg.seed = sim::SubstreamSeed(w.fleet.base_seed, 0);
      break;
    case Kind::kNatMeltdown:
      cfg = w.nat.game;
      break;
  }
  cfg.trace_duration = kProbeWindow;
  return cfg;
}

core::FleetConfig ProbeFleet(const Workload& w) {
  if (w.kind == Kind::kFleetShort) return w.fleet;
  core::FleetConfig fleet;
  fleet.shards = 64;
  fleet.threads = kFleetWorkers;
  fleet.base_seed = w.seed;
  fleet.server = ProbeServer(w);
  fleet.server.trace_duration = kFleetWindow;
  return fleet;
}

core::NatExperimentConfig ProbeNat(const Workload& w) {
  if (w.kind == Kind::kNatMeltdown) return w.nat;
  core::NatExperimentConfig nat = w.nat;
  nat.duration = 600.0;
  nat.game.trace_duration = nat.duration;
  return nat;
}

double NsPerPacket(double cpu_s, std::uint64_t packets) {
  return packets > 0 ? 1e9 * cpu_s / static_cast<double>(packets) : 0.0;
}

void ProbeGenerator(const game::GameConfig& cfg, Layers& out) {
  std::uint64_t packets = 0;
  const double cpu = MedianCpu(kProbeReps, [&] {
    trace::CountingSink sink;
    packets = core::RunServerTrace(cfg, sink).stats.packets_emitted;
  });
  out["game.gen_ns_per_pkt"] = NsPerPacket(cpu, packets);

  obs::MetricsRegistry registry;
  const obs::ScopedObsBinding bind({.metrics = &registry, .heartbeat = false});
  trace::CountingSink sink;
  const std::uint64_t emitted = core::RunServerTrace(cfg, sink).stats.packets_emitted;
  out["sim.events_per_pkt"] =
      static_cast<double>(registry.counter_value("sim.events_executed")) /
      static_cast<double>(std::max<std::uint64_t>(emitted, 1));
  out["sim.queue_high_water"] = registry.gauge_value("sim.queue.high_water");
}

// Per-packet CPU of one columnar accumulator fed the probe stream alone.
template <class Make, class Feed>
double ColumnNs(const std::vector<net::ColumnarBatch>& chunks, std::size_t packets, Make&& make,
                Feed&& feed) {
  const double cpu = MedianCpu(kProbeReps, [&] {
    auto acc = make();
    for (const net::ColumnarBatch& c : chunks) feed(acc, c.View());
  });
  return NsPerPacket(cpu, packets);
}

void ProbeAnalysis(const std::vector<net::PacketRecord>& stream, std::size_t population,
                   Layers& out) {
  const std::size_t n = stream.size();
  std::vector<double> analyze_cpu;
  std::vector<double> finish_ms;
  std::optional<core::CharacterizationReport> report;
  for (int r = 0; r < kProbeReps; ++r) {
    core::Characterizer analysis;
    const Stopwatch replay;
    trace::Replay(stream, analysis);
    analyze_cpu.push_back(replay.Cpu());
    const Stopwatch finish;
    report.emplace(analysis.Finish(kProbeWindow));
    finish_ms.push_back(1e3 * finish.Wall());
  }
  out["core.analyze_ns_per_pkt"] = NsPerPacket(Median(analyze_cpu), n);
  out["core.finish_ms"] = Median(finish_ms);
  out["core.report_mb"] = ReportMb(*report);

  std::vector<net::ColumnarBatch> chunks;
  for (std::size_t i = 0; i < n; i += kChunk) {
    chunks.emplace_back();
    chunks.back().Append(std::span(stream).subspan(i, std::min(kChunk, n - i)));
  }
  out["trace.summary_ns_per_pkt"] = ColumnNs(
      chunks, n, [] { return trace::TraceSummary(); },
      [](trace::TraceSummary& s, const net::PacketBatch& b) { s.AccumulateColumns(b); });
  out["trace.minute_agg_ns_per_pkt"] = ColumnNs(
      chunks, n, [] { return trace::LoadAggregator(60.0); },
      [](trace::LoadAggregator& a, const net::PacketBatch& b) { a.AccumulateColumns(b); });
  out["trace.sessions_ns_per_pkt"] = ColumnNs(
      chunks, n, [] { return trace::SessionTracker(30.0); },
      [](trace::SessionTracker& t, const net::PacketBatch& b) { t.AccumulateColumns(b); });
  out["stats.vt_series_ns_per_pkt"] = ColumnNs(
      chunks, n, [] { return stats::TimeSeries(0.0, 0.010); },
      [](stats::TimeSeries& s, const net::PacketBatch& b) {
        s.AddColumn(std::span(b.timestamps, b.count));
      });
  out["stats.size_hist_ns_per_pkt"] = ColumnNs(
      chunks, n, [] { return stats::Histogram(0.0, 500.0, 500); },
      [](stats::Histogram& h, const net::PacketBatch& b) {
        h.AddColumn(std::span(b.app_bytes, b.count));
      });

  // Delivery: a fleet shard's namespace rewrite and fused dispatch, over
  // delivering the same columns straight to the terminal. Both are a few ns
  // per packet, so each timing streams the probe several times.
  constexpr int kPasses = 8;
  const auto deliver = [&](trace::CaptureSink& head) {
    for (int p = 0; p < kPasses; ++p) {
      for (const net::ColumnarBatch& c : chunks) head.OnColumns(c.View());
    }
  };
  const double bare = MedianCpu(kProbeReps, [&] {
    trace::CountingSink sink;
    deliver(sink);
  });
  const double fused = MedianCpu(kProbeReps, [&] {
    trace::CountingSink sink;
    trace::ShardNamespaceSink namespaced(
        trace::ShardNamespaceSink::ExplicitShift{game::ShardIpShift(1, population)}, sink);
    const std::unique_ptr<trace::FusedChain> chain = trace::FuseChain(namespaced);
    deliver(*chain);
  });
  out["trace.deliver_ns_per_pkt"] = NsPerPacket(fused - bare, n * kPasses);
}

void ProbeFleetLayers(const core::FleetConfig& cfg, Layers& out) {
  const core::FleetResult fleet = core::RunFleet(cfg);
  const obs::SchedReport& sr = fleet.sched_report;
  double span = 0.0, work = 0.0, idle = 0.0, stall = 0.0, merge = 0.0, steals = 0.0;
  for (const obs::SchedReport::Worker& wk : sr.per_worker) {
    span += static_cast<double>(wk.span_ns);
    work += static_cast<double>(wk.work_ns);
    idle += static_cast<double>(wk.idle_ns);
    stall += static_cast<double>(wk.stall_ns);
    merge += static_cast<double>(wk.merge_ns);
    steals += static_cast<double>(wk.steals);
  }
  span = std::max(span, 1.0);
  out["fleet.work_frac"] = work / span;
  out["fleet.idle_frac"] = idle / span;
  out["fleet.stall_frac"] = stall / span;
  out["fleet.merge_frac"] = merge / span;
  out["fleet.steals"] = steals;
  out["fleet.imbalance"] = sr.imbalance_ratio;

  std::vector<double> export_ms;
  std::size_t export_bytes = 0;
  for (int r = 0; r < kProbeReps; ++r) {
    const Exported e = ExportFleet(fleet);
    export_ms.push_back(e.ms);
    export_bytes = e.bytes;
  }
  out["obs.export_ms"] = Median(export_ms);
  out["obs.export_bytes"] = static_cast<double>(export_bytes);

  // MergeReports over the finished partials of the fleet's first shards,
  // namespaced as the fleet namespaces them.
  const int shards = std::min(cfg.shards, 64);
  std::vector<core::CharacterizationReport> partials;
  for (int s = 0; s < shards; ++s) {
    game::GameConfig server = cfg.server;
    server.seed = sim::SubstreamSeed(cfg.base_seed, static_cast<std::uint64_t>(s));
    core::Characterizer analysis(cfg.analysis);
    trace::ShardNamespaceSink namespaced(
        trace::ShardNamespaceSink::ExplicitShift{
            game::ShardIpShift(static_cast<std::uint32_t>(s), server.sessions.population)},
        analysis);
    const std::unique_ptr<trace::FusedChain> chain = trace::FuseChain(namespaced);
    (void)core::RunServerTrace(server, *chain);
    partials.push_back(analysis.Finish(server.trace_duration));
  }
  std::vector<double> merge_ms;
  for (int r = 0; r < kProbeReps; ++r) {
    std::vector<core::CharacterizationReport> copy = partials;
    const Stopwatch sw;
    const core::CharacterizationReport merged = core::MergeReports(std::move(copy));
    merge_ms.push_back(1e3 * sw.Wall());
  }
  out["core.merge_ms"] = Median(merge_ms);
}

void ProbeRouter(const core::NatExperimentConfig& cfg, Layers& out) {
  constexpr int kReps = 3;
  std::optional<core::NatExperimentResult> last;
  const double nat_cpu = MedianCpu(kReps, [&] { last.emplace(core::RunNatExperiment(cfg)); });
  std::uint64_t generated = 0;
  const double gen_cpu = MedianCpu(kReps, [&] {
    trace::CountingSink sink;
    generated = core::RunServerTrace(cfg.game, sink).stats.packets_emitted;
  });
  out["router.nat_ns_per_pkt"] =
      NsPerPacket(nat_cpu, last->server.packets_emitted) - NsPerPacket(gen_cpu, generated);
  out["router.drop_frac"] = DropFraction(last->device);
  out["router.livelock_episodes"] = last->livelock_episodes;
  out["game.server_freezes"] = last->server_freezes;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void AppendNumber(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  out += buf;
}

void AppendKey(std::string& out, const std::string& key) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += key;
  out += "\":";
}

void AppendList(std::string& out, const std::vector<double>& vs) {
  out += '[';
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i > 0) out += ',';
    AppendNumber(out, vs[i]);
  }
  out += ']';
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/traces";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <server_long|fleet_short|"
               "nat_meltdown> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      a.trace = value == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

// Timed reps interleaved with the calibration kernel.
struct RepSeries {
  std::vector<double> pps_cpu, pps_wall, norm_cpu, norm_wall, calib, cpu_s;
  int attempted = 0;
  int failed = 0;
  std::string first_failure;

  void Record(const Rep& rep, double calib_rate) {
    ++attempted;
    if (!rep.ok) {
      ++failed;
      if (first_failure.empty()) first_failure = rep.why;
      return;
    }
    const double packets = static_cast<double>(rep.packets);
    pps_cpu.push_back(packets / rep.cpu_s);
    pps_wall.push_back(packets / rep.wall_s);
    norm_cpu.push_back(packets / rep.cpu_s / calib_rate);
    norm_wall.push_back(packets / rep.wall_s / calib_rate);
    calib.push_back(calib_rate);
    cpu_s.push_back(rep.cpu_s);
  }
};

constexpr int kMinReps = 5;
// setup_s is expressed in seconds of a reference machine whose calibration
// kernel runs at this rate, so host drift cancels in it as it does in the
// normalised throughputs.
constexpr double kReferenceOpsPerSecond = 1e8;
constexpr int kMaxReps = 500;

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::optional<Kind> kind = ParseKind(args.workload);
  if (!kind) Usage("unknown --workload");
  const Workload w = MakeWorkload(*kind, args.seed);

  // Blocks of 1 MiB and up always come from mmap and return to the OS when
  // freed, so peak RSS follows the pipeline's live memory rather than the
  // allocator's history across reps (glibc otherwise raises this threshold
  // as large blocks are freed).
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  // Long runs would otherwise print wall-clock heartbeats to stderr.
  const obs::ScopedObsBinding quiet({.heartbeat = false});

  Calibration calibration;
  obs::TraceLog spans(/*pid=*/0, /*max_events=*/1u << 16);
  const double t0 = WallSeconds();
  spans.SetClock([t0] { return WallSeconds() - t0; });
  obs::TraceLog* const traced = args.trace ? &spans : nullptr;

  // Set-up is the fixed cost of one run: the median of one-tick runs of the
  // workload config. About 20 ms of them (at least one) run before every
  // rep, so they sample the same machine conditions as the reps do, and each
  // is rescaled by the calibration rate measured next to it.
  const Workload tick = OneTick(w);
  std::vector<double> setup_wall_s;  // as measured
  std::vector<double> setup_s;       // in reference-machine seconds
  const auto measure_setup = [&] {
    if (args.trace) return;
    const Stopwatch budget;
    do {
      const Stopwatch sw;
      (void)RunPipeline(tick, nullptr);
      setup_wall_s.push_back(sw.Wall());
    } while (budget.Wall() < 0.02);
  };

  // Warm-up: fills caches and the allocator; also the reference digest.
  (void)RunPipeline(tick, nullptr);
  (void)calibration.Run();
  const Rep warm = Span(traced, "warmup", [&] { return RunPipeline(w, nullptr); });

  RepSeries plain;   // untraced reps
  RepSeries marked;  // traced mode: reps with registry + spans
  obs::MetricsRegistry registry;
  Rep last_traced;
  const Stopwatch run;
  for (int i = 0; i < kMaxReps; ++i) {
    const int done = plain.attempted + marked.attempted;
    if (done >= kMinReps * (args.trace ? 2 : 1) && run.Wall() >= args.seconds) break;
    const bool with_trace = args.trace && i % 2 == 1;
    const std::size_t first_setup = setup_wall_s.size();
    measure_setup();
    // The kernel runs just before and just after the rep; their geometric
    // mean is the machine's rate over the rep.
    const double before = Span(traced, "calibrate", [&] { return calibration.Run(); });
    for (std::size_t k = first_setup; k < setup_wall_s.size(); ++k) {
      setup_s.push_back(setup_wall_s[k] * before / kReferenceOpsPerSecond);
    }
    Rep rep;
    if (with_trace) {
      const obs::ScopedObsBinding bind({.metrics = &registry, .heartbeat = false});
      rep = Span(traced, "rep", [&] { return RunPipeline(w, traced); });
    } else {
      rep = RunPipeline(w, nullptr);
    }
    const double after = Span(traced, "calibrate", [&] { return calibration.Run(); });
    if (w.kind == Kind::kFleetShort && rep.ok && rep.digest != warm.digest) {
      rep.ok = false;
      rep.why = "merged report digest differs from the warm-up rep";
    }
    (with_trace ? marked : plain).Record(rep, std::sqrt(before * after));
    if (with_trace) last_traced = rep;
  }

  const int attempted = plain.attempted + marked.attempted;
  const int failed = plain.failed + marked.failed;
  const bool correct = failed == 0;

  std::string values = "{";
  std::string quartiles = "{";
  std::string raw = "{";
  if (!args.trace) {
    const auto put = [&](const std::string& name, const std::vector<double>& v) {
      AppendKey(values, name);
      AppendNumber(values, Median(v));
      AppendKey(quartiles, name);
      AppendList(quartiles, Quartiles(v));
    };
    put("sim_pps_norm", plain.norm_cpu);
    put("sim_pps_wall_norm", plain.norm_wall);
    put("setup_s", setup_s);
    AppendKey(values, "peak_rss_mb");
    AppendNumber(values, PeakRssMb());
    // The raw figures move with the host's load; reported, not bounded.
    for (const auto& [name, v] : {std::pair{"sim_pps_cpu", &plain.pps_cpu},
                                  std::pair{"sim_pps_wall", &plain.pps_wall},
                                  std::pair{"setup_wall_s", &setup_wall_s}}) {
      AppendKey(raw, name);
      AppendList(raw, Quartiles(*v));
    }
  } else {
    Layers layers;
    Span(traced, "probe.generator", [&] { ProbeGenerator(ProbeServer(w), layers); });
    std::vector<net::PacketRecord> stream;
    Span(traced, "probe.capture", [&] {
      trace::VectorSink sink;
      (void)core::RunServerTrace(ProbeServer(w), sink);
      stream = sink.TakeRecords();
    });
    Span(traced, "probe.analysis", [&] {
      ProbeAnalysis(stream, ProbeServer(w).sessions.population, layers);
    });
    stream = {};
    Span(traced, "probe.fleet", [&] { ProbeFleetLayers(ProbeFleet(w), layers); });
    Span(traced, "probe.router", [&] { ProbeRouter(ProbeNat(w), layers); });
    // Prefer what the workload's own calls produced over the probe's.
    if (last_traced.report_mb > 0.0) layers["core.report_mb"] = last_traced.report_mb;
    if (last_traced.finish_ms > 0.0) layers["core.finish_ms"] = last_traced.finish_ms;
    layers["calib.ops_per_cpu_s"] = Median(plain.calib);
    // Tracing overhead: registry binding plus the benchmark's spans, as the
    // CPU per packet of traced reps over untraced reps of the same run.
    const double untraced = Median(plain.norm_cpu);
    const double with = Median(marked.norm_cpu);
    layers["bench.trace_overhead_frac"] = with > 0.0 ? untraced / with - 1.0 : 0.0;
    for (const auto& [name, v] : layers) {
      AppendKey(values, name);
      AppendNumber(values, v);
    }
    quartiles += "\"sim_pps_norm_untraced\":";
    AppendList(quartiles, Quartiles(plain.norm_cpu));
    quartiles += ",\"sim_pps_norm_traced\":";
    AppendList(quartiles, Quartiles(marked.norm_cpu));
  }
  values += '}';
  quartiles += '}';
  raw += '}';

  std::string trace_path;
  if (args.trace) {
    std::filesystem::create_directories(args.out_dir);
    trace_path =
        args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) + ".json";
    std::ofstream(trace_path) << spans.ToJson();
  }

  std::string detail = "{";
  AppendKey(detail, "reps");
  detail += std::to_string(attempted);
  AppendKey(detail, "setup_calls");
  detail += std::to_string(setup_s.size());
  AppendKey(detail, "quartiles");
  detail += quartiles;
  AppendKey(detail, "raw_quartiles");
  detail += raw;
  AppendKey(detail, "calib_ops_per_cpu_s");
  AppendList(detail, plain.calib);
  AppendKey(detail, "rep_cpu_s");
  AppendList(detail, plain.cpu_s);
  AppendKey(detail, "calib_checksum");
  detail += std::to_string(calibration.checksum());
  AppendKey(detail, "first_failure");
  detail += '"' + plain.first_failure + marked.first_failure + '"';
  AppendKey(detail, "trace_file");
  detail += '"' + trace_path + '"';
  detail += '}';

  std::printf("{\"correct\":%s,\"attempted\":%d,\"failed\":%d,\"values\":%s,\"detail\":%s}\n",
              correct ? "true" : "false", attempted, failed, values.c_str(), detail.c_str());
  return 0;
}
