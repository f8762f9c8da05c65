// Property tests for the columnar delivery tier (capture.h OnColumns) and
// the chain-fusion compiler (fused_chain.h): for every sink, a random
// record stream columnised at random batch boundaries must produce results
// bit-identical to the scalar per-packet path, and a fused chain must
// produce results bit-identical to the unfused composition it replaced.
// Doubles are compared with EXPECT_EQ (exact equality) - the contract is
// bit-identity, not approximation.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/characterizer.h"
#include "core/check.h"
#include "game/config.h"
#include "game/cs_server.h"
#include "net/packet_batch.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "trace/aggregator.h"
#include "trace/capture.h"
#include "trace/filter.h"
#include "trace/fused_chain.h"
#include "trace/session_tracker.h"
#include "trace/summary.h"

namespace gametrace::trace {
namespace {

// A plausible server-side stream: small endpoint pool, mostly game updates
// with occasional handshakes, near-monotone timestamps with rare idle gaps
// long enough to trip the session timeout.
std::vector<net::PacketRecord> RandomStream(std::uint64_t seed, std::size_t n) {
  sim::Rng rng(seed);
  std::vector<net::PacketRecord> out;
  out.reserve(n);
  constexpr std::size_t kClients = 8;
  std::uint32_t seq_in[kClients] = {};
  std::uint32_t seq_out[kClients] = {};
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.NextDouble();
    t += u < 0.997 ? 0.002 * rng.NextDouble() : 31.0 + 10.0 * rng.NextDouble();

    const auto c = static_cast<std::uint32_t>(rng.NextBelow(kClients));
    net::PacketRecord r;
    r.timestamp = t;
    r.client_ip = net::Ipv4Address((10u << 24) | (c + 1));
    r.client_port = static_cast<std::uint16_t>(30000 + c);
    r.app_bytes = static_cast<std::uint16_t>(20 + rng.NextBelow(400));
    r.direction = rng.NextBelow(3) == 0 ? net::Direction::kClientToServer
                                        : net::Direction::kServerToClient;
    const std::uint64_t k = rng.NextBelow(100);
    if (k < 92) {
      r.kind = net::PacketKind::kGameUpdate;
      r.seq = r.direction == net::Direction::kClientToServer ? ++seq_in[c] : ++seq_out[c];
    } else if (k < 94) {
      r.kind = net::PacketKind::kConnectRequest;
      r.direction = net::Direction::kClientToServer;
    } else if (k < 96) {
      r.kind = net::PacketKind::kConnectAccept;
      r.direction = net::Direction::kServerToClient;
    } else if (k < 97) {
      r.kind = net::PacketKind::kConnectReject;
      r.direction = net::Direction::kServerToClient;
    } else if (k < 98) {
      r.kind = net::PacketKind::kDisconnect;
      r.direction = net::Direction::kClientToServer;
    } else {
      r.kind = net::PacketKind::kChat;
      r.seq = r.direction == net::Direction::kClientToServer ? ++seq_in[c] : ++seq_out[c];
    }
    out.push_back(r);
  }
  return out;
}

// Delivers the stream as columnar batches split at random boundaries
// (lengths 1-8, with occasional empty batches interleaved).
void FeedRandomColumns(const std::vector<net::PacketRecord>& records, std::uint64_t seed,
                       CaptureSink& sink) {
  sim::Rng rng(seed);
  const std::span<const net::PacketRecord> all(records);
  net::ColumnarBatch columns;
  std::size_t i = 0;
  while (i < records.size()) {
    if (rng.NextBelow(16) == 0) {
      columns.Clear();
      sink.OnColumns(columns.View());  // empty batch
    }
    const std::size_t len = std::min<std::size_t>(1 + rng.NextBelow(8), records.size() - i);
    columns.Clear();
    columns.Append(all.subspan(i, len));
    sink.OnColumns(columns.View());
    i += len;
  }
}

void FeedScalar(const std::vector<net::PacketRecord>& records, CaptureSink& sink) {
  for (const net::PacketRecord& r : records) sink.OnPacket(r);
}

void ExpectSeriesIdentical(const stats::TimeSeries& a, const stats::TimeSeries& b) {
  EXPECT_EQ(a.start_time(), b.start_time());
  EXPECT_EQ(a.interval(), b.interval());
  EXPECT_EQ(a.dropped_before_start(), b.dropped_before_start());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.values(), b.values());
}

void ExpectHistogramIdentical(const stats::Histogram& a, const stats::Histogram& b) {
  ASSERT_EQ(a.bin_count(), b.bin_count());
  for (std::size_t i = 0; i < a.bin_count(); ++i) EXPECT_EQ(a.count(i), b.count(i));
  EXPECT_EQ(a.underflow(), b.underflow());
  EXPECT_EQ(a.overflow(), b.overflow());
  EXPECT_EQ(a.total(), b.total());
}

void ExpectSummaryIdentical(const TraceSummary& a, const TraceSummary& b) {
  EXPECT_EQ(a.packets_in(), b.packets_in());
  EXPECT_EQ(a.packets_out(), b.packets_out());
  EXPECT_EQ(a.app_bytes_in(), b.app_bytes_in());
  EXPECT_EQ(a.app_bytes_out(), b.app_bytes_out());
  EXPECT_EQ(a.wire_bytes_total(), b.wire_bytes_total());
  EXPECT_EQ(a.attempted_connections(), b.attempted_connections());
  EXPECT_EQ(a.established_connections(), b.established_connections());
  EXPECT_EQ(a.refused_connections(), b.refused_connections());
  EXPECT_EQ(a.unique_clients_attempting(), b.unique_clients_attempting());
  EXPECT_EQ(a.unique_clients_establishing(), b.unique_clients_establishing());
  EXPECT_EQ(a.first_packet_time(), b.first_packet_time());
  EXPECT_EQ(a.last_packet_time(), b.last_packet_time());
  EXPECT_EQ(a.size_stats_in().count(), b.size_stats_in().count());
  EXPECT_EQ(a.size_stats_in().mean(), b.size_stats_in().mean());
  EXPECT_EQ(a.size_stats_in().variance(), b.size_stats_in().variance());
  EXPECT_EQ(a.size_stats_in().min(), b.size_stats_in().min());
  EXPECT_EQ(a.size_stats_in().max(), b.size_stats_in().max());
  EXPECT_EQ(a.size_stats_out().count(), b.size_stats_out().count());
  EXPECT_EQ(a.size_stats_out().mean(), b.size_stats_out().mean());
  EXPECT_EQ(a.size_stats_out().variance(), b.size_stats_out().variance());
  EXPECT_EQ(a.size_stats_out().min(), b.size_stats_out().min());
  EXPECT_EQ(a.size_stats_out().max(), b.size_stats_out().max());
}

void ExpectSessionsIdentical(const std::vector<Session>& a, const std::vector<Session>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].client_ip, b[i].client_ip);
    EXPECT_EQ(a[i].client_port, b[i].client_port);
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_EQ(a[i].packets_in, b[i].packets_in);
    EXPECT_EQ(a[i].packets_out, b[i].packets_out);
    EXPECT_EQ(a[i].app_bytes_in, b[i].app_bytes_in);
    EXPECT_EQ(a[i].app_bytes_out, b[i].app_bytes_out);
  }
}

constexpr std::size_t kStreamLen = 20000;

// ---- SoA round-trip ----------------------------------------------------

TEST(PacketBatch, RecordRoundTripIsExact) {
  const auto records = RandomStream(40, 512);
  net::ColumnarBatch columns;
  columns.Append(records);
  const net::PacketBatch view = columns.View();
  ASSERT_EQ(view.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(view.RecordAt(i), records[i]);
  }
  std::vector<net::PacketRecord> back;
  view.MaterializeInto(back);
  EXPECT_EQ(back, records);
}

TEST(PacketBatch, PushFromCopiesSingleRows) {
  const auto records = RandomStream(41, 256);
  net::ColumnarBatch all;
  all.Append(records);
  net::ColumnarBatch odd;
  for (std::size_t i = 1; i < records.size(); i += 2) odd.PushFrom(all.View(), i);
  const net::PacketBatch view = odd.View();
  ASSERT_EQ(view.size(), records.size() / 2);
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view.RecordAt(i), records[2 * i + 1]);
  }
}

// ---- Per-sink columnar <-> scalar identity ------------------------------

TEST(ColumnarProperty, CountingSinkIdentical) {
  const auto records = RandomStream(41, kStreamLen);
  CountingSink scalar, columnar;
  FeedScalar(records, scalar);
  FeedRandomColumns(records, 141, columnar);
  EXPECT_EQ(scalar.packets(), columnar.packets());
  EXPECT_EQ(scalar.packets_in(), columnar.packets_in());
  EXPECT_EQ(scalar.packets_out(), columnar.packets_out());
  EXPECT_EQ(scalar.app_bytes(), columnar.app_bytes());
}

TEST(ColumnarProperty, VectorSinkIdentical) {
  const auto records = RandomStream(42, kStreamLen);
  VectorSink scalar, columnar;
  FeedScalar(records, scalar);
  FeedRandomColumns(records, 142, columnar);
  EXPECT_EQ(scalar.records(), columnar.records());
}

TEST(ColumnarProperty, LoadAggregatorIdentical) {
  const auto records = RandomStream(43, kStreamLen);
  LoadAggregator scalar(60.0), columnar(60.0);
  FeedScalar(records, scalar);
  FeedRandomColumns(records, 143, columnar);
  ExpectSeriesIdentical(scalar.packets_in(), columnar.packets_in());
  ExpectSeriesIdentical(scalar.packets_out(), columnar.packets_out());
  ExpectSeriesIdentical(scalar.wire_bytes_in(), columnar.wire_bytes_in());
  ExpectSeriesIdentical(scalar.wire_bytes_out(), columnar.wire_bytes_out());
}

TEST(ColumnarProperty, TraceSummaryIdentical) {
  const auto records = RandomStream(44, kStreamLen);
  TraceSummary scalar, columnar;
  FeedScalar(records, scalar);
  FeedRandomColumns(records, 144, columnar);
  ExpectSummaryIdentical(scalar, columnar);
}

TEST(ColumnarProperty, SessionTrackerIdentical) {
  const auto records = RandomStream(45, kStreamLen);
  SessionTracker scalar(30.0), columnar(30.0);
  FeedScalar(records, scalar);
  FeedRandomColumns(records, 145, columnar);
  EXPECT_EQ(scalar.open_sessions(), columnar.open_sessions());
  EXPECT_EQ(scalar.closed_sessions(), columnar.closed_sessions());
  EXPECT_EQ(scalar.unique_clients(), columnar.unique_clients());
  ExpectSessionsIdentical(scalar.Finish(), columnar.Finish());
}

TEST(ColumnarProperty, FilterSinkIdentical) {
  const auto records = RandomStream(46, kStreamLen);
  VectorSink scalar_out, columnar_out;
  FilterSink scalar_f(DirectionIs(net::Direction::kClientToServer), scalar_out);
  FilterSink columnar_f(DirectionIs(net::Direction::kClientToServer), columnar_out);
  FeedScalar(records, scalar_f);
  FeedRandomColumns(records, 146, columnar_f);
  EXPECT_EQ(scalar_f.passed(), columnar_f.passed());
  EXPECT_EQ(scalar_f.dropped(), columnar_f.dropped());
  EXPECT_EQ(scalar_out.records(), columnar_out.records());
}

TEST(ColumnarProperty, ShardNamespaceThroughTeeIdentical) {
  const auto records = RandomStream(47, kStreamLen);
  VectorSink scalar_out, columnar_out;
  CountingSink scalar_count, columnar_count;
  TeeSink scalar_tee, columnar_tee;
  scalar_tee.Attach(scalar_out);
  scalar_tee.Attach(scalar_count);
  columnar_tee.Attach(columnar_out);
  columnar_tee.Attach(columnar_count);
  ShardNamespaceSink scalar_ns(7, scalar_tee);
  ShardNamespaceSink columnar_ns(7, columnar_tee);
  FeedScalar(records, scalar_ns);
  FeedRandomColumns(records, 147, columnar_ns);
  EXPECT_EQ(scalar_out.records(), columnar_out.records());
  EXPECT_EQ(scalar_count.packets(), columnar_count.packets());
  ASSERT_FALSE(columnar_out.records().empty());
  EXPECT_EQ(columnar_out.records()[0].client_ip.value() >> 24, 17u);
}

TEST(ColumnarProperty, CharacterizerReportIdentical) {
  const auto records = RandomStream(48, kStreamLen);
  core::CharacterizationOptions options;
  options.vt_window = 600.0;
  core::Characterizer scalar(options), columnar(options);
  FeedScalar(records, scalar);
  FeedRandomColumns(records, 148, columnar);
  auto ra = scalar.Finish(records.back().timestamp);
  auto rb = columnar.Finish(records.back().timestamp);
  ExpectSummaryIdentical(ra.summary, rb.summary);
  ExpectSeriesIdentical(ra.minute_packets_in, rb.minute_packets_in);
  ExpectSeriesIdentical(ra.minute_packets_out, rb.minute_packets_out);
  ExpectSeriesIdentical(ra.minute_bytes_in, rb.minute_bytes_in);
  ExpectSeriesIdentical(ra.minute_bytes_out, rb.minute_bytes_out);
  ExpectSeriesIdentical(ra.vt_base_packets, rb.vt_base_packets);
  ExpectSessionsIdentical(ra.sessions, rb.sessions);
  ExpectHistogramIdentical(ra.session_bandwidth, rb.session_bandwidth);
  ExpectHistogramIdentical(ra.size_total, rb.size_total);
  ExpectHistogramIdentical(ra.size_in, rb.size_in);
  ExpectHistogramIdentical(ra.size_out, rb.size_out);
}

// A sink with no columnar kernel of its own must be served correctly by the
// base-class default, which loops OnPacket over the rows.
TEST(ColumnarProperty, DefaultBridgeSinkIdentical) {
  class PacketOnlySink final : public CaptureSink {
   public:
    void OnPacket(const net::PacketRecord& record) override {
      sum_bytes += record.app_bytes;
      sum_seq += record.seq;
      ++count;
    }
    std::uint64_t sum_bytes = 0;
    std::uint64_t sum_seq = 0;
    std::uint64_t count = 0;
  };
  const auto records = RandomStream(49, kStreamLen);
  PacketOnlySink scalar, columnar;
  FeedScalar(records, scalar);
  FeedRandomColumns(records, 149, columnar);
  EXPECT_EQ(scalar.count, columnar.count);
  EXPECT_EQ(scalar.sum_bytes, columnar.sum_bytes);
  EXPECT_EQ(scalar.sum_seq, columnar.sum_seq);
}

// End to end: a characterizer fed the server's live per-tick columns must
// produce the same report as one fed the captured stream packet by packet.
TEST(ColumnarProperty, LiveServerColumnsMatchScalarReplay) {
  game::GameConfig cfg = game::GameConfig::ScaledDefaults(600.0);
  sim::Simulator simulator;
  core::CharacterizationOptions options;
  options.vt_window = 600.0;
  core::Characterizer live(options);
  VectorSink capture;
  TeeSink tee;
  tee.Attach(capture);
  tee.Attach(live);
  game::CsServer server(simulator, cfg, tee);
  server.Run();

  core::Characterizer replayed(options);
  FeedScalar(capture.records(), replayed);

  auto ra = live.Finish(cfg.trace_duration);
  auto rb = replayed.Finish(cfg.trace_duration);
  ExpectSummaryIdentical(ra.summary, rb.summary);
  ExpectSeriesIdentical(ra.minute_packets_in, rb.minute_packets_in);
  ExpectSeriesIdentical(ra.minute_bytes_out, rb.minute_bytes_out);
  ExpectSeriesIdentical(ra.vt_base_packets, rb.vt_base_packets);
  ExpectSessionsIdentical(ra.sessions, rb.sessions);
  ExpectHistogramIdentical(ra.size_total, rb.size_total);
}

TEST(ColumnarProperty, ShardNamespaceSinkValidatesShardId) {
  CountingSink sink;
  EXPECT_NO_THROW(ShardNamespaceSink(ShardNamespaceSink::kMaxShardId, sink));
  EXPECT_THROW(ShardNamespaceSink(ShardNamespaceSink::kMaxShardId + 1, sink),
               gametrace::ContractViolation);
  EXPECT_THROW(ShardNamespaceSink(1000, sink), gametrace::ContractViolation);
}

// ---- Chain fusion -------------------------------------------------------

struct Chain {
  TraceSummary summary;
  LoadAggregator agg{60.0};
  SessionTracker sessions{30.0};
  CountingSink counting;
  VectorSink vec;  // generic terminal: exercises the virtual fallback
  TeeSink tee;
  std::unique_ptr<ShardNamespaceSink> ns;

  explicit Chain(std::uint32_t shard) {
    tee.Attach(summary);
    tee.Attach(agg);
    tee.Attach(sessions);
    tee.Attach(counting);
    tee.Attach(vec);
    ns = std::make_unique<ShardNamespaceSink>(shard, tee);
  }
};

TEST(FusedChain, ReportsIdenticalToUnfusedChain) {
  const auto records = RandomStream(50, kStreamLen);
  Chain unfused(5), fused_sinks(5);
  const std::unique_ptr<FusedChain> fused = FuseChain(*fused_sinks.ns);
  ASSERT_NE(fused, nullptr);
  FeedRandomColumns(records, 150, *unfused.ns);
  FeedRandomColumns(records, 150, *fused);
  ExpectSummaryIdentical(unfused.summary, fused_sinks.summary);
  ExpectSeriesIdentical(unfused.agg.packets_in(), fused_sinks.agg.packets_in());
  ExpectSeriesIdentical(unfused.agg.wire_bytes_out(), fused_sinks.agg.wire_bytes_out());
  ExpectSessionsIdentical(unfused.sessions.Finish(), fused_sinks.sessions.Finish());
  EXPECT_EQ(unfused.counting.packets(), fused_sinks.counting.packets());
  EXPECT_EQ(unfused.counting.app_bytes(), fused_sinks.counting.app_bytes());
  EXPECT_EQ(unfused.vec.records(), fused_sinks.vec.records());
  // The namespace shift reached every terminal exactly once: 10 -> 15.
  ASSERT_FALSE(fused_sinks.vec.records().empty());
  EXPECT_EQ(fused_sinks.vec.records()[0].client_ip.value() >> 24, 15u);
}

TEST(FusedChain, ScalarTierMatchesColumns) {
  const auto records = RandomStream(51, kStreamLen);
  Chain a(3), c(3);
  const std::unique_ptr<FusedChain> fa = FuseChain(*a.ns);
  const std::unique_ptr<FusedChain> fc = FuseChain(*c.ns);
  FeedScalar(records, *fa);
  FeedRandomColumns(records, 151, *fc);
  ExpectSummaryIdentical(a.summary, c.summary);
  ExpectSeriesIdentical(a.agg.packets_in(), c.agg.packets_in());
  ExpectSeriesIdentical(a.agg.wire_bytes_out(), c.agg.wire_bytes_out());
  EXPECT_EQ(a.counting.packets(), c.counting.packets());
  EXPECT_EQ(a.counting.app_bytes(), c.counting.app_bytes());
  EXPECT_EQ(a.vec.records(), c.vec.records());
  ExpectSessionsIdentical(a.sessions.Finish(), c.sessions.Finish());
}

TEST(FusedChain, FlattensNestedNamespacesAndTees) {
  CountingSink counting;
  TraceSummary summary;
  TeeSink inner_tee;
  inner_tee.Attach(counting);
  inner_tee.Attach(summary);
  ShardNamespaceSink inner_ns(2, inner_tee);
  VectorSink vec;
  TeeSink outer_tee;
  outer_tee.Attach(inner_ns);
  outer_tee.Attach(vec);
  ShardNamespaceSink outer_ns(1, outer_tee);

  const std::unique_ptr<FusedChain> fused = FuseChain(outer_ns);
  ASSERT_NE(fused, nullptr);
  const auto& terminals = fused->terminals();
  ASSERT_EQ(terminals.size(), 3u);
  // DFS order: inner tee's terminals first (shift 1+2 octets), then vec
  // (shift 1 octet).
  EXPECT_EQ(terminals[0].kind, FusedChain::TerminalKind::kCounting);
  EXPECT_EQ(terminals[0].ip_shift, 3u << 24);
  EXPECT_EQ(terminals[1].kind, FusedChain::TerminalKind::kSummary);
  EXPECT_EQ(terminals[1].ip_shift, 3u << 24);
  EXPECT_EQ(terminals[2].kind, FusedChain::TerminalKind::kGeneric);
  EXPECT_EQ(terminals[2].ip_shift, 1u << 24);

  // And the delivered IPs reflect the per-terminal accumulated shifts.
  const auto records = RandomStream(52, 64);
  net::ColumnarBatch columns;
  columns.Append(records);
  fused->OnColumns(columns.View());
  ASSERT_FALSE(vec.records().empty());
  EXPECT_EQ(vec.records()[0].client_ip.value() >> 24, 11u);
  EXPECT_EQ(summary.total_packets(), records.size());
}

TEST(FusedChain, BareTerminalIsNotFused) {
  CountingSink counting;
  EXPECT_EQ(FuseChain(counting), nullptr);
  TraceSummary summary;
  EXPECT_EQ(FuseChain(summary), nullptr);
}

}  // namespace
}  // namespace gametrace::trace
