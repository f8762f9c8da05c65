#include "game/cs_server.h"

#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "trace/aggregator.h"
#include "trace/summary.h"

namespace gametrace::game {
namespace {

// A 10-minute capture is enough for all behavioural assertions and runs in
// well under a second.
GameConfig ShortConfig(std::uint64_t seed = 42) {
  GameConfig cfg = GameConfig::ScaledDefaults(600.0);
  cfg.seed = seed;
  return cfg;
}

TEST(CsServer, EmitsTraffic) {
  sim::Simulator s;
  trace::CountingSink sink;
  CsServer server(s, ShortConfig(), sink);
  server.Run();
  EXPECT_GT(sink.packets(), 100000u);
  EXPECT_GT(sink.packets_in(), sink.packets_out());  // paper Table II
  EXPECT_EQ(sink.packets(), server.stats().packets_emitted);
}

TEST(CsServer, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator s;
    trace::CountingSink sink;
    CsServer server(s, ShortConfig(seed), sink);
    server.Run();
    return std::tuple(sink.packets(), sink.app_bytes(), server.stats().established);
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(std::get<0>(run(7)), std::get<0>(run(8)));
}

TEST(CsServer, NeverExceedsSlotCap) {
  sim::Simulator s;
  trace::CountingSink sink;
  GameConfig cfg = ShortConfig();
  cfg.sessions.fresh_attempt_rate = 0.5;  // hammer the server
  CsServer server(s, cfg, sink);
  server.Start();
  for (int i = 0; i < 600; ++i) {
    s.RunUntil(static_cast<double>(i));
    EXPECT_LE(server.active_players(), cfg.max_players);
  }
  EXPECT_LE(server.stats().peak_players, cfg.max_players);
  EXPECT_GT(server.stats().refused, 0u);
}

TEST(CsServer, OutboundBandwidthExceedsInboundDespiteFewerPackets) {
  sim::Simulator s;
  trace::TraceSummary summary;
  CsServer server(s, ShortConfig(), summary);
  server.Run();
  EXPECT_GT(summary.packets_in(), summary.packets_out());
  EXPECT_GT(summary.wire_bytes_out(), summary.wire_bytes_in());
  EXPECT_GT(summary.mean_packet_size_out(), 3.0 * summary.mean_packet_size_in());
}

TEST(CsServer, FiftyMillisecondBroadcastPeriodicity) {
  sim::Simulator s;
  trace::LoadAggregator agg(0.010);  // 10 ms bins, as Figure 6
  CsServer server(s, ShortConfig(), agg);
  server.Start();
  s.RunUntil(20.0);
  const auto& out = agg.packets_out();
  // Every 5th bin carries the burst; the bins between are nearly empty.
  double on = 0.0;
  double off = 0.0;
  for (std::size_t i = 100; i < 1500; ++i) {
    if (i % 5 == 0) {
      on += out[i];
    } else {
      off += out[i];
    }
  }
  EXPECT_GT(on, 10.0 * off);
}

TEST(CsServer, BroadcastSpreadAblationKillsPeriodicity) {
  sim::Simulator s;
  trace::LoadAggregator agg(0.010);
  GameConfig cfg = ShortConfig();
  cfg.broadcast_spread = 1.0;  // desynchronised broadcast
  CsServer server(s, cfg, agg);
  server.Start();
  s.RunUntil(20.0);
  const auto& out = agg.packets_out();
  double on = 0.0;
  double off = 0.0;
  for (std::size_t i = 100; i < 1500; ++i) {
    if (i % 5 == 0) {
      on += out[i];
    } else {
      off += out[i];
    }
  }
  // Spread traffic: the on-bins hold roughly a fifth of the packets.
  EXPECT_LT(on, off);
}

TEST(CsServer, PlayerSeriesTracksOccupancy) {
  sim::Simulator s;
  trace::CountingSink sink;
  CsServer server(s, ShortConfig(), sink);
  server.Run();
  const auto& players = server.player_series();
  ASSERT_GT(players.size(), 5u);
  EXPECT_GT(players.Mean(), 10.0);
  EXPECT_LE(players.Max(), 22.0);
}

TEST(CsServer, MapChangeCausesTrafficDip) {
  sim::Simulator s;
  trace::LoadAggregator agg(1.0);
  GameConfig cfg = GameConfig::ScaledDefaults(300.0);
  cfg.maps.map_duration = 120.0;  // force a change inside the window
  cfg.maps.changeover_stall_mean = 10.0;
  cfg.maps.changeover_stall_jitter = 0.0;
  cfg.downloads.join_probability = 0.0;  // keep the stall window clean
  cfg.downloads.map_change_probability = 0.0;
  CsServer server(s, cfg, agg);
  server.Run();
  const auto total = agg.packets_total();
  // Live seconds carry hundreds of packets; the stall seconds carry ~none.
  EXPECT_GT(total[60], 300.0);
  EXPECT_LT(total[125], 50.0);
}

TEST(CsServer, OutageDisconnectsEveryone) {
  sim::Simulator s;
  trace::CountingSink sink;
  GameConfig cfg = GameConfig::ScaledDefaults(600.0);
  cfg.outages.times = {300.0};
  CsServer server(s, cfg, sink);
  server.Start();
  s.RunUntil(302.0);
  EXPECT_EQ(server.active_players(), 0);
  EXPECT_GT(server.stats().outage_disconnects, 0u);
  // Recovery: immediate reconnectors come back within ~30 s of the end.
  s.RunUntil(360.0);
  EXPECT_GT(server.active_players(), 2);
}

TEST(CsServer, InduceStallSuppressesBroadcastOnly) {
  sim::Simulator s;
  trace::LoadAggregator agg(0.1);
  GameConfig cfg = ShortConfig();
  cfg.downloads.join_probability = 0.0;  // downloads would leak into the freeze
  cfg.downloads.map_change_probability = 0.0;
  CsServer server(s, cfg, agg);
  server.Start();
  s.RunUntil(30.0);
  server.InduceStall(5.0);
  s.RunUntil(40.0);
  const auto out = agg.packets_out();
  const auto in = agg.packets_in();
  // Bins 300..349 are the frozen 5 s: no broadcast, but clients keep sending.
  double out_frozen = 0.0;
  double in_frozen = 0.0;
  for (std::size_t i = 301; i < 349; ++i) {
    out_frozen += out[i];
    in_frozen += in[i];
  }
  // Broadcast is silent; at most a stray handshake reply may appear.
  EXPECT_LT(out_frozen, 3.0);
  EXPECT_GT(in_frozen, 100.0);
}

TEST(CsServer, HandshakeAccountingConsistent) {
  sim::Simulator s;
  trace::TraceSummary summary;
  CsServer server(s, ShortConfig(), summary);
  server.Run();
  const auto stats = server.stats();
  // Ground truth and trace-derived handshake counts must agree exactly.
  EXPECT_EQ(summary.attempted_connections(), stats.attempts);
  EXPECT_EQ(summary.established_connections(), stats.established);
  EXPECT_EQ(summary.refused_connections(), stats.refused);
  EXPECT_EQ(summary.unique_clients_attempting(), stats.unique_attempting);
  EXPECT_EQ(summary.unique_clients_establishing(), stats.unique_establishing);
  EXPECT_EQ(stats.attempts, stats.established + stats.refused);
  EXPECT_GE(stats.unique_attempting, stats.unique_establishing);
}

TEST(CsServer, DownloadsHappen) {
  sim::Simulator s;
  trace::CountingSink sink;
  CsServer server(s, ShortConfig(), sink);
  server.Run();
  EXPECT_GT(server.stats().downloads_started, 0u);
}

TEST(CsServer, MeanRatesNearPaperCalibration) {
  sim::Simulator s;
  trace::TraceSummary summary;
  GameConfig cfg = GameConfig::ScaledDefaults(1800.0);
  CsServer server(s, cfg, summary);
  server.Run();
  summary.set_duration_override(1800.0);
  // Loose bands: a 30 min window has real variance. Paper: 437/361 pps,
  // 39.7/129.5 B.
  EXPECT_NEAR(summary.mean_packet_load_in(), 437.0, 90.0);
  EXPECT_NEAR(summary.mean_packet_load_out(), 361.0, 80.0);
  EXPECT_NEAR(summary.mean_packet_size_in(), 39.7, 2.0);
  EXPECT_NEAR(summary.mean_packet_size_out(), 129.5, 15.0);
}

TEST(CsServer, StartIsIdempotent) {
  sim::Simulator s;
  trace::CountingSink sink;
  CsServer server(s, ShortConfig(), sink);
  server.Start();
  EXPECT_NO_THROW(server.Start());
  s.RunUntil(10.0);
  EXPECT_GT(sink.packets(), 0u);
}

TEST(CsServer, DisconnectByEndpointQuitsExactlyThatPlayer) {
  sim::Simulator s;
  trace::VectorSink sink;
  CsServer server(s, ShortConfig(9), sink);
  server.Start();
  s.RunUntil(30.0);
  // The latest client update comes from a player who is still connected.
  const net::PacketRecord* last_update = nullptr;
  for (const auto& r : sink.records()) {
    if (r.direction == net::Direction::kClientToServer &&
        r.kind == net::PacketKind::kGameUpdate) {
      last_update = &r;
    }
  }
  ASSERT_NE(last_update, nullptr);
  const net::Ipv4Address ip = last_update->client_ip;
  const std::uint16_t port = last_update->client_port;
  const int before = server.active_players();
  EXPECT_TRUE(server.DisconnectByEndpoint(ip, port));
  EXPECT_EQ(server.active_players(), before - 1);
  // Unknown endpoint: no effect.
  EXPECT_FALSE(server.DisconnectByEndpoint(net::Ipv4Address(1, 2, 3, 4), 1));
  EXPECT_EQ(server.active_players(), before - 1);
  // Same endpoint twice: second call fails.
  EXPECT_FALSE(server.DisconnectByEndpoint(ip, port));
}

TEST(CsServer, SequenceNumbersMonotonePerFlow) {
  sim::Simulator s;
  trace::VectorSink sink;
  CsServer server(s, ShortConfig(9), sink);
  server.Start();
  s.RunUntil(20.0);

  // Per (endpoint, direction): sequenced packets must be strictly
  // increasing by 1 in emission order.
  std::map<std::tuple<std::uint32_t, std::uint16_t, int>, std::uint32_t> last_seq;
  std::uint64_t sequenced = 0;
  for (const auto& r : sink.records()) {
    if (r.seq == 0) continue;  // handshake / control
    ++sequenced;
    const auto key = std::tuple(r.client_ip.value(), r.client_port,
                                static_cast<int>(r.direction));
    const auto it = last_seq.find(key);
    if (it != last_seq.end()) {
      EXPECT_EQ(r.seq, it->second + 1) << "gap in emitted sequence";
      it->second = r.seq;
    } else {
      EXPECT_EQ(r.seq, 1u) << "flows start at sequence 1";
      last_seq[key] = r.seq;
    }
  }
  EXPECT_GT(sequenced, 10000u);
}

TEST(CsServer, ControlPacketsAreUnsequenced) {
  sim::Simulator s;
  trace::VectorSink sink;
  CsServer server(s, ShortConfig(9), sink);
  server.Start();
  s.RunUntil(30.0);
  for (const auto& r : sink.records()) {
    if (r.kind == net::PacketKind::kConnectRequest ||
        r.kind == net::PacketKind::kConnectAccept ||
        r.kind == net::PacketKind::kConnectReject ||
        r.kind == net::PacketKind::kDisconnect) {
      EXPECT_EQ(r.seq, 0u);
    }
  }
}

}  // namespace
}  // namespace gametrace::game
