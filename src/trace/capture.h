// Capture sinks: where simulated (or replayed) packets go.
//
// Everything downstream of the workload generator - summaries, aggregators,
// trace files, the NAT device - consumes packets through CaptureSink, so a
// single simulation run can feed any combination of analyses via TeeSink
// without materialising 500 M records in memory.
//
// Two delivery tiers:
//  * OnColumns() - one server tick as a columnar batch (net::PacketBatch):
//    one contiguous array per field, built once per tick by the producer
//    (CsServer, trace::Replay). Sinks with a columnar kernel consume raw
//    columns (auto-vectorisable loops, no 24-byte record stride); the
//    default loops OnPacket over the rows, so every sink stays correct.
//  * OnPacket() - one record: handshakes, downloads, web traffic, the NAT
//    injector and the trace readers.
// The batch contract: a batch is a contiguous slice of the stream in
// emission order (per-flow sequence order preserved) and never spans a
// server tick. Both tiers observe exactly the same record sequence -
// reports are bit-identical whichever entry point feeds a sink.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/check.h"
#include "net/packet.h"
#include "net/packet_batch.h"
#include "obs/prof.h"

namespace gametrace::trace {

namespace internal {

// Batch-contract probe: a batch is a contiguous slice of the stream in
// emission order with *per-flow* ordering preserved - globally the tick
// batch interleaves independent client clocks, so only timestamps within
// one (client, direction) flow must be non-decreasing.
//
// Reusable flat scratch (open addressing, epoch-tagged slots) so the probe
// allocates only up to the high-water batch size per thread: DCHECK builds
// stay usable at paper-week scale instead of building a fresh unordered_map
// per batch. Only ever used behind GT_DCHECK.
class FlowOrderScratch {
 public:
  bool CheckColumns(const net::PacketBatch& batch) {
    BeginBatch(batch.count);
    for (std::size_t i = 0; i < batch.count; ++i) {
      if (!Observe(FlowKeyOf(batch.client_ips[i], batch.client_ports[i],
                             batch.directions[i] ==
                                 static_cast<std::uint8_t>(net::Direction::kClientToServer)),
                   batch.timestamps[i])) {
        return false;
      }
    }
    return true;
  }

 private:
  struct Slot {
    std::uint64_t flow = 0;
    double last = 0.0;
    std::uint32_t epoch = 0;
  };

  static std::uint64_t FlowKeyOf(std::uint32_t ip, std::uint16_t port, bool inbound) noexcept {
    return (std::uint64_t{ip} << 17) | (std::uint64_t{port} << 1) | std::uint64_t{inbound};
  }

  void BeginBatch(std::size_t n) {
    std::size_t want = 16;
    while (want < 2 * n) want *= 2;  // load factor <= 0.5
    if (slots_.size() < want) {
      slots_.assign(want, Slot{});
      epoch_ = 0;
    }
    if (++epoch_ == 0) {  // epoch counter wrapped: invalidate stale tags
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
  }

  bool Observe(std::uint64_t flow, double t) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(flow * 0x9E3779B97F4A7C15ULL) & mask;
    for (;;) {
      Slot& slot = slots_[i];
      if (slot.epoch != epoch_) {  // free this batch: claim it
        slot.flow = flow;
        slot.last = t;
        slot.epoch = epoch_;
        return true;
      }
      if (slot.flow == flow) {
        if (t < slot.last) return false;
        slot.last = t;
        return true;
      }
      i = (i + 1) & mask;
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 0;
};

inline FlowOrderScratch& FlowOrderProbe() {
  thread_local FlowOrderScratch scratch;
  return scratch;
}

inline bool ColumnsPreservePerFlowOrder(const net::PacketBatch& batch) {
  return FlowOrderProbe().CheckColumns(batch);
}

}  // namespace internal

class CaptureSink {
 public:
  virtual ~CaptureSink() = default;
  virtual void OnPacket(const net::PacketRecord& record) = 0;

  // Receives one tick as a columnar view (see the batch contract above).
  // Overrides must be equivalent to this default per-row loop.
  virtual void OnColumns(const net::PacketBatch& batch) {
    GT_DCHECK(internal::ColumnsPreservePerFlowOrder(batch))
        << "CaptureSink::OnColumns: batch violates per-flow emission-order contract";
    for (std::size_t i = 0; i < batch.count; ++i) OnPacket(batch.RecordAt(i));
  }
};

// Forwards every packet to each attached sink, in attachment order.
class TeeSink final : public CaptureSink {
 public:
  // Attached sinks are borrowed; they must outlive the tee.
  void Attach(CaptureSink& sink) { sinks_.push_back(&sink); }

  void OnPacket(const net::PacketRecord& record) override {
    for (CaptureSink* sink : sinks_) sink->OnPacket(record);
  }

  void OnColumns(const net::PacketBatch& batch) override {
    GT_PROF_SCOPE("trace.tee.on_columns");
    for (CaptureSink* sink : sinks_) sink->OnColumns(batch);
  }

  [[nodiscard]] std::size_t sink_count() const noexcept { return sinks_.size(); }
  [[nodiscard]] const std::vector<CaptureSink*>& sinks() const noexcept { return sinks_; }

 private:
  std::vector<CaptureSink*> sinks_;
};

// Counts packets and bytes by direction; the cheapest possible sink.
class CountingSink final : public CaptureSink {
 public:
  void OnPacket(const net::PacketRecord& record) override {
    ++packets_;
    app_bytes_ += record.app_bytes;
    if (record.direction == net::Direction::kClientToServer) {
      ++packets_in_;
    } else {
      ++packets_out_;
    }
  }

  void OnColumns(const net::PacketBatch& batch) override {
    GT_PROF_SCOPE("trace.counting.on_columns");
    AccumulateColumns(batch);
  }

  // Columnar kernel (non-virtual: FusedChain calls it directly). Dense u16
  // size and u8 direction columns auto-vectorise; integral sums regroup
  // exactly.
  void AccumulateColumns(const net::PacketBatch& batch) noexcept {
    const std::uint16_t* bytes = batch.app_bytes;
    const std::uint8_t* dirs = batch.directions;
    const std::size_t n = batch.count;
    std::uint64_t in = 0;
    std::uint64_t sum = 0;
    constexpr auto kIn = static_cast<std::uint8_t>(net::Direction::kClientToServer);
    for (std::size_t i = 0; i < n; ++i) {
      sum += bytes[i];
      in += dirs[i] == kIn ? 1 : 0;
    }
    packets_ += n;
    packets_in_ += in;
    packets_out_ += n - in;
    app_bytes_ += sum;
  }

  [[nodiscard]] std::uint64_t packets() const noexcept { return packets_; }
  [[nodiscard]] std::uint64_t packets_in() const noexcept { return packets_in_; }
  [[nodiscard]] std::uint64_t packets_out() const noexcept { return packets_out_; }
  [[nodiscard]] std::uint64_t app_bytes() const noexcept { return app_bytes_; }

 private:
  std::uint64_t packets_ = 0;
  std::uint64_t packets_in_ = 0;
  std::uint64_t packets_out_ = 0;
  std::uint64_t app_bytes_ = 0;
};

// Stores every record; only for tests and short runs.
class VectorSink final : public CaptureSink {
 public:
  void OnPacket(const net::PacketRecord& record) override { records_.push_back(record); }

  void OnColumns(const net::PacketBatch& batch) override {
    GT_PROF_SCOPE("trace.vector.on_columns");
    batch.MaterializeInto(records_);
  }

  [[nodiscard]] const std::vector<net::PacketRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::vector<net::PacketRecord> TakeRecords() noexcept {
    return std::move(records_);
  }

 private:
  std::vector<net::PacketRecord> records_;
};

// Rewrites each record's client address into a per-shard namespace before
// forwarding: identity IPs live in 10/8 (game::IdentityIp), so bumping the
// top octet by the shard id moves shard k's clients into (10+k)/8. Flows
// from distinct shards then can never collide in any downstream keyed
// structure (session tracker, flow tables), which is what makes per-shard
// analyses exactly mergeable. The shard-id constructor supports up to 245
// shards (10 + 245 = 255 exhausts the top octet); fleets beyond that pass
// an ExplicitShift computed by game::ShardIpShift, which packs additional
// servers into the host bits the identity pool leaves unused (thousands
// of disjoint namespaces at the default population).
class ShardNamespaceSink final : public CaptureSink {
 public:
  static constexpr std::uint32_t kMaxShardId = 245;

  // A pre-computed additive IP shift. The caller vouches for namespace
  // disjointness (game::ShardIpShift GT_CHECKs it from the population).
  struct ExplicitShift {
    std::uint32_t value = 0;
  };

  ShardNamespaceSink(std::uint32_t shard_id, CaptureSink& downstream)
      : shift_(shard_id << 24), downstream_(&downstream) {
    GT_CHECK_LE(shard_id, kMaxShardId)
        << "ShardNamespaceSink: shard_id exceeds the 245-shard IP namespace";
  }

  ShardNamespaceSink(ExplicitShift shift, CaptureSink& downstream)
      : shift_(shift.value), downstream_(&downstream) {}

  void OnPacket(const net::PacketRecord& record) override {
    net::PacketRecord shifted = record;
    shifted.client_ip = net::Ipv4Address(record.client_ip.value() + shift_);
    downstream_->OnPacket(shifted);
  }

  // The columnar payoff: the rewrite touches exactly one column. Copy+shift
  // the 4-byte IP lane into a reused scratch and re-point the view; the
  // other six columns are forwarded untouched.
  void OnColumns(const net::PacketBatch& batch) override {
    GT_PROF_SCOPE("trace.shard_namespace.on_columns");
    GT_DCHECK(internal::ColumnsPreservePerFlowOrder(batch))
        << "ShardNamespaceSink::OnColumns: batch violates per-flow emission-order contract";
    ip_scratch_.resize(batch.count);
    const std::uint32_t* src = batch.client_ips;
    std::uint32_t* dst = ip_scratch_.data();
    const std::uint32_t shift = shift_;
    for (std::size_t i = 0; i < batch.count; ++i) dst[i] = src[i] + shift;
    downstream_->OnColumns(batch.WithClientIps(dst));
  }

  [[nodiscard]] std::uint32_t shard_shift() const noexcept { return shift_; }
  [[nodiscard]] CaptureSink& downstream() const noexcept { return *downstream_; }

 private:
  std::uint32_t shift_;
  CaptureSink* downstream_;
  std::vector<std::uint32_t> ip_scratch_;
};

// Adapts a callable into a sink.
class CallbackSink final : public CaptureSink {
 public:
  using Callback = std::function<void(const net::PacketRecord&)>;
  explicit CallbackSink(Callback cb) : cb_(std::move(cb)) {}

  void OnPacket(const net::PacketRecord& record) override { cb_(record); }

 private:
  Callback cb_;
};

// Replays a stored record vector into a sink (records must be time-ordered
// if the sink cares about ordering; all library sinks do). Columnised in
// bounded chunks and delivered via OnColumns; equivalent to the per-packet
// loop for every conforming sink.
void Replay(const std::vector<net::PacketRecord>& records, CaptureSink& sink);

}  // namespace gametrace::trace
