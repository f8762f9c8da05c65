#include "trace/fused_chain.h"

#include "obs/prof.h"
#include "trace/aggregator.h"
#include "trace/session_tracker.h"
#include "trace/summary.h"

namespace gametrace::trace {

namespace {

FusedChain::TerminalKind ClassifyTerminal(CaptureSink& sink) {
  if (dynamic_cast<CountingSink*>(&sink) != nullptr) return FusedChain::TerminalKind::kCounting;
  if (dynamic_cast<TraceSummary*>(&sink) != nullptr) return FusedChain::TerminalKind::kSummary;
  if (dynamic_cast<LoadAggregator*>(&sink) != nullptr) {
    return FusedChain::TerminalKind::kLoadAggregator;
  }
  if (dynamic_cast<SessionTracker*>(&sink) != nullptr) {
    return FusedChain::TerminalKind::kSessionTracker;
  }
  return FusedChain::TerminalKind::kGeneric;
}

}  // namespace

void FusedChain::Flatten(CaptureSink& node, std::uint32_t shift) {
  if (auto* ns = dynamic_cast<ShardNamespaceSink*>(&node)) {
    Flatten(ns->downstream(), shift + ns->shard_shift());
    return;
  }
  if (auto* tee = dynamic_cast<TeeSink*>(&node)) {
    for (CaptureSink* sink : tee->sinks()) Flatten(*sink, shift);
    return;
  }
  terminals_.push_back(Terminal{ClassifyTerminal(node), shift, &node});
}

std::unique_ptr<FusedChain> FuseChain(CaptureSink& head) {
  if (dynamic_cast<ShardNamespaceSink*>(&head) == nullptr &&
      dynamic_cast<TeeSink*>(&head) == nullptr) {
    return nullptr;
  }
  auto chain = std::unique_ptr<FusedChain>(new FusedChain());
  chain->Flatten(head, 0);
  return chain;
}

void FusedChain::OnPacket(const net::PacketRecord& record) {
  for (const Terminal& t : terminals_) {
    if (t.ip_shift == 0) {
      t.sink->OnPacket(record);
    } else {
      net::PacketRecord shifted = record;
      shifted.client_ip = net::Ipv4Address(record.client_ip.value() + t.ip_shift);
      t.sink->OnPacket(shifted);
    }
  }
}

void FusedChain::OnColumns(const net::PacketBatch& batch) {
  GT_PROF_SCOPE("trace.fused.on_columns");
  GT_DCHECK(internal::ColumnsPreservePerFlowOrder(batch))
      << "FusedChain::OnColumns: batch violates per-flow emission-order contract";
  // Terminals are in DFS order, so equal shifts are adjacent: the shifted IP
  // column is computed once per distinct shift and the view re-pointed.
  net::PacketBatch view = batch;
  std::uint32_t view_shift = 0;
  for (const Terminal& t : terminals_) {
    if (t.ip_shift != view_shift) {
      if (t.ip_shift == 0) {
        view = batch;
      } else {
        ip_scratch_.resize(batch.count);
        const std::uint32_t* src = batch.client_ips;
        std::uint32_t* dst = ip_scratch_.data();
        const std::uint32_t shift = t.ip_shift;
        for (std::size_t i = 0; i < batch.count; ++i) dst[i] = src[i] + shift;
        view = batch.WithClientIps(dst);
      }
      view_shift = t.ip_shift;
    }
    switch (t.kind) {
      case TerminalKind::kCounting:
        static_cast<CountingSink*>(t.sink)->AccumulateColumns(view);
        break;
      case TerminalKind::kSummary:
        static_cast<TraceSummary*>(t.sink)->AccumulateColumns(view);
        break;
      case TerminalKind::kLoadAggregator:
        static_cast<LoadAggregator*>(t.sink)->AccumulateColumns(view);
        break;
      case TerminalKind::kSessionTracker:
        static_cast<SessionTracker*>(t.sink)->AccumulateColumns(view);
        break;
      case TerminalKind::kGeneric:
        t.sink->OnColumns(view);
        break;
    }
  }
}

}  // namespace gametrace::trace
