// Chain fusion: collapse a ShardNamespaceSink/TeeSink composition into one
// sink that dispatches each batch straight to the terminal kernels.
//
// The unfused chain pays one virtual OnColumns hop per interior node per
// batch, and every ShardNamespaceSink in the path re-copies the IP column.
// FuseChain() walks the chain once at construction time (via the
// shard_shift()/downstream()/sinks() accessors), flattens it into an ordered
// terminal list with each terminal's accumulated IP shift, and the resulting
// FusedChain delivers a batch by:
//  * shifting the IP column at most once per distinct shift (adjacent
//    terminals share the shifted scratch), and
//  * calling each known terminal's non-virtual AccumulateColumns kernel
//    directly - the per-batch loop sees no virtual dispatch at all.
// Terminals the compiler does not recognise fall back to one virtual
// OnColumns call per batch, so any CaptureSink composes (core::Characterizer
// reaches its own columnar kernels through that virtual hop without a
// trace->core dependency).
//
// Reports are bit-identical to the unfused chain: the shift is the same
// integer add, terminal order is the Tee attachment order (DFS), and the
// kernels are the very ones the unfused sinks run.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "net/packet_batch.h"
#include "trace/capture.h"

namespace gametrace::trace {

class FusedChain final : public CaptureSink {
 public:
  // How a terminal is driven: known types get their AccumulateColumns kernel
  // called directly, everything else goes through virtual OnColumns.
  enum class TerminalKind : std::uint8_t {
    kCounting,
    kSummary,
    kLoadAggregator,
    kSessionTracker,
    kGeneric,
  };

  struct Terminal {
    TerminalKind kind;
    std::uint32_t ip_shift;  // accumulated shard-namespace shift on this path
    CaptureSink* sink;       // borrowed; must outlive the chain
  };

  void OnPacket(const net::PacketRecord& record) override;

  void OnColumns(const net::PacketBatch& batch) override;

  [[nodiscard]] const std::vector<Terminal>& terminals() const noexcept { return terminals_; }

 private:
  friend std::unique_ptr<FusedChain> FuseChain(CaptureSink& head);

  void Flatten(CaptureSink& node, std::uint32_t shift);

  std::vector<Terminal> terminals_;
  std::vector<std::uint32_t> ip_scratch_;  // shifted IP column, reused
};

// Compiles the chain rooted at `head` into a FusedChain. Returns nullptr if
// `head` is neither a ShardNamespaceSink nor a TeeSink (a bare terminal
// gains nothing from fusion - drive it directly). All sinks reachable from
// `head` are borrowed and must outlive the returned chain.
[[nodiscard]] std::unique_ptr<FusedChain> FuseChain(CaptureSink& head);

}  // namespace gametrace::trace
