#include "net/headers.h"

#include <algorithm>
#include <cstring>

namespace gametrace::net {

namespace {

constexpr std::size_t kEthLen = 14;
constexpr std::size_t kIpLen = 20;
constexpr std::size_t kUdpLen = 8;
constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;

void Put16(std::uint8_t* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v & 0xff);
}

void Put32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v & 0xff);
}

std::uint16_t Get16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t Get32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

// Checksum accumulation that can be chained across buffers (needed for the
// UDP pseudo-header).
std::uint32_t ChecksumAccumulate(std::uint32_t acc, std::span<const std::uint8_t> data) noexcept {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    acc += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) acc += static_cast<std::uint32_t>(data[i] << 8);
  return acc;
}

std::uint16_t ChecksumFinish(std::uint32_t acc) noexcept {
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc);
}

}  // namespace

std::uint16_t InternetChecksum(std::span<const std::uint8_t> data) noexcept {
  return ChecksumFinish(ChecksumAccumulate(0, data));
}

std::vector<std::uint8_t> BuildUdpFrame(const FrameSpec& spec,
                                        std::span<const std::uint8_t> payload) {
  const std::size_t udp_total = kUdpLen + payload.size();
  const std::size_t ip_total = kIpLen + udp_total;
  std::vector<std::uint8_t> frame(kEthLen + ip_total, 0);
  std::uint8_t* eth = frame.data();
  std::uint8_t* ip = eth + kEthLen;
  std::uint8_t* udp = ip + kIpLen;

  // Ethernet II.
  std::copy(spec.dst_mac.begin(), spec.dst_mac.end(), eth);
  std::copy(spec.src_mac.begin(), spec.src_mac.end(), eth + 6);
  Put16(eth + 12, kEtherTypeIpv4);

  // IPv4.
  ip[0] = 0x45;  // version 4, IHL 5
  ip[1] = 0x00;  // DSCP/ECN
  Put16(ip + 2, static_cast<std::uint16_t>(ip_total));
  Put16(ip + 4, spec.ip_id);
  Put16(ip + 6, 0x4000);  // DF, no fragment offset
  ip[8] = spec.ttl;
  ip[9] = static_cast<std::uint8_t>(IpProto::kUdp);
  Put16(ip + 10, 0);  // checksum placeholder
  Put32(ip + 12, spec.flow.src_ip.value());
  Put32(ip + 16, spec.flow.dst_ip.value());
  Put16(ip + 10, InternetChecksum({ip, kIpLen}));

  // UDP.
  Put16(udp + 0, spec.flow.src_port);
  Put16(udp + 2, spec.flow.dst_port);
  Put16(udp + 4, static_cast<std::uint16_t>(udp_total));
  Put16(udp + 6, 0);  // checksum placeholder
  if (!payload.empty()) std::memcpy(udp + kUdpLen, payload.data(), payload.size());

  // UDP checksum over pseudo-header + UDP header + payload.
  std::array<std::uint8_t, 12> pseudo{};
  Put32(pseudo.data(), spec.flow.src_ip.value());
  Put32(pseudo.data() + 4, spec.flow.dst_ip.value());
  pseudo[8] = 0;
  pseudo[9] = static_cast<std::uint8_t>(IpProto::kUdp);
  Put16(pseudo.data() + 10, static_cast<std::uint16_t>(udp_total));
  std::uint32_t acc = ChecksumAccumulate(0, pseudo);
  acc = ChecksumAccumulate(acc, {udp, udp_total});
  std::uint16_t udp_sum = ChecksumFinish(acc);
  if (udp_sum == 0) udp_sum = 0xffff;  // RFC 768: 0 means "no checksum"
  Put16(udp + 6, udp_sum);

  return frame;
}

bool ParseUdpFrame(std::span<const std::uint8_t> frame, ParsedUdpFrame& out) {
  if (frame.size() < kEthLen + kIpLen + kUdpLen) return false;
  const std::uint8_t* eth = frame.data();
  if (Get16(eth + 12) != kEtherTypeIpv4) return false;

  const std::uint8_t* ip = eth + kEthLen;
  if ((ip[0] >> 4) != 4) return false;
  const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0f) * 4;
  if (ihl < kIpLen || frame.size() < kEthLen + ihl + kUdpLen) return false;
  if (ip[9] != static_cast<std::uint8_t>(IpProto::kUdp)) return false;

  const std::uint16_t ip_total = Get16(ip + 2);
  if (ip_total < ihl + kUdpLen || frame.size() < kEthLen + ip_total) return false;

  out.flow.proto = IpProto::kUdp;
  out.flow.src_ip = Ipv4Address(Get32(ip + 12));
  out.flow.dst_ip = Ipv4Address(Get32(ip + 16));
  out.ip_checksum_ok = InternetChecksum({ip, ihl}) == 0;

  const std::uint8_t* udp = ip + ihl;
  out.flow.src_port = Get16(udp + 0);
  out.flow.dst_port = Get16(udp + 2);
  const std::uint16_t udp_total = Get16(udp + 4);
  if (udp_total < kUdpLen || kEthLen + ihl + udp_total > frame.size()) return false;
  out.payload_bytes = static_cast<std::uint16_t>(udp_total - kUdpLen);

  if (Get16(udp + 6) == 0) {
    out.udp_checksum_ok = true;  // checksum not in use
  } else {
    std::array<std::uint8_t, 12> pseudo{};
    Put32(pseudo.data(), out.flow.src_ip.value());
    Put32(pseudo.data() + 4, out.flow.dst_ip.value());
    pseudo[8] = 0;
    pseudo[9] = static_cast<std::uint8_t>(IpProto::kUdp);
    Put16(pseudo.data() + 10, udp_total);
    std::uint32_t acc = ChecksumAccumulate(0, pseudo);
    acc = ChecksumAccumulate(acc, {udp, udp_total});
    out.udp_checksum_ok = ChecksumFinish(acc) == 0;
  }
  return true;
}

}  // namespace gametrace::net
