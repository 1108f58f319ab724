// Live per-node health/stats records for the real-network backend
// (DESIGN.md §15).
//
// Each whisper_noded periodically folds its telemetry registry under an
// identity header (node, pid, incarnation, seq, clocks) into a versioned,
// CRC-framed binary record. The record is published two ways: as an atomic
// file in the rendezvous directory (scraped by whisper_localnet /
// whisper_top, and probed by the chaos supervisor for liveness) and as the
// reply on a local admin UDP socket. Its JSON line (health_to_json) is also
// the simulator's sampled timeline format (whisper_sim --sample-secs).
//
// Wire format (little-endian, matching common/serialize.hpp):
//   [0x57 'W'][0x48 'H'][u8 version=3][u32 payload_len]
//   [u32 crc32(payload)][payload]
// Every record is whole: its payload carries the full registry value set,
// so any one record read alone gives the node's complete metrics. Records
// carry a per-process monotonic `seq`, which the liveness probe watches.
// Decoding is bounds-checked through Reader/DecodeError with hard caps on
// payload size, metric count and name length, and rejects trailing
// garbage — hostile or torn bytes can never drive an oversized allocation
// or a partial apply.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/serialize.hpp"
#include "telemetry/registry.hpp"

namespace whisper::telemetry {

inline constexpr std::uint8_t kHealthMagic0 = 0x57;  // 'W'
inline constexpr std::uint8_t kHealthMagic1 = 0x48;  // 'H'
/// Changes with the record layout, so a reader of another layout rejects
/// the record instead of misreading it.
inline constexpr std::uint8_t kHealthVersion = 3;
/// Hard cap on a record payload; larger on-disk/wire values are corruption
/// (kOversized), never an allocation request.
inline constexpr std::size_t kMaxHealthPayloadBytes = 256 * 1024;
inline constexpr std::size_t kMaxHealthMetrics = 4096;
inline constexpr std::size_t kMaxHealthNameBytes = 256;

/// One exported snapshot: an identity header, which is what the chaos
/// supervisor's hung-vs-dead probe reads (pid / incarnation / seq), plus
/// registry values keyed by canonical metric key (histograms flattened to
/// "<key>#count|sum|min|max|p50|p95|p99"). Every other value is a metric.
struct HealthSnapshot {
  std::uint64_t node = 0;
  std::uint32_t pid = 0;
  std::uint32_t incarnation = 0;
  std::uint64_t seq = 0;        ///< per-process export sequence, monotonic
  std::uint64_t now_us = 0;     ///< monotonic clock at snapshot time
  std::uint64_t uptime_us = 0;  ///< now - process attach
  std::vector<std::pair<std::string, double>> metrics;

  /// The value of metric `key`; 0 when the record does not carry it.
  double metric(std::string_view key) const;
};

/// Encode one CRC-framed record.
Bytes encode_health_record(const HealthSnapshot& snap);

/// Bounds-checked decode. nullopt on any malformed input; `error` (when
/// non-null) receives the DecodeError that rejected it. The whole input
/// must be exactly one record (trailing bytes are kTrailingBytes).
std::optional<HealthSnapshot> decode_health_record(BytesView data,
                                                   DecodeError* error = nullptr);

/// Flatten a registry into (canonical key, value) pairs: counters and
/// gauges one value each, histograms as derived "<key>#stat" values.
std::vector<std::pair<std::string, double>> registry_values(const Registry& reg);

/// The fleet-wide record over `nodes`: metrics summed, clocks maxed. node,
/// pid, incarnation and seq stay 0.
HealthSnapshot fleet_total(const std::vector<HealthSnapshot>& nodes);

/// One JSONL object for fleet timelines: the identity header plus every
/// metric (deterministic: metrics in key order, json_number's format, so a
/// non-finite value reads null). `label` names the node ("3", or "fleet"
/// for a summed line).
std::string health_to_json(const HealthSnapshot& snap, std::string_view label);

// ---------------------------------------------------------------------------
// Admin socket protocol: fixed 4-byte request, health-record reply.
//   [0x57 'W'][0x41 'A'][u8 version][u8 op]
// ---------------------------------------------------------------------------

inline constexpr std::uint8_t kAdminMagic0 = 0x57;  // 'W'
inline constexpr std::uint8_t kAdminMagic1 = 0x41;  // 'A'
inline constexpr std::uint8_t kAdminVersion = 1;

enum class AdminOp : std::uint8_t {
  kStats = 1,      ///< reply: one health record
  kNatReboot = 2,  ///< wipe the node's emulated NAT mapping table (chaos
                   ///< supervisor event); reply: one health record so the
                   ///< supervisor gets delivery confirmation
};

Bytes encode_admin_request(AdminOp op);

/// nullopt on malformed request (bad magic/version/op, wrong size).
std::optional<AdminOp> decode_admin_request(BytesView data,
                                            DecodeError* error = nullptr);

}  // namespace whisper::telemetry
