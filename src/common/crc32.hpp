// CRC-32 (IEEE 802.3, reflected polynomial 0xedb88320) over a byte span.
// Table-driven, no zlib dependency. Frames the telemetry health/stats
// records (telemetry/health.hpp), which cross a process boundary.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace whisper {

std::uint32_t crc32(BytesView data);

}  // namespace whisper
