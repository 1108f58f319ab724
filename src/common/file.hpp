// Whole-file helpers for the files a live node rewrites: its durable state
// snapshot (store/state.hpp) and the rendezvous files peers and the
// supervisor read (stats records, contact cards, receipts).
//
// Both writers go through a temp file in the same directory and a rename,
// so a reader sees the old file or the new one, never a torn mix.
#pragma once

#include <optional>
#include <string>

#include "common/bytes.hpp"

namespace whisper {

/// Write `data` to `path` atomically and durably: temp file in the same
/// directory, fsync, rename, directory fsync. False on I/O failure.
bool atomic_write_file(const std::string& path, BytesView data, std::string* error = nullptr);

/// Rename-atomic publish WITHOUT the fsyncs: readers can never observe a
/// torn file, but the bytes are not durable across power loss. For
/// ephemeral high-frequency artifacts (live stats records) where the two
/// fsyncs of atomic_write_file cost ~1.5 ms each tick and the data is
/// worthless after a crash anyway. Durable state must keep using
/// atomic_write_file.
bool atomic_publish_file(const std::string& path, BytesView data,
                         std::string* error = nullptr);

/// Read a whole file. nullopt if it does not exist or cannot be read.
std::optional<Bytes> read_file(const std::string& path);

}  // namespace whisper
