// The connection backlog (CB, §III-A).
//
// A FIFO of the nodes this node recently completed gossip exchanges with —
// exactly the peers towards which a NAT-resilient route is known to be open
// (gossip is bidirectional, so both directions work). Capacity is 2c (twice
// the PSS view size): with one initiated and on average one received
// exchange per cycle, an entry stays at most c cycles — well within NAT
// lease times. The WCL picks its first mix here, and the Π freshest P-node
// entries are the helpers advertised in PPSS view entries.
#pragma once

#include <optional>
#include <vector>

#include "common/fifo.hpp"
#include "crypto/rsa.hpp"
#include "pss/contact.hpp"

namespace whisper::wcl {

struct CbEntry {
  pss::ContactCard card;
  crypto::RsaPublicKey key;
};

class ConnectionBacklog {
 public:
  explicit ConnectionBacklog(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const Fifo<CbEntry>& entries() const { return entries_; }

  /// Insert at the head (most recent). An existing entry for the same node
  /// is refreshed and moved to the head; overflow evicts the tail. Returns
  /// the number of entries evicted by the overflow (telemetry).
  std::size_t push(CbEntry entry);

  bool contains(NodeId id) const;
  const CbEntry* find(NodeId id) const;
  void remove(NodeId id);

  std::size_t count_public() const;
  /// P-node entries, freshest first.
  std::vector<const CbEntry*> publics() const;

 private:
  std::size_t capacity_;
  Fifo<CbEntry> entries_;  // head = freshest
};

}  // namespace whisper::wcl
