#include "wcl/backlog.hpp"

#include <algorithm>

namespace whisper::wcl {

std::size_t ConnectionBacklog::push(CbEntry entry) {
  remove(entry.card.id);
  entries_.push_front(std::move(entry));
  std::size_t evicted = 0;
  while (entries_.size() > capacity_) {
    entries_.pop_back();
    ++evicted;
  }
  return evicted;
}

bool ConnectionBacklog::contains(NodeId id) const { return find(id) != nullptr; }

const CbEntry* ConnectionBacklog::find(NodeId id) const {
  for (const auto& e : entries_) {
    if (e.card.id == id) return &e;
  }
  return nullptr;
}

void ConnectionBacklog::remove(NodeId id) {
  entries_.erase_if([&](const CbEntry& e) { return e.card.id == id; });
}

std::size_t ConnectionBacklog::count_public() const {
  return static_cast<std::size_t>(std::count_if(
      entries_.begin(), entries_.end(), [](const CbEntry& e) { return e.card.is_public; }));
}

std::vector<const CbEntry*> ConnectionBacklog::publics() const {
  std::vector<const CbEntry*> out;
  for (const auto& e : entries_) {
    if (e.card.is_public) out.push_back(&e);
  }
  return out;
}

}  // namespace whisper::wcl
