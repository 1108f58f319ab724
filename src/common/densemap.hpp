// DenseMap: open-addressed index over dense key/value arrays.
//
// The protocol layers' hot lookup tables (pending exchanges, forward
// tables, member maps, handler tables) were node-local `unordered_map`s:
// every entry a separate heap node, every scan a pointer chase. DenseMap
// keeps keys and values in two contiguous vectors and resolves lookups
// through a flat linear-probe index of u32 positions, so iteration is a
// linear walk over packed storage and the per-entry overhead is four bytes
// of index instead of a malloc'd bucket node.
//
// Semantics differ from unordered_map in two deliberate ways:
//  - erase() swap-removes, so iteration order is insertion order disturbed
//    by erasures. It is deterministic for a deterministic operation
//    sequence (all the simulator guarantees), just not sorted or stable.
//  - erase(iterator) returns an iterator at the SAME position (now holding
//    the swapped-in last element), which makes the standard expiry-sweep
//    `it = map.erase(it)` idiom work unchanged.
//
// Every hash passes through mix64 (splitmix64) before it is masked to a
// bucket. libstdc++'s std::hash of an integer is the identity, so
// std::hash<Endpoint> is `(ip << 16) | port`: with every simulated endpoint
// on one port, the low bits the mask keeps are the same for all keys and
// lookups degrade to a scan of the whole table. Mixed, regular key layouts
// probe in O(1) on average. The std::hash specialisations in ids.hpp stay
// the identity: std::unordered_* containers keyed by them keep their
// iteration order, and DenseMap's order (insertion order) never depended
// on the hash. A fixed finalizer can be inverted, so keys an adversary
// picks to collide are not covered here.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace whisper {

template <typename K, typename V, typename Hash = std::hash<K>>
class DenseMap {
 public:
  DenseMap() = default;

  /// Reference pair mimicking unordered_map's value_type surface.
  struct Ref {
    const K& first;
    V& second;
    Ref* operator->() { return this; }
  };
  struct ConstRef {
    const K& first;
    const V& second;
    ConstRef* operator->() { return this; }
  };

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Ref;
    using difference_type = std::ptrdiff_t;
    using pointer = Ref*;
    using reference = Ref;

    iterator(DenseMap* m, std::size_t i) : m_(m), i_(i) {}
    Ref operator*() const { return Ref{m_->keys_[i_], m_->vals_[i_]}; }
    Ref operator->() const { return Ref{m_->keys_[i_], m_->vals_[i_]}; }
    iterator& operator++() { ++i_; return *this; }
    bool operator==(const iterator& o) const { return i_ == o.i_; }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }
    std::size_t pos() const { return i_; }
   private:
    friend class DenseMap;
    DenseMap* m_;
    std::size_t i_;
  };
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = ConstRef;
    using difference_type = std::ptrdiff_t;
    using pointer = ConstRef*;
    using reference = ConstRef;

    const_iterator(const DenseMap* m, std::size_t i) : m_(m), i_(i) {}
    ConstRef operator*() const { return ConstRef{m_->keys_[i_], m_->vals_[i_]}; }
    ConstRef operator->() const { return ConstRef{m_->keys_[i_], m_->vals_[i_]}; }
    const_iterator& operator++() { ++i_; return *this; }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }
   private:
    const DenseMap* m_;
    std::size_t i_;
  };

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, keys_.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, keys_.size()); }

  std::size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

  void reserve(std::size_t n) {
    keys_.reserve(n);
    vals_.reserve(n);
    if (n * 2 > index_.size()) rehash(index_pow2_for(n));
  }

  void clear() {
    keys_.clear();
    vals_.clear();
    index_.assign(index_.size(), kEmpty);
    tombstones_ = 0;
  }

  iterator find(const K& key) {
    const std::size_t b = find_bucket(key);
    return b == kNpos ? end() : iterator(this, index_[b]);
  }
  const_iterator find(const K& key) const {
    const std::size_t b = find_bucket(key);
    return b == kNpos ? end() : const_iterator(this, index_[b]);
  }
  bool contains(const K& key) const { return find_bucket(key) != kNpos; }
  std::size_t count(const K& key) const { return contains(key) ? 1 : 0; }

  V& operator[](const K& key) {
    const std::size_t b = find_bucket(key);
    if (b != kNpos) return vals_[index_[b]];
    return *insert_new(key, V{});
  }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    const std::size_t b = find_bucket(key);
    if (b != kNpos) return {iterator(this, index_[b]), false};
    insert_new(key, V(std::forward<Args>(args)...));
    return {iterator(this, keys_.size() - 1), true};
  }
  std::pair<iterator, bool> emplace(const K& key, V val) {
    return try_emplace(key, std::move(val));
  }
  std::pair<iterator, bool> insert(std::pair<K, V> kv) {
    return try_emplace(kv.first, std::move(kv.second));
  }
  void insert_or_assign(const K& key, V val) {
    const std::size_t b = find_bucket(key);
    if (b != kNpos) {
      vals_[index_[b]] = std::move(val);
      return;
    }
    insert_new(key, std::move(val));
  }

  std::size_t erase(const K& key) {
    const std::size_t b = find_bucket(key);
    if (b == kNpos) return 0;
    erase_at(b);
    return 1;
  }

  /// Swap-removes; the returned iterator sits at the same position, which
  /// now holds the previous last element (or end()).
  iterator erase(iterator it) {
    assert(it.m_ == this && it.i_ < keys_.size());
    const std::size_t b = find_bucket(keys_[it.i_]);
    assert(b != kNpos);
    erase_at(b);
    return iterator(this, it.i_);
  }

  /// How far stored keys sit from their home bucket (0 = found on the
  /// first probe). One walk over the index, on demand only.
  struct ProbeStats {
    std::size_t max = 0;
    double mean = 0.0;
  };
  ProbeStats probe_stats() const {
    ProbeStats st;
    if (keys_.empty()) return st;
    const std::size_t mask = index_.size() - 1;
    std::size_t total = 0;
    for (std::size_t b = 0; b < index_.size(); ++b) {
      const std::uint32_t slot = index_[b];
      if (slot == kEmpty || slot == kTombstone) continue;
      const std::size_t d = (b - home(keys_[slot], mask)) & mask;
      total += d;
      st.max = std::max(st.max, d);
    }
    st.mean = static_cast<double>(total) / static_cast<double>(keys_.size());
    return st;
  }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;
  static constexpr std::uint32_t kTombstone = UINT32_MAX - 1;
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  static std::size_t index_pow2_for(std::size_t n) {
    std::size_t cap = 16;
    while (cap < n * 2) cap <<= 1;
    return cap;
  }

  /// First bucket probed for `key`.
  static std::size_t home(const K& key, std::size_t mask) {
    return static_cast<std::size_t>(mix64(Hash{}(key))) & mask;
  }

  /// Bucket holding `key`, or kNpos.
  std::size_t find_bucket(const K& key) const {
    if (index_.empty()) return kNpos;
    const std::size_t mask = index_.size() - 1;
    std::size_t b = home(key, mask);
    for (;;) {
      const std::uint32_t slot = index_[b];
      if (slot == kEmpty) return kNpos;
      if (slot != kTombstone && keys_[slot] == key) return b;
      b = (b + 1) & mask;
    }
  }

  V* insert_new(const K& key, V val) {
    if ((keys_.size() + 1 + tombstones_) * 10 >= index_.size() * 7) {
      rehash(index_pow2_for(keys_.size() + 1));
    }
    const std::size_t mask = index_.size() - 1;
    std::size_t b = home(key, mask);
    while (index_[b] != kEmpty && index_[b] != kTombstone) b = (b + 1) & mask;
    if (index_[b] == kTombstone) --tombstones_;
    index_[b] = static_cast<std::uint32_t>(keys_.size());
    keys_.push_back(key);
    vals_.push_back(std::move(val));
    return &vals_.back();
  }

  void erase_at(std::size_t bucket) {
    const std::uint32_t pos = index_[bucket];
    index_[bucket] = kTombstone;
    ++tombstones_;
    const std::uint32_t last = static_cast<std::uint32_t>(keys_.size() - 1);
    if (pos != last) {
      // Move the last element into the hole and repoint its bucket.
      const std::size_t lb = find_bucket(keys_[last]);
      assert(lb != kNpos);
      keys_[pos] = std::move(keys_[last]);
      vals_[pos] = std::move(vals_[last]);
      index_[lb] = pos;
    }
    keys_.pop_back();
    vals_.pop_back();
  }

  void rehash(std::size_t buckets) {
    index_.assign(buckets, kEmpty);
    tombstones_ = 0;
    const std::size_t mask = buckets - 1;
    for (std::uint32_t i = 0; i < keys_.size(); ++i) {
      std::size_t b = home(keys_[i], mask);
      while (index_[b] != kEmpty) b = (b + 1) & mask;
      index_[b] = i;
    }
  }

  std::vector<K> keys_;
  std::vector<V> vals_;
  std::vector<std::uint32_t> index_;
  std::size_t tombstones_ = 0;
};

/// std::erase_if counterpart (found by ADL): drop every entry matching
/// `pred`, which sees a pair-like {first, second} reference.
template <typename K, typename V, typename Hash, typename Pred>
std::size_t erase_if(DenseMap<K, V, Hash>& m, Pred pred) {
  std::size_t erased = 0;
  for (auto it = m.begin(); it != m.end();) {
    if (pred(*it)) {
      it = m.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

/// Set counterpart: same flat index, dense key array, no values.
template <typename K, typename Hash = std::hash<K>>
class DenseSet {
 public:
  bool insert(const K& key) { return map_.try_emplace(key, Empty{}).second; }
  std::size_t erase(const K& key) { return map_.erase(key); }
  bool contains(const K& key) const { return map_.contains(key); }
  std::size_t count(const K& key) const { return map_.count(key); }
  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }

 private:
  struct Empty {};
  DenseMap<K, Empty, Hash> map_;
};

}  // namespace whisper
