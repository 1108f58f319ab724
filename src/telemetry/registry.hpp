// The metric registry: named, label-tagged counters/gauges/histograms with
// stable addresses and *ordered* iteration (std::map keyed by the canonical
// "name{k=v,...}" string), so exports are byte-identical across same-seed
// runs regardless of metric creation order.
//
// The canonical key is the only copy of a metric's name and labels: an
// entry's `name` and `labels` are views into it. A simulated node owns a
// dozen or more labelled entries (per-node byte counters, RTT and backlog
// gauges), so at 20k nodes the entries are a quarter of a million map
// nodes and every byte per entry counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "telemetry/metric.hpp"

namespace whisper::telemetry {

/// Label set of a metric instance. Order given by the caller is irrelevant:
/// the registry canonicalises by sorting on key.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Canonical identity of a metric: "name{k1=v1,k2=v2}" with labels sorted
/// by key ("name" alone when unlabeled).
std::string metric_key(std::string_view name, const Labels& labels);

/// The labels of a registry entry, read from its canonical key: iterates
/// as (key, value) pairs of views, in key order.
class LabelView {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::pair<std::string_view, std::string_view>;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = value_type;

    iterator() = default;
    explicit iterator(std::string_view rest) : rest_(rest) {}
    value_type operator*() const;
    iterator& operator++();
    bool operator==(const iterator& o) const { return rest_.data() == o.rest_.data(); }

   private:
    std::string_view rest_;  // "k=v,..." from the current label on
  };

  LabelView() = default;
  /// `body` is a canonical key's "k1=v1,k2=v2" (braces stripped).
  explicit LabelView(std::string_view body) : body_(body) {}

  iterator begin() const { return iterator(body_); }
  iterator end() const { return iterator(body_.substr(body_.size())); }

 private:
  std::string_view body_;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create. The returned reference stays valid for the registry's
  /// lifetime (std::map nodes never move). Requesting an existing key as a
  /// different metric kind returns the no-op sink of the requested kind —
  /// a naming bug, surfaced by the `mismatches()` counter, never UB. So
  /// does a name holding '{' or '}', or a label key or value holding any
  /// of '{', ',', '=' or '}': unescaped, two label sets could spell one
  /// key ({a="1,b=2"} and {a="1", b="2"} both give "x{a=1,b=2}").
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  Histogram& histogram(std::string_view name, const BucketSpec& spec,
                       const Labels& labels = {});

  /// Read-only lookup; 0 / nullopt when the metric does not exist.
  std::uint64_t counter_value(std::string_view name, const Labels& labels = {}) const;
  std::optional<double> gauge_value(std::string_view name, const Labels& labels = {}) const;
  const Histogram* find_histogram(std::string_view name, const Labels& labels = {}) const;

  /// Sum of every counter whose *name* (not full key) equals `name` —
  /// aggregates across label sets, e.g. total bytes over all protocols.
  std::uint64_t counter_sum(std::string_view name) const;

  /// `name` and `labels` view the entry's own map key.
  struct Entry {
    std::string_view name;
    LabelView labels;
    std::variant<Counter, Gauge, Histogram> metric;
  };

  /// Ordered traversal (ascending canonical key).
  const std::map<std::string, Entry, std::less<>>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

  /// Zero every metric whose canonical key starts with `prefix` (all of
  /// them when empty). Metrics stay registered; only values reset.
  void reset(std::string_view prefix = {});

  std::uint64_t mismatches() const { return mismatches_; }

 private:
  friend void merge_registry_into(Registry& dst, const Registry& src);

  const Entry* find(std::string_view name, const Labels& labels) const;
  /// Get-or-create under a canonical key; a new metric is built from
  /// `args`, a kind mismatch returns `noop`.
  template <typename M, typename... Args>
  M& slot(std::string_view key, M& noop, const Args&... args);
  /// slot() under the key of (name, labels), or `noop` when that key
  /// would not read back unambiguously.
  template <typename M, typename... Args>
  M& named_slot(std::string_view name, const Labels& labels, M& noop, const Args&... args);

  std::map<std::string, Entry, std::less<>> entries_;
  std::uint64_t mismatches_ = 0;
};

/// Accumulate every metric of `src` into `dst` (get-or-create under the
/// identical canonical key): counters and gauges add, histograms merge
/// (bounds must match — mismatches are skipped, surfaced via
/// dst.mismatches()). Because all hot-path metric updates are commutative,
/// the union of the sharded testbed's per-shard registries is invariant
/// under shard count — the S=1-vs-S=8 byte-identical gate exports the
/// merged registry on both sides.
void merge_registry_into(Registry& dst, const Registry& src);

}  // namespace whisper::telemetry
