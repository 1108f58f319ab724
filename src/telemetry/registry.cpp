#include "telemetry/registry.hpp"

#include <algorithm>

namespace whisper::telemetry {

std::string metric_key(std::string_view name, const Labels& labels) {
  std::string key{name};
  if (labels.empty()) return key;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i) key += ',';
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
  key += '}';
  return key;
}

namespace {

/// The key of (name, labels) reads back unambiguously (see counter()).
bool valid_metric_id(std::string_view name, const Labels& labels) {
  if (name.find_first_of("{}") != std::string_view::npos) return false;
  for (const auto& [k, v] : labels) {
    if (k.find_first_of("{,=}") != std::string::npos) return false;
    if (v.find_first_of("{,=}") != std::string::npos) return false;
  }
  return true;
}

}  // namespace

LabelView::iterator::value_type LabelView::iterator::operator*() const {
  const std::string_view label = rest_.substr(0, rest_.find(','));
  const std::size_t eq = label.find('=');
  return {label.substr(0, eq), label.substr(eq + 1)};
}

LabelView::iterator& LabelView::iterator::operator++() {
  const std::size_t comma = rest_.find(',');
  rest_ = rest_.substr(comma == std::string_view::npos ? rest_.size() : comma + 1);
  return *this;
}

template <typename M, typename... Args>
M& Registry::slot(std::string_view key, M& noop, const Args&... args) {
  auto it = entries_.lower_bound(key);
  if (it == entries_.end() || it->first != key) {
    it = entries_.emplace_hint(it, std::string{key}, Entry{});
    Entry& e = it->second;
    e.metric.template emplace<M>(args...);
    // Point the views at the key now stored in the map node. Names hold no
    // '{' (valid_metric_id), so the first brace opens the labels.
    const std::string_view stored = it->first;
    const std::size_t brace = stored.find('{');
    e.name = stored.substr(0, brace);
    if (brace != std::string_view::npos) {
      e.labels = LabelView(stored.substr(brace + 1, stored.size() - brace - 2));
    }
  }
  if (auto* m = std::get_if<M>(&it->second.metric)) return *m;
  ++mismatches_;
  return noop;
}

template <typename M, typename... Args>
M& Registry::named_slot(std::string_view name, const Labels& labels, M& noop,
                        const Args&... args) {
  if (valid_metric_id(name, labels)) return slot(metric_key(name, labels), noop, args...);
  ++mismatches_;
  return noop;
}

Counter& Registry::counter(std::string_view name, const Labels& labels) {
  return named_slot(name, labels, noop_counter());
}

Gauge& Registry::gauge(std::string_view name, const Labels& labels) {
  return named_slot(name, labels, noop_gauge());
}

Histogram& Registry::histogram(std::string_view name, const BucketSpec& spec,
                               const Labels& labels) {
  return named_slot(name, labels, noop_histogram(), spec);
}

const Registry::Entry* Registry::find(std::string_view name, const Labels& labels) const {
  if (!valid_metric_id(name, labels)) return nullptr;
  auto it = entries_.find(metric_key(name, labels));
  return it == entries_.end() ? nullptr : &it->second;
}

std::uint64_t Registry::counter_value(std::string_view name, const Labels& labels) const {
  const Entry* e = find(name, labels);
  if (e == nullptr) return 0;
  const auto* c = std::get_if<Counter>(&e->metric);
  return c ? c->value() : 0;
}

std::optional<double> Registry::gauge_value(std::string_view name, const Labels& labels) const {
  const Entry* e = find(name, labels);
  if (e == nullptr) return std::nullopt;
  const auto* g = std::get_if<Gauge>(&e->metric);
  return g ? std::optional<double>{g->value()} : std::nullopt;
}

const Histogram* Registry::find_histogram(std::string_view name, const Labels& labels) const {
  const Entry* e = find(name, labels);
  return e == nullptr ? nullptr : std::get_if<Histogram>(&e->metric);
}

std::uint64_t Registry::counter_sum(std::string_view name) const {
  std::uint64_t total = 0;
  // Keys sharing a name are contiguous: "name" < "name{...}" < next name,
  // because '{' sorts above most identifier characters — but a *longer*
  // plain name ("net.bytes.total") can interleave, so match exactly.
  for (auto it = entries_.lower_bound(name); it != entries_.end(); ++it) {
    if (it->second.name != name) {
      if (it->second.name.compare(0, name.size(), name) > 0) break;
      continue;
    }
    if (const auto* c = std::get_if<Counter>(&it->second.metric)) total += c->value();
  }
  return total;
}

void merge_registry_into(Registry& dst, const Registry& src) {
  // src's keys are canonical already: look them up as they are.
  for (const auto& [key, entry] : src.entries()) {
    if (const auto* c = std::get_if<Counter>(&entry.metric)) {
      dst.slot(key, noop_counter()).add(c->value());
    } else if (const auto* g = std::get_if<Gauge>(&entry.metric)) {
      dst.slot(key, noop_gauge()).add(g->value());
    } else if (const auto* h = std::get_if<Histogram>(&entry.metric)) {
      if (!dst.slot(key, noop_histogram(), h->spec()).merge(*h)) ++dst.mismatches_;
    }
  }
}

void Registry::reset(std::string_view prefix) {
  for (auto& [key, entry] : entries_) {
    if (!prefix.empty() && key.compare(0, prefix.size(), prefix) != 0) continue;
    std::visit([](auto& m) { m.reset(); }, entry.metric);
  }
}

}  // namespace whisper::telemetry
