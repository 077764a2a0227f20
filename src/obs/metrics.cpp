#include "fasda/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <stdexcept>

#include "fasda/util/json_text.hpp"

namespace fasda::obs {

namespace {

/// Shortest round-trip formatting for gauge doubles: the value is
/// deterministic, so the text is too.
void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

/// Prometheus metric names allow [a-zA-Z0-9_:] only.
std::string prometheus_name(std::string_view name) {
  std::string out = "fasda_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

// ---------------------------------------------------------------- Registry

Handle Registry::counter(std::string_view name, std::string_view help) {
  return register_metric(name, MetricKind::kCounter, help);
}

Handle Registry::gauge(std::string_view name, std::string_view help) {
  return register_metric(name, MetricKind::kGauge, help);
}

Handle Registry::histogram(std::string_view name, std::string_view help) {
  return register_metric(name, MetricKind::kHistogram, help);
}

Handle Registry::register_metric(std::string_view name, MetricKind kind,
                                 std::string_view help) {
  for (Meta& meta : metas_) {
    if (meta.name != name) continue;
    if (meta.kind != kind) {
      throw std::invalid_argument("obs: metric '" + meta.name +
                                  "' already registered as " +
                                  metric_kind_name(meta.kind) +
                                  ", cannot re-register as " +
                                  metric_kind_name(kind));
    }
    if (meta.help.empty() && !help.empty()) meta.help = std::string(help);
    return meta.handle;
  }
  const auto slot = next_slot_[static_cast<std::size_t>(kind)]++;
  const Handle handle = make_handle(kind, slot);
  metas_.push_back({std::string(name), std::string(help), kind, handle});
  for (Shard& shard : shards_) resize_shard(shard);
  return handle;
}

void Registry::ensure_nodes(int count) {
  while (num_nodes() < count) {
    shards_.emplace_back();
    resize_shard(shards_.back());
  }
}

void Registry::resize_shard(Shard& shard) const {
  shard.counters.resize(next_slot_[0], 0);
  shard.gauges.resize(next_slot_[1], 0.0);
  shard.gauge_set.resize(next_slot_[1], 0);
  shard.hist.resize(static_cast<std::size_t>(next_slot_[2]) *
                        kHistogramBuckets,
                    0);
  shard.hist_sum.resize(next_slot_[2], 0);
}

void Registry::observe(int node, Handle h, std::uint64_t value) noexcept {
  int bucket = static_cast<int>(std::bit_width(value));
  if (bucket >= kHistogramBuckets) bucket = kHistogramBuckets - 1;
  auto& shard = shards_[static_cast<std::size_t>(node + 1)];
  shard.hist[static_cast<std::size_t>(slot_of(h)) * kHistogramBuckets +
             static_cast<std::size_t>(bucket)] += 1;
  shard.hist_sum[slot_of(h)] += value;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  snap.series.reserve(metas_.size());
  for (const Meta& meta : metas_) {
    MetricsSnapshot::Series s;
    s.name = meta.name;
    s.help = meta.help;
    s.kind = meta.kind;
    const std::size_t slot = slot_of(meta.handle);
    // Shard 0 is the cluster slot (node kClusterNode); shard i+1 is node i.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const Shard& shard = shards_[i];
      const int node = static_cast<int>(i) - 1;
      switch (meta.kind) {
        case MetricKind::kCounter: {
          const std::uint64_t v = shard.counters[slot];
          s.total += v;
          if (v != 0 && node >= 0) s.per_node.emplace_back(node, v);
          break;
        }
        case MetricKind::kGauge:
          if (shard.gauge_set[slot]) {
            s.value = shard.gauges[slot];
            if (node >= 0) s.per_node_values.emplace_back(node, s.value);
          }
          break;
        case MetricKind::kHistogram:
          if (s.buckets.empty()) s.buckets.assign(kHistogramBuckets, 0);
          for (int b = 0; b < kHistogramBuckets; ++b) {
            s.buckets[static_cast<std::size_t>(b)] +=
                shard.hist[slot * kHistogramBuckets +
                           static_cast<std::size_t>(b)];
          }
          s.sum += shard.hist_sum[slot];
          break;
      }
    }
    snap.series.push_back(std::move(s));
  }
  std::sort(snap.series.begin(), snap.series.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snap;
}

Registry::NodeImage Registry::image_nodes(int node_begin, int node_end) const {
  NodeImage img;
  const int hi = std::min(node_end, num_nodes());
  for (const Meta& meta : metas_) {
    if (meta.kind == MetricKind::kGauge) continue;
    NodeImage::Series s;
    s.name = meta.name;
    s.kind = meta.kind;
    const std::size_t slot = slot_of(meta.handle);
    for (int node = node_begin; node < hi; ++node) {
      const Shard& shard = shards_[static_cast<std::size_t>(node + 1)];
      if (meta.kind == MetricKind::kCounter) {
        const std::uint64_t v = shard.counters[slot];
        if (v != 0) s.values.emplace_back(node, v);
      } else {
        const std::size_t base = slot * kHistogramBuckets;
        bool any = false;
        for (int b = 0; b < kHistogramBuckets && !any; ++b) {
          any = shard.hist[base + static_cast<std::size_t>(b)] != 0;
        }
        if (!any) continue;
        s.values.emplace_back(node, s.buckets.size());
        s.buckets.insert(s.buckets.end(), shard.hist.begin() + static_cast<std::ptrdiff_t>(base),
                         shard.hist.begin() + static_cast<std::ptrdiff_t>(base + kHistogramBuckets));
        s.buckets.push_back(shard.hist_sum[slot]);
      }
    }
    if (!s.values.empty()) img.series.push_back(std::move(s));
  }
  return img;
}

void Registry::apply_image(const NodeImage& img) {
  for (const NodeImage::Series& s : img.series) {
    const Handle h = register_metric(s.name, s.kind);
    const std::size_t slot = slot_of(h);
    for (const auto& [node, v] : s.values) {
      ensure_nodes(node + 1);
      Shard& shard = shards_[static_cast<std::size_t>(node + 1)];
      if (s.kind == MetricKind::kCounter) {
        shard.counters[slot] = v;
      } else {
        const std::size_t base = slot * kHistogramBuckets;
        for (int b = 0; b < kHistogramBuckets; ++b) {
          shard.hist[base + static_cast<std::size_t>(b)] =
              s.buckets[static_cast<std::size_t>(v) +
                        static_cast<std::size_t>(b)];
        }
        // The blob carries the per-slot sum after the bucket counts; an
        // image from an older producer without it keeps the local sum.
        const std::size_t sum_at =
            static_cast<std::size_t>(v) + kHistogramBuckets;
        if (sum_at < s.buckets.size()) shard.hist_sum[slot] = s.buckets[sum_at];
      }
    }
  }
}

// -------------------------------------------------------- MetricsSnapshot

std::uint64_t MetricsSnapshot::Series::bucket_count() const {
  std::uint64_t n = 0;
  for (std::uint64_t b : buckets) n += b;
  return n;
}

const MetricsSnapshot::Series* MetricsSnapshot::find(
    std::string_view name) const {
  const auto it = std::lower_bound(
      series.begin(), series.end(), name,
      [](const Series& s, std::string_view n) { return s.name < n; });
  if (it == series.end() || it->name != name) return nullptr;
  return &*it;
}

std::uint64_t MetricsSnapshot::counter_total(std::string_view name) const {
  const Series* s = find(name);
  return s != nullptr ? s->total : 0;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name, int node) const {
  const Series* s = find(name);
  if (s == nullptr) return 0;
  for (const auto& [n, v] : s->per_node) {
    if (n == node) return v;
  }
  return 0;
}

double MetricsSnapshot::gauge_or(std::string_view name,
                                 double fallback) const {
  const Series* s = find(name);
  return s != nullptr ? s->value : fallback;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const Series& in : other.series) {
    auto it = std::lower_bound(
        series.begin(), series.end(), in.name,
        [](const Series& s, const std::string& n) { return s.name < n; });
    if (it == series.end() || it->name != in.name) {
      series.insert(it, in);
      continue;
    }
    Series& out = *it;
    out.total += in.total;
    out.sum += in.sum;
    if (out.help.empty()) out.help = in.help;
    if (!in.per_node_values.empty() || in.value != 0.0) out.value = in.value;
    for (const auto& [node, v] : in.per_node) {
      auto pn = std::find_if(out.per_node.begin(), out.per_node.end(),
                             [&](const auto& p) { return p.first == node; });
      if (pn == out.per_node.end()) {
        out.per_node.emplace_back(node, v);
      } else {
        pn->second += v;
      }
    }
    std::sort(out.per_node.begin(), out.per_node.end());
    for (const auto& [node, v] : in.per_node_values) {
      auto pn = std::find_if(out.per_node_values.begin(),
                             out.per_node_values.end(),
                             [&](const auto& p) { return p.first == node; });
      if (pn == out.per_node_values.end()) {
        out.per_node_values.emplace_back(node, v);
      } else {
        pn->second = v;
      }
    }
    std::sort(out.per_node_values.begin(), out.per_node_values.end());
    if (out.buckets.empty()) {
      out.buckets = in.buckets;
    } else if (!in.buckets.empty()) {
      for (std::size_t b = 0; b < out.buckets.size(); ++b) {
        out.buckets[b] += in.buckets[b];
      }
    }
  }
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const Series& s : series) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    util::append_json_escaped(out, s.name);
    out += "\",\"kind\":\"";
    out += metric_kind_name(s.kind);
    out += '"';
    switch (s.kind) {
      case MetricKind::kCounter: {
        out += ",\"total\":";
        util::append_decimal(out, s.total);
        out += ",\"per_node\":{";
        bool f2 = true;
        for (const auto& [node, v] : s.per_node) {
          if (!f2) out += ',';
          f2 = false;
          out += '"';
          util::append_decimal(out, node);
          out += "\":";
          util::append_decimal(out, v);
        }
        out += '}';
        break;
      }
      case MetricKind::kGauge: {
        out += ",\"value\":";
        append_double(out, s.value);
        out += ",\"per_node\":{";
        bool f2 = true;
        for (const auto& [node, v] : s.per_node_values) {
          if (!f2) out += ',';
          f2 = false;
          out += '"';
          util::append_decimal(out, node);
          out += "\":";
          append_double(out, v);
        }
        out += '}';
        break;
      }
      case MetricKind::kHistogram: {
        out += ",\"count\":";
        util::append_decimal(out, s.bucket_count());
        out += ",\"sum\":";
        util::append_decimal(out, s.sum);
        out += ",\"buckets\":{";
        bool f2 = true;
        for (std::size_t b = 0; b < s.buckets.size(); ++b) {
          if (s.buckets[b] == 0) continue;
          if (!f2) out += ',';
          f2 = false;
          out += '"';
          util::append_decimal(out, static_cast<int>(b));
          out += "\":";
          util::append_decimal(out, s.buckets[b]);
        }
        out += '}';
        break;
      }
    }
    out += '}';
  }
  out += "]}\n";
  return out;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  for (const Series& s : series) {
    const std::string name = prometheus_name(s.name);
    // HELP first, then TYPE, per the text exposition format. Help text
    // falls back to the registry's dotted name so every family documents
    // at least its origin.
    out += "# HELP " + name + ' ';
    out += s.help.empty() ? s.name : s.help;
    out += '\n';
    out += "# TYPE " + name + ' ' + metric_kind_name(s.kind) + '\n';
    switch (s.kind) {
      case MetricKind::kCounter:
        for (const auto& [node, v] : s.per_node) {
          out += name + "{node=\"";
          util::append_decimal(out, node);
          out += "\"} ";
          util::append_decimal(out, v);
          out += '\n';
        }
        out += name + ' ';
        util::append_decimal(out, s.total);
        out += '\n';
        break;
      case MetricKind::kGauge:
        for (const auto& [node, v] : s.per_node_values) {
          out += name + "{node=\"";
          util::append_decimal(out, node);
          out += "\"} ";
          append_double(out, v);
          out += '\n';
        }
        out += name + ' ';
        append_double(out, s.value);
        out += '\n';
        break;
      case MetricKind::kHistogram: {
        // Cumulative buckets up to the highest occupied bit-width bucket;
        // bucket k holds values with bit_width == k, i.e. v < 2^k.
        std::size_t top = 0;
        for (std::size_t b = 0; b < s.buckets.size(); ++b) {
          if (s.buckets[b] != 0) top = b;
        }
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b <= top; ++b) {
          cum += s.buckets[b];
          out += name + "_bucket{le=\"";
          util::append_decimal(out, b == 0 ? 0 : (std::uint64_t{1} << b) - 1);
          out += "\"} ";
          util::append_decimal(out, cum);
          out += '\n';
        }
        out += name + "_bucket{le=\"+Inf\"} ";
        util::append_decimal(out, s.bucket_count());
        out += '\n';
        out += name + "_sum ";
        util::append_decimal(out, s.sum);
        out += '\n';
        out += name + "_count ";
        util::append_decimal(out, s.bucket_count());
        out += '\n';
        break;
      }
    }
  }
  return out;
}

std::vector<double> egress_percentages(const MetricsSnapshot& snap,
                                       std::string_view channel, int src,
                                       int num_nodes) {
  std::vector<std::uint64_t> to(static_cast<std::size_t>(num_nodes), 0);
  std::uint64_t total = 0;
  for (int dst = 0; dst < num_nodes; ++dst) {
    std::string name(channel);
    name += ".to.";
    name += std::to_string(dst);
    const std::uint64_t v = snap.counter(name, src);
    to[static_cast<std::size_t>(dst)] = v;
    total += v;
  }
  std::vector<double> pct(static_cast<std::size_t>(num_nodes), 0.0);
  if (total == 0) return pct;
  for (int dst = 0; dst < num_nodes; ++dst) {
    pct[static_cast<std::size_t>(dst)] =
        100.0 * static_cast<double>(to[static_cast<std::size_t>(dst)]) /
        static_cast<double>(total);
  }
  return pct;
}

}  // namespace fasda::obs
