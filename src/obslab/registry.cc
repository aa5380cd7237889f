#include "src/obslab/registry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/tracelab/json_util.h"

namespace obslab {

namespace {

bool NameStartChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
}

bool NameChar(char c) { return NameStartChar(c) || (c >= '0' && c <= '9'); }

void AppendHelpEscaped(std::string& out, std::string_view help) {
  for (const char c : help) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

void AppendDouble(std::string& out, double v) {
  // Integral values render without a fraction so counter scrapes are
  // trivially parseable (and diffable) as integers.
  if (v >= 0 && v < 9.2e18 && v == static_cast<double>(static_cast<std::uint64_t>(v))) {
    out += std::to_string(static_cast<std::uint64_t>(v));
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
}

void AppendLabels(std::string& out, const Labels& labels, const char* extra_key = nullptr,
                  const std::string& extra_value = std::string()) {
  if (labels.empty() && extra_key == nullptr) {
    return;
  }
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += MetricsRegistry::SanitizeName(key);
    out += "=\"";
    MetricsRegistry::AppendEscapedLabelValue(out, value);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) {
      out += ',';
    }
    out += extra_key;
    out += "=\"";
    out += extra_value;  // always a number or "+Inf"; nothing to escape
    out += '"';
  }
  out += '}';
}

const char* TypeName(const Sample& sample) {
  if (sample.histogram != nullptr) {
    return "histogram";
  }
  return sample.monotonic ? "counter" : "gauge";
}

}  // namespace

std::string MetricsRegistry::SanitizeName(std::string_view name) {
  if (name.empty()) {
    return "_";
  }
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = i == 0 ? NameStartChar(c) : NameChar(c);
    out += ok ? c : '_';
  }
  return out;
}

void MetricsRegistry::AppendEscapedLabelValue(std::string& out, std::string_view value) {
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;  // UTF-8 passes through byte-wise, per the format
    }
  }
}

MetricsRegistry::Instrument* MetricsRegistry::FindOrNull(Kind kind, const std::string& name,
                                                         const Labels& labels) {
  for (const auto& instrument : instruments_) {
    if (instrument->kind == kind && instrument->name == name &&
        instrument->labels == labels) {
      return instrument.get();
    }
  }
  return nullptr;
}

Counter MetricsRegistry::RegisterCounter(std::string name, Labels labels, std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string sanitized = SanitizeName(name);
  if (Instrument* existing = FindOrNull(Kind::kCounter, sanitized, labels)) {
    return Counter(existing->counter.get());
  }
  auto instrument = std::make_unique<Instrument>();
  instrument->kind = Kind::kCounter;
  instrument->name = sanitized;
  instrument->labels = std::move(labels);
  instrument->help = std::move(help);
  instrument->counter = std::make_unique<std::atomic<std::uint64_t>>(0);
  Counter handle(instrument->counter.get());
  instruments_.push_back(std::move(instrument));
  return handle;
}

Gauge MetricsRegistry::RegisterGauge(std::string name, Labels labels, std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string sanitized = SanitizeName(name);
  if (Instrument* existing = FindOrNull(Kind::kGauge, sanitized, labels)) {
    return Gauge(existing->gauge.get());
  }
  auto instrument = std::make_unique<Instrument>();
  instrument->kind = Kind::kGauge;
  instrument->name = sanitized;
  instrument->labels = std::move(labels);
  instrument->help = std::move(help);
  instrument->gauge = std::make_unique<std::atomic<std::int64_t>>(0);
  Gauge handle(instrument->gauge.get());
  instruments_.push_back(std::move(instrument));
  return handle;
}

Histogram MetricsRegistry::RegisterHistogram(std::string name, Labels labels,
                                             std::string help) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string sanitized = SanitizeName(name);
  if (Instrument* existing = FindOrNull(Kind::kHistogram, sanitized, labels)) {
    return Histogram(existing->histogram.get());
  }
  auto instrument = std::make_unique<Instrument>();
  instrument->kind = Kind::kHistogram;
  instrument->name = sanitized;
  instrument->labels = std::move(labels);
  instrument->help = std::move(help);
  instrument->histogram = std::make_unique<graftd::AtomicHistogram>();
  Histogram handle(instrument->histogram.get());
  instruments_.push_back(std::move(instrument));
  return handle;
}

void MetricsRegistry::AddCollector(Collector collector) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(collector));
}

std::vector<Sample> MetricsRegistry::Collect() const {
  std::vector<Sample> out;
  for (const auto& instrument : instruments_) {
    Sample sample{instrument->name, instrument->labels};
    sample.help = instrument->help;
    switch (instrument->kind) {
      case Kind::kCounter:
        sample.value =
            static_cast<double>(instrument->counter->load(std::memory_order_relaxed));
        sample.monotonic = true;
        break;
      case Kind::kGauge:
        sample.value = static_cast<double>(instrument->gauge->load(std::memory_order_relaxed));
        break;
      case Kind::kHistogram:
        sample.histogram =
            std::make_shared<const graftd::Histogram>(instrument->histogram->Snapshot());
        break;
    }
    out.push_back(std::move(sample));
  }
  for (const Collector& collector : collectors_) {
    const std::size_t before = out.size();
    collector(out);
    // Collector-provided names arrive unsanitized.
    for (std::size_t i = before; i < out.size(); ++i) {
      out[i].name = SanitizeName(out[i].name);
    }
  }
  return out;
}

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<Sample> samples = Collect();

  std::string out;
  out.reserve(4096 + samples.size() * 64);

  // One HELP/TYPE block per metric name, samples grouped under the first
  // appearance so multi-label families stay legal exposition.
  std::vector<bool> emitted(samples.size(), false);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (emitted[i]) {
      continue;
    }
    const Sample& head = samples[i];
    if (!head.help.empty()) {
      out += "# HELP ";
      out += head.name;
      out += ' ';
      AppendHelpEscaped(out, head.help);
      out += '\n';
    }
    out += "# TYPE ";
    out += head.name;
    out += ' ';
    out += TypeName(head);
    out += '\n';
    for (std::size_t j = i; j < samples.size(); ++j) {
      const Sample& sample = samples[j];
      if (emitted[j] || sample.name != head.name) {
        continue;
      }
      emitted[j] = true;
      if (sample.histogram == nullptr) {
        out += sample.name;
        AppendLabels(out, sample.labels);
        out += ' ';
        AppendDouble(out, sample.value);
        out += '\n';
        continue;
      }
      // Only occupied buckets are listed; `le="+Inf"` (every sample, the
      // clamp bucket's included) and _count are both the snapshot's count.
      const graftd::Histogram& h = *sample.histogram;
      const auto bucket_line = [&](const std::string& le, std::uint64_t cumulative) {
        out += sample.name;
        out += "_bucket";
        AppendLabels(out, sample.labels, "le", le);
        out += ' ';
        out += std::to_string(cumulative);
        out += '\n';
      };
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b + 1 < graftd::Histogram::kBuckets; ++b) {
        if (h.counts[b] != 0) {
          cumulative += h.counts[b];
          bucket_line(std::to_string(graftd::Histogram::BucketUpper(b)), cumulative);
        }
      }
      bucket_line("+Inf", h.count);
      out += sample.name;
      out += "_sum";
      AppendLabels(out, sample.labels);
      out += ' ';
      out += std::to_string(h.total);
      out += '\n';
      out += sample.name;
      out += "_count";
      AppendLabels(out, sample.labels);
      out += ' ';
      out += std::to_string(h.count);
      out += '\n';
    }
  }
  return out;
}

std::string MetricsRegistry::Json() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<Sample> samples = Collect();

  std::string out;
  out.reserve(4096 + samples.size() * 80);
  out += "{\"metrics\":[";
  bool first = true;
  for (const Sample& sample : samples) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "\n  {\"name\":";
    tracelab::AppendJsonString(out, sample.name);
    out += ",\"type\":\"";
    out += TypeName(sample);
    out += "\",\"labels\":{";
    bool first_label = true;
    for (const auto& [key, value] : sample.labels) {
      if (!first_label) {
        out += ',';
      }
      first_label = false;
      tracelab::AppendJsonString(out, key);
      out += ':';
      tracelab::AppendJsonString(out, value);
    }
    out += '}';
    if (sample.histogram == nullptr) {
      out += ",\"value\":";
      AppendDouble(out, sample.value);
      out += '}';
      continue;
    }
    const graftd::Histogram& h = *sample.histogram;
    out += ",\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum\":";
    out += std::to_string(h.total);
    out += ",\"buckets\":[";
    bool first_bucket = true;
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < graftd::Histogram::kBuckets; ++b) {
      if (h.counts[b] == 0) {
        continue;
      }
      cumulative += h.counts[b];
      if (!first_bucket) {
        out += ',';
      }
      first_bucket = false;
      out += "{\"le\":";
      out += std::to_string(graftd::Histogram::BucketUpper(b));
      out += ",\"count\":";
      out += std::to_string(cumulative);
      out += '}';
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

std::optional<double> SeriesSum(std::string_view exposition, std::string_view selector) {
  // A series ends at ' ' (its value follows) or, after a bare name, at '{'.
  const bool bare = selector.find('{') == std::string_view::npos;
  std::optional<double> sum;
  while (!exposition.empty()) {
    const std::size_t eol = std::min(exposition.find('\n'), exposition.size());
    const std::string_view line = exposition.substr(0, eol);
    exposition.remove_prefix(std::min(eol + 1, exposition.size()));
    if (line.size() <= selector.size() || line.substr(0, selector.size()) != selector) {
      continue;
    }
    const char next = line[selector.size()];
    if (next != ' ' && !(bare && next == '{')) {
      continue;
    }
    // Label values may hold spaces, but the value is the last field.
    const std::string value(line.substr(line.rfind(' ') + 1));
    sum = sum.value_or(0.0) + std::strtod(value.c_str(), nullptr);
  }
  return sum;
}

}  // namespace obslab
