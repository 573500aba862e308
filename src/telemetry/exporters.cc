#include "telemetry/exporters.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <ctime>

namespace greta::telemetry {

namespace {

// Splits "name{labels}" into its base name and the brace block ("" when
// unlabeled) so histogram suffixes can be inserted before the labels.
void SplitLabels(const std::string& full, std::string* base,
                 std::string* labels) {
  const size_t brace = full.find('{');
  if (brace == std::string::npos) {
    *base = full;
    labels->clear();
    return;
  }
  *base = full.substr(0, brace);
  *labels = full.substr(brace);
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

// Doubles render with %.17g only when needed; integers stay integral.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// Labeled instrument names embed `"` (name{key="value"}); JSON keys must
// escape them, and adversarial names (newlines, tabs) must not break the
// document.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          AppendF(&out, "\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatIso8601(int64_t system_ns) {
  if (system_ns <= 0) return "-";
  const time_t secs = static_cast<time_t>(system_ns / 1000000000);
  const int millis = static_cast<int>((system_ns % 1000000000) / 1000000);
  struct tm utc {};
  gmtime_r(&secs, &utc);
  char buf[72];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec, millis);
  return buf;
}

std::string EscapeLabelBlock(const std::string& labels) {
  std::string out;
  out.reserve(labels.size());
  bool in_quote = false;
  for (char c : labels) {
    if (c == '"') {
      in_quote = !in_quote;
      out += c;
    } else if (in_quote && c == '\\') {
      out += "\\\\";
    } else if (in_quote && c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string ExportPrometheus(const MetricRegistry& registry) {
  std::string out;
  for (const MetricRegistry::CounterSample& c : registry.ScrapeCounters()) {
    std::string base, labels;
    SplitLabels(c.name, &base, &labels);
    labels = EscapeLabelBlock(labels);
    AppendF(&out, "# TYPE %s counter\n", base.c_str());
    AppendF(&out, "%s%s %" PRIu64 "\n", base.c_str(), labels.c_str(),
            c.value);
  }
  for (const MetricRegistry::GaugeSample& g : registry.ScrapeGauges()) {
    std::string base, labels;
    SplitLabels(g.name, &base, &labels);
    labels = EscapeLabelBlock(labels);
    AppendF(&out, "# TYPE %s gauge\n", base.c_str());
    AppendF(&out, "%s%s %s\n", base.c_str(), labels.c_str(),
            FormatDouble(g.value).c_str());
  }
  for (const MetricRegistry::HistogramSample& h :
       registry.ScrapeHistograms()) {
    std::string base, labels;
    SplitLabels(h.name, &base, &labels);
    labels = EscapeLabelBlock(labels);
    // Labels of the series merge with the `le` bucket label.
    std::string inner =
        labels.empty() ? "" : labels.substr(1, labels.size() - 2) + ",";
    AppendF(&out, "# TYPE %s histogram\n", base.c_str());
    uint64_t cumulative = 0;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (h.snap.buckets[i] == 0) continue;  // sparse: skip empty buckets
      cumulative += h.snap.buckets[i];
      AppendF(&out, "%s_bucket{%sle=\"%" PRIu64 "\"} %" PRIu64 "\n",
              base.c_str(), inner.c_str(), Histogram::BucketUpperBound(i),
              cumulative);
    }
    AppendF(&out, "%s_bucket{%sle=\"+Inf\"} %" PRIu64 "\n", base.c_str(),
            inner.c_str(), h.snap.count);
    AppendF(&out, "%s_sum%s %" PRIu64 "\n", base.c_str(), labels.c_str(),
            h.snap.sum);
    AppendF(&out, "%s_count%s %" PRIu64 "\n", base.c_str(), labels.c_str(),
            h.snap.count);
  }
  return out;
}

std::string ExportJson(MetricRegistry& registry, bool include_trace) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const MetricRegistry::CounterSample& c : registry.ScrapeCounters()) {
    AppendF(&out, "%s\"%s\":%" PRIu64, first ? "" : ",",
            JsonEscape(c.name).c_str(), c.value);
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const MetricRegistry::GaugeSample& g : registry.ScrapeGauges()) {
    AppendF(&out, "%s\"%s\":%s", first ? "" : ",",
            JsonEscape(g.name).c_str(), FormatDouble(g.value).c_str());
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const MetricRegistry::HistogramSample& h :
       registry.ScrapeHistograms()) {
    AppendF(&out,
            "%s\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
            ",\"mean\":%s,\"p50\":%" PRIu64 ",\"p99\":%" PRIu64 "}",
            first ? "" : ",", JsonEscape(h.name).c_str(), h.snap.count,
            h.snap.sum,
            FormatDouble(h.snap.Mean()).c_str(), h.snap.Quantile(0.50),
            h.snap.Quantile(0.99));
    first = false;
  }
  out += "}";
  if (include_trace) {
    const ClockAnchor anchor = registry.clock_anchor();
    out += ",\"trace\":[";
    first = true;
    for (const TraceEvent& e : registry.trace().Snapshot()) {
      const int64_t wall = (e.when_ns != 0 && anchor.valid())
                               ? anchor.ToSystemNs(e.when_ns)
                               : 0;
      AppendF(&out,
              "%s{\"seq\":%" PRIu64
              ",\"kind\":\"%s\",\"shard\":%u,\"cluster\":%u,\"ts\":%lld,"
              "\"wid\":%lld,\"a\":%" PRIu64 ",\"b\":%" PRIu64
              ",\"x\":%s,\"y\":%s,\"when_ns\":%" PRIu64 ",\"time\":\"%s\"}",
              first ? "" : ",", e.seq, TraceKindName(e.kind),
              static_cast<unsigned>(e.shard),
              static_cast<unsigned>(e.cluster),
              static_cast<long long>(e.ts), static_cast<long long>(e.wid),
              e.a, e.b, FormatDouble(e.x).c_str(),
              FormatDouble(e.y).c_str(), e.when_ns,
              FormatIso8601(wall).c_str());
      first = false;
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::string ExplainTelemetry(MetricRegistry& registry, size_t trace_tail) {
  std::string out = "== telemetry ==\n";
  out += "-- counters --\n";
  uint64_t panes_fresh = 0;
  uint64_t panes_recycled = 0;
  for (const MetricRegistry::CounterSample& c : registry.ScrapeCounters()) {
    AppendF(&out, "  %-56s %" PRIu64 "\n", c.name.c_str(), c.value);
    if (c.name == "greta_core_panes_total{source=\"fresh\"}") {
      panes_fresh = c.value;
    } else if (c.name == "greta_core_panes_total{source=\"recycled\"}") {
      panes_recycled = c.value;
    }
  }
  if (panes_fresh + panes_recycled > 0) {
    // Time panes come from the engines' free lists once warm; a low share
    // means partitions churn faster than panes expire (storage/pane.h).
    AppendF(&out,
            "-- pane recycling --\n  %" PRIu64 " of %" PRIu64
            " panes opened were recycled (%.1f%%)\n",
            panes_recycled, panes_fresh + panes_recycled,
            100.0 * static_cast<double>(panes_recycled) /
                static_cast<double>(panes_fresh + panes_recycled));
  }
  out += "-- gauges --\n";
  for (const MetricRegistry::GaugeSample& g : registry.ScrapeGauges()) {
    AppendF(&out, "  %-56s %s\n", g.name.c_str(),
            FormatDouble(g.value).c_str());
  }
  out += "-- histograms (log2 buckets) --\n";
  for (const MetricRegistry::HistogramSample& h :
       registry.ScrapeHistograms()) {
    AppendF(&out,
            "  %-56s count=%" PRIu64 " mean=%s p50<=%" PRIu64 " p99<=%" PRIu64
            "\n",
            h.name.c_str(), h.snap.count,
            FormatDouble(h.snap.Mean()).c_str(), h.snap.Quantile(0.50),
            h.snap.Quantile(0.99));
  }
  std::vector<TraceEvent> trace = registry.trace().Snapshot();
  const ClockAnchor anchor = registry.clock_anchor();
  AppendF(&out, "-- trace (%zu of %" PRIu64 " lifecycle events) --\n",
          trace.size() < trace_tail ? trace.size() : trace_tail,
          registry.trace().total_emitted());
  const size_t start =
      trace.size() > trace_tail ? trace.size() - trace_tail : 0;
  for (size_t i = start; i < trace.size(); ++i) {
    const TraceEvent& e = trace[i];
    const int64_t wall = (e.when_ns != 0 && anchor.valid())
                             ? anchor.ToSystemNs(e.when_ns)
                             : 0;
    AppendF(&out,
            "  #%-8" PRIu64 " %-24s %-18s shard=%u cluster=%u ts=%lld "
            "wid=%lld a=%" PRIu64 " b=%" PRIu64 " x=%s y=%s\n",
            e.seq, FormatIso8601(wall).c_str(), TraceKindName(e.kind),
            static_cast<unsigned>(e.shard), static_cast<unsigned>(e.cluster),
            static_cast<long long>(e.ts), static_cast<long long>(e.wid),
            e.a, e.b, FormatDouble(e.x).c_str(), FormatDouble(e.y).c_str());
  }
  return out;
}

}  // namespace greta::telemetry
