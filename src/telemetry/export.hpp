// Exporters for metrics snapshots and trace events.
//
// Three formats:
//  * JSON snapshot (`sei-metrics-v1`): the machine-readable dump benches and
//    examples write via --metrics-out; histograms carry their buckets plus
//    derived p50/p99.
//  * Prometheus text exposition: same data, scrape-compatible; histogram
//    buckets become cumulative `_bucket{le=...}` series.
//  * Chrome trace-event JSON: Tracer::drain() output as complete ("X")
//    events, loadable in chrome://tracing and Perfetto.
//
// All file writers use JsonWriter / atomic replace, so a crash mid-export
// never leaves a torn file.
#pragma once

#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace sei::telemetry {

/// Writes a snapshot as JSON (schema "sei-metrics-v1") to `path`.
void write_metrics_json(const std::string& path, const MetricsSnapshot& snap);

/// Renders a snapshot in Prometheus text exposition format (version 0.0.4).
std::string prometheus_text(const MetricsSnapshot& snap);

/// Writes prometheus_text() to `path` (atomic tmp + rename).
void write_prometheus(const std::string& path, const MetricsSnapshot& snap);

/// Writes trace events as Chrome trace-event JSON ({"traceEvents": [...]}).
void write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events);

}  // namespace sei::telemetry
