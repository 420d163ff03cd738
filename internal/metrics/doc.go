// Package metrics is a dependency-free Prometheus-text exporter for the
// String Figure reproduction: a registry of counters, gauges and
// histograms rendered in the text exposition format (version 0.0.4) that
// Prometheus, VictoriaMetrics and friends scrape.
//
// The package deliberately implements only what the simulation's live
// telemetry needs — monotonic counters, last-value and callback gauges,
// and cumulative-bucket histograms backed by stats.Histogram — so the
// binaries stay free of external dependencies. The root stringfigure
// package wires a registry to the TelemetrySnapshot stream and to cluster
// progress and serves it at /metrics (see stringfigure.ServeMetrics).
package metrics
