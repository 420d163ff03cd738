// Package metrics is a dependency-free Prometheus-text exporter for the
// String Figure reproduction: a registry of metric families rendered in
// the text exposition format (version 0.0.4) that Prometheus,
// VictoriaMetrics and friends scrape.
//
// A family is one thing: a name, help text, a Prometheus type and a
// callback that returns its samples, read at every scrape
// (Registry.Register). The values stay with their owners — the root
// package's MetricsServer folds telemetry snapshots into plain fields,
// the cluster keeps its dispatch records and the job service its job
// table — so nothing is pushed between scrapes. Buckets renders a
// histogram family from per-bucket counts. The root stringfigure package
// serves a registry at /metrics (see stringfigure.ServeMetrics).
package metrics
