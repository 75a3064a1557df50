package main

import (
	"strings"

	"sgxelide/internal/bench"
)

// The metric catalogue. BENCHMARK.json at the repository root lists the
// same names (a test keeps the two equal). Every run reports every name
// of its kind: an untraced run all end-to-end metrics, a traced run all
// per-layer metrics, where a layer metric of a layer the workload does
// not exercise reads 0.

// e2eNames are the end-to-end metrics, each defined for every workload
// (README.md gives the per-workload meaning).
var e2eNames = []string{"setup_s", "peak_rss_mib", "p50_ms", "restore_ms", "ops_per_s"}

// perLayerNames lists every per-layer metric.
func perLayerNames() []string {
	names := []string{
		"sgx.launch_ms.p50",
		"sgx.quote_ms.p50",
		"trusted.restore_self_ms.p50",
		"trusted.restore_self_ms.mean",
		"trusted.restore_transport_ms.mean",
		"trusted.restore_ms.mean",
		"evm.restore_minst_s",
		"evm.app_minst_s",
		"evm.nondeterministic",
		"transport.attest_ms.p50",
		"transport.attest_ms.p99",
		"transport.request_ms.p50",
		"transport.resume_ms.p50",
		"transport.legacy_ms.p50",
		"transport.flights_per_restore",
		"sdk.ocalls_per_restore",
		"sdk.ecdh_ms.p50",
		"sdk.channel_open_ms.p50",
		"gen.queue_wait_ms.p99",
		"gen.late_ms.p99",
		"server.attest_ok",
		"server.attest_resumed",
		"server.bundles_served",
		"server.overloaded",
		"replication.fetch_per_resume",
		"replication.push_drops",
		"replication.extra_attest_per_resume",
		"trace.overhead_pct",
		"trace.spans",
	}
	for _, p := range bench.All() {
		for _, mode := range []string{modeRemote, modeLocal} {
			names = append(names, "evm.restore_insns."+p.Name+"."+mode)
		}
	}
	for _, p := range appPrograms() {
		names = append(names, "evm.app_insns."+p.Name, "trusted.restore_share."+p.Name)
	}
	return names
}

// complete returns exactly the catalogue's metrics of the run's kind: a
// missing end-to-end metric is a benchmark failure, a per-layer metric
// the workload does not produce reads 0, and every per-layer metric
// carries its catalogue unit.
func complete(ph *phase, m metricSet, traced bool) metricSet {
	out := metricSet{}
	if !traced {
		for _, n := range e2eNames {
			v, ok := m[n]
			if !ok {
				ph.fail("end-to-end metric %s was not measured", n)
			}
			out[n] = v
		}
		return out
	}
	for _, n := range perLayerNames() {
		out.set(n, m[n].Value, layerUnit(n))
	}
	return out
}

// layerUnit is the unit a per-layer metric is reported in.
func layerUnit(name string) string {
	switch {
	case strings.Contains(name, "_ms."):
		return "ms"
	case strings.Contains(name, "_minst_s"):
		return "Minst/s"
	case strings.Contains(name, "restore_share."):
		return "ratio"
	case strings.Contains(name, "trace.overhead_pct"):
		return "%"
	case strings.Contains(name, "server."):
		return "per_arrival"
	case strings.Contains(name, "_per_resume"):
		return "per_resume"
	}
	return "count"
}
