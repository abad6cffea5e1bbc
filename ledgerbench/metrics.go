package main

import "tnsr/internal/obs"

// metricDecl is one declared metric; BENCHMARK.json lists the same names
// and units (pinned by TestDeclaredMetricsMatchBenchmarkJSON).
type metricDecl struct {
	name string
	unit string
}

// endToEndMetrics are printed by every untraced run, on every workload.
var endToEndMetrics = []metricDecl{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"tns_mips", "MIPS"},
	{"sim_cycles", "cycles"},
	{"risc_per_tns", "ratio"},
	{"ok_ratio", "ratio"},
	{"alloc_mb", "MB/op"},
	{"rss_mb", "MB"},
}

// spanNames are the layer boundaries the benchmark times; each also gets a
// self-time metric in the traced run.
var spanNames = []string{
	"talc.compile",
	"tnsasm.assemble",
	"tnsgen.generate",
	"core.accelerate.mips",
	"core.accelerate.ob0",
	"codefile.write",
	"codefile.read_verify",
	"interp.run",
	"xrun.new",
	"xrun.run.mips",
	"xrun.run.ob0",
	"xlate.accelerate",
	"xlate.submit",
	"xlate.fetch",
	"profsrv.push",
	"profsrv.fetch",
}

// phaseNames are the translator phases core.Options.Obs reports.
var phaseNames = []string{"analyze", "rp", "liveness", "translate", "merge", "schedule", "finalize"}

// countMetrics are the per-layer metrics that must repeat exactly for one
// seed (the determinism self-check).
var countMetrics = []string{
	"risc.instrs", "risc.cycles", "risc.load_stalls", "risc.md_stalls",
	"risc.icache_misses", "risc.dcache_misses", "ob0.instrs", "ob0.cycles",
	"core.risc_instrs", "xrun.switches", "xrun.interludes", "codefile.bytes",
}

// tracedNames renames the end-to-end metrics a traced run also reports:
// every metric name in BENCHMARK.json is used once.
var tracedNames = map[string]string{
	"tns_mips":     "xrun.tns_mips",
	"sim_cycles":   "xrun.priced_cycles",
	"risc_per_tns": "core.risc_per_tns",
}

// perLayerMetrics are printed by every traced run. Layers a workload never
// calls report 0.
var perLayerMetrics = func() []metricDecl {
	d := []metricDecl{
		{"xrun.tns_mips", "MIPS"},
		{"xrun.priced_cycles", "cycles"},
		{"core.risc_per_tns", "ratio"},
		{"risc.ns_per_instr", "ns"},
		{"ob0.ns_per_instr", "ns"},
		{"risc.instrs", "count"},
		{"risc.cycles", "count"},
		{"risc.cpi", "cycles/instr"},
		{"risc.load_stalls", "count"},
		{"risc.md_stalls", "count"},
		{"risc.icache_misses", "count"},
		{"risc.dcache_misses", "count"},
		{"ob0.instrs", "count"},
		{"ob0.cycles", "count"},
		{"core.risc_instrs", "count"},
		{"xrun.switch_us", "us"},
		{"xrun.switch_share", "ratio"},
		{"xrun.switches", "count"},
		{"xrun.interludes", "count"},
		{"xrun.interp_fraction", "ratio"},
		{"interp.ns_per_instr", "ns"},
		{"xrun.new_ms", "ms"},
		{"xrun.pmap_exact_ratio", "ratio"},
	}
	for r := obs.EscapeReason(0); r < obs.NumEscapeReasons; r++ {
		d = append(d, metricDecl{"xrun.escapes." + r.String(), "count"})
	}
	d = append(d,
		metricDecl{"talc.compile_ms", "ms"},
		metricDecl{"tnsasm.assemble_ms", "ms"},
		metricDecl{"core.accelerate_ms.mips", "ms"},
		metricDecl{"core.accelerate_ms.ob0", "ms"},
		metricDecl{"codefile.write_ms", "ms"},
		metricDecl{"codefile.read_verify_ms", "ms"},
		metricDecl{"codefile.bytes", "bytes"},
	)
	for _, p := range phaseNames {
		d = append(d, metricDecl{"core.phase." + p + "_ms", "ms"})
	}
	d = append(d,
		metricDecl{"store.put_ms", "ms"},
		metricDecl{"store.get_ms", "ms"},
		metricDecl{"tcache.hit_ratio", "ratio"},
		metricDecl{"xlate.queue.frags_executed", "count/op"},
		metricDecl{"xlate.queue.steals", "count/op"},
		metricDecl{"xlate.submit_ms", "ms"},
		metricDecl{"xlate.fetch_ms", "ms"},
		metricDecl{"xlate.requests_per_op", "count/op"},
		metricDecl{"xlate.cold.p50_ms", "ms"},
		metricDecl{"xlate.cold.requests_per_op", "count/op"},
		metricDecl{"xlate.cold.first_fetch_ratio", "ratio"},
		metricDecl{"profsrv.push_ms", "ms"},
		metricDecl{"profsrv.fetch_ms", "ms"},
	)
	for _, s := range spanNames {
		d = append(d, metricDecl{"self_ms." + s, "ms"})
	}
	d = append(d,
		metricDecl{"ledger.traced_ms", "ms"},
		metricDecl{"ledger.layer_self_ms", "ms"},
		metricDecl{"unattributed_ms", "ms"},
		metricDecl{"trace.spans", "count"},
		metricDecl{"proc.peak_rss_mb", "MB"},
		metricDecl{"trace.overhead_pct", "%"},
	)
	return d
}()

// spanMeans fills "<name>_ms"-style metrics with the mean duration of the
// spans of each layer the traced run recorded.
func spanMeans(lg *ledger, m map[string]float64) {
	pairs := map[string]string{
		"talc.compile":         "talc.compile_ms",
		"tnsasm.assemble":      "tnsasm.assemble_ms",
		"core.accelerate.mips": "core.accelerate_ms.mips",
		"core.accelerate.ob0":  "core.accelerate_ms.ob0",
		"codefile.write":       "codefile.write_ms",
		"codefile.read_verify": "codefile.read_verify_ms",
		"xrun.new":             "xrun.new_ms",
		"xlate.submit":         "xlate.submit_ms",
		"xlate.fetch":          "xlate.fetch_ms",
		"profsrv.push":         "profsrv.push_ms",
		"profsrv.fetch":        "profsrv.fetch_ms",
	}
	for span, metric := range pairs {
		m[metric] = lg.layers[span].meanMs()
	}
}
