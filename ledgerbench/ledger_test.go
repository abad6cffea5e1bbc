package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark command, so the
// determinism check can compare two processes.
func TestMain(m *testing.M) {
	if args := os.Getenv("LEDGERBENCH_ARGS"); args != "" {
		os.Args = append([]string{"ledgerbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, decl []metricDecl, got []struct{ Name, Unit string }) {
		if len(decl) != len(got) {
			t.Errorf("%s: %d declared metrics, BENCHMARK.json lists %d", kind, len(decl), len(got))
			return
		}
		for i, d := range decl {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: declared %s (%s), BENCHMARK.json %s (%s)",
					kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEndMetrics, b.EndToEnd)
	same("per_layer", perLayerMetrics, b.PerLayer)
	for _, w := range b.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

func TestLedgerAddsUp(t *testing.T) {
	tr := newTracer()
	root := tr.root("op")
	a := root.child("a")
	a1 := a.child("a1")
	time.Sleep(2 * time.Millisecond)
	a1.end()
	a.end()
	b := root.child("b")
	time.Sleep(time.Millisecond)
	b.end()
	root.end()
	other := tr.root("op")
	other.end()

	lg, err := tr.reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if lg.layers["a"].calls != 1 || lg.layers["a1"].calls != 1 || lg.layers["b"].calls != 1 {
		t.Fatalf("layer calls: %+v", lg.layers)
	}
	if got := lg.layers["a"].self + lg.layers["a1"].self; got != lg.layers["a"].total {
		t.Errorf("a's self %v + a1's self %v != a's duration %v",
			lg.layers["a"].self, lg.layers["a1"].self, lg.layers["a"].total)
	}
	if lg.layerSelf+lg.unattributed != lg.rootTotal {
		t.Errorf("layers %v + unattributed %v != traced %v", lg.layerSelf, lg.unattributed, lg.rootTotal)
	}

	open := tr.root("op")
	open.child("never-ended")
	open.end()
	if _, err := tr.reconcile(); err == nil {
		t.Error("reconcile accepted a span that never ended")
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := covered(p, kids); got != 40 {
		t.Errorf("covered = %d, want 40 (10..40 and 90..100)", got)
	}
}

func TestResultLine(t *testing.T) {
	m := map[string]float64{}
	for _, d := range endToEndMetrics {
		m[d.name] = 1
	}
	res, err := result(&outcome{attempted: 3}, m, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(endToEndMetrics) {
		t.Errorf("result %+v", res)
	}
	delete(m, "p50_ms")
	if _, err := result(&outcome{attempted: 3}, m, false); err == nil {
		t.Error("a missing end-to-end metric was not an error")
	}
	res, err = result(&outcome{attempted: 3, failed: 1}, map[string]float64{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || len(res.Metrics) != len(perLayerMetrics) {
		t.Errorf("traced result %+v", res)
	}
}

// detSeconds keeps the determinism runs short: counters come from whole
// rounds or check passes, never from how much of a window was used.
const detSeconds = 0.3

// runMetrics runs the benchmark in this process.
func runMetrics(t *testing.T, workload string, seed int64, traced bool) map[string]float64 {
	t.Helper()
	out, m, err := run(config{workload: workload, seed: seed, seconds: detSeconds, trace: traced, setups: 1})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if out.failed != 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %v", workload, seed, out.failed, out.attempted, out.notes)
	}
	return m
}

// runProcess runs the benchmark as a separate process and parses its
// result line.
func runProcess(t *testing.T, workload string, seed int64) map[string]float64 {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), fmt.Sprintf("LEDGERBENCH_ARGS=--workload %s --seed %d --seconds %g --trace 1 --tmp %s",
		workload, seed, detSeconds, tmpRoot))
	outb, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s seed %d in a subprocess: %v", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%s seed %d in a subprocess: %d of %d operations failed", workload, seed, res.Failed, res.Attempted)
	}
	m := map[string]float64{}
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	return m
}

// TestDeterminism is the determinism self-check: simulated cycles, static
// expansion and every count-valued layer metric repeat exactly across two
// runs and two processes with one seed, and move as the inputs do under a
// held-out seed.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload five times")
	}
	tmpRoot = t.TempDir()
	const seed, heldOut = 7, 1009
	exact := append([]string{"xrun.priced_cycles", "core.risc_per_tns"}, countMetrics...)
	for _, name := range []string{"steady", "mixed", "translate", "service"} {
		t.Run(name, func(t *testing.T) {
			a := runMetrics(t, name, seed, true)
			b := runMetrics(t, name, seed, true)
			p := runProcess(t, name, seed)
			u := runMetrics(t, name, seed, false)
			for _, k := range exact {
				if a[k] != b[k] || a[k] != p[k] {
					t.Errorf("%s: run 1 %v, run 2 %v, subprocess %v", k, a[k], b[k], p[k])
				}
			}
			for k, traced := range map[string]string{"sim_cycles": "xrun.priced_cycles", "risc_per_tns": "core.risc_per_tns"} {
				if u[k] != a[traced] {
					t.Errorf("%s: untraced %v, traced %v", k, u[k], a[traced])
				}
			}
			if u["sim_cycles"] == 0 {
				t.Error("sim_cycles is 0")
			}

			// steady and mixed draw only iteration counts from the seed,
			// so their translated code, and with it the static counts,
			// stays the same; the other workloads draw generated programs.
			staticSame := name == "steady" || name == "mixed"
			if staticSame && sameIters(t, name, seed, heldOut) {
				t.Fatalf("seeds %d and %d draw the same iteration counts; pick another held-out seed", seed, heldOut)
			}
			h := runMetrics(t, name, heldOut, true)
			for _, k := range []string{"xrun.priced_cycles", "risc.instrs"} {
				if h[k] == a[k] {
					t.Errorf("%s: seed %d and held-out seed %d both give %v", k, seed, heldOut, a[k])
				}
			}
			for _, k := range []string{"core.risc_instrs", "core.risc_per_tns"} {
				if (h[k] == a[k]) != staticSame {
					t.Errorf("%s: seed %d gives %v, held-out seed %d gives %v (want equal: %v)",
						k, seed, a[k], heldOut, h[k], staticSame)
				}
			}
		})
	}
}

// sameIters reports whether two seeds give the timed MIPS images of a runs
// workload the same iteration counts.
func sameIters(t *testing.T, name string, a, b int64) bool {
	t.Helper()
	iters := func(seed int64) map[string]int {
		w, _ := newWorkload(name, seed)
		if err := w.setup(nil); err != nil {
			t.Fatal(err)
		}
		m := map[string]int{}
		for _, img := range w.(*runs).images {
			if img.backend == "mips" {
				m[img.label] = img.iters
			}
		}
		return m
	}
	return fmt.Sprint(iters(a)) == fmt.Sprint(iters(b))
}

// TestMixedIsSwitchBound pins the workload shapes the ledger relies on:
// steady executions switch modes once, mixed ones hundreds of times.
func TestMixedIsSwitchBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads")
	}
	s := runMetrics(t, "steady", 3, true)
	if got, want := s["xrun.switches"], float64(2*5); got != want {
		t.Errorf("steady: %v switches per round, want one per execution (%v)", got, want)
	}
	m := runMetrics(t, "mixed", 3, true)
	if m["xrun.switches"] < 1000 {
		t.Errorf("mixed: %v switches per round, want thousands", m["xrun.switches"])
	}
	if m["xrun.interludes"] == 0 || m["xrun.escapes.untranslated"] == 0 || m["xrun.escapes.rp-conflict"] == 0 {
		t.Errorf("mixed: interludes %v, untranslated escapes %v, rp-conflict escapes %v",
			m["xrun.interludes"], m["xrun.escapes.untranslated"], m["xrun.escapes.rp-conflict"])
	}
}
