// Command ledgerbench is the tnsr performance ledger: one command that runs
// a named workload against the toolchain's public packages, checks every
// output against an independent reference, and prints end-to-end metrics
// (untraced) or per-layer metrics (traced) as one JSON line.
//
// Usage:
//
//	ledgerbench --workload steady|mixed|translate|service \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// Diagnostics go to standard error. The exit status is 0 whenever a result
// line was printed, even with failures counted in it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times a run builds its workload; setup_s is the
// median, so one slow build does not move it.
const setupReps = 7

// workload is one benchmark input set. setup builds everything a timed
// window needs and may be called repeatedly; the last build is used.
// window runs operations until the deadline, check runs the post-window
// oracle work, and the metric methods report from what was recorded.
type workload interface {
	setup(tr *tracer) error
	window(deadline time.Time, tr *tracer, ph *phase)
	check(o *outcome, tr *tracer)
	endToEnd(ph *phase, m map[string]float64)
	perLayer(ph *phase, lg *ledger, m map[string]float64)
	close()
}

// phase is what one timed window recorded.
type phase struct {
	mu      sync.Mutex
	lat     []time.Duration // one per operation the latency metrics cover
	ops     int64           // every completed client operation (ops_per_s)
	elapsed time.Duration
	alloc   uint64    // heap bytes allocated during the window
	rss     []float64 // resident set samples, MB
	out     *outcome
}

// record adds one operation the latency metrics cover.
func (ph *phase) record(d time.Duration) {
	ph.mu.Lock()
	ph.lat = append(ph.lat, d)
	ph.ops++
	ph.mu.Unlock()
}

// count adds one operation outside the latency metrics.
func (ph *phase) count() {
	ph.mu.Lock()
	ph.ops++
	ph.mu.Unlock()
}

// outcome counts oracle verdicts over a whole run.
type outcome struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	notes     []string
}

// verdict records one attempted operation; a non-nil err counts it failed.
func (o *outcome) verdict(what string, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.notes) < 8 {
			o.notes = append(o.notes, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	setups   int
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "steady":
		return newSteady(seed), nil
	case "mixed":
		return newMixed(seed), nil
	case "translate":
		return newTranslate(seed), nil
	case "service":
		return newService(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have steady, mixed, translate, service)", name)
}

// rssEvery is the resident-set sampling period during a window.
const rssEvery = 10 * time.Millisecond

// warmup is how long a run executes its workload untimed before the timed
// windows, at most a tenth of the window, so timing starts with a grown heap
// and warm caches.
const warmup = time.Second

// p95Stretches is how many consecutive stretches of the timed window p95_ms
// is read over. A stall of the shared host only ever adds time, so the
// stretch with the lowest 95th percentile is the closest reading of the
// program's own tail; over the whole window, the host's stalls set it.
const p95Stretches = 5

// minStretch is the fewest samples a stretch may hold; short windows use
// fewer stretches.
const minStretch = 20

// timedWindow runs one window of w and fills the phase totals.
func timedWindow(w workload, d time.Duration, tr *tracer, out *outcome) *phase {
	ph := &phase{out: out}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				ph.rss = append(ph.rss, rssMB())
			}
		}
	}()
	start := time.Now()
	w.window(start.Add(d), tr, ph)
	ph.elapsed = time.Since(start)
	close(stop)
	wg.Wait()
	runtime.ReadMemStats(&m1)
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc
	return ph
}

// run executes one benchmark invocation and returns the metrics to print.
func run(cfg config) (*outcome, map[string]float64, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	setups := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		if err := w.setup(tr); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out := &outcome{}
	window := time.Duration(cfg.seconds * float64(time.Second))
	w.window(time.Now().Add(min(warmup, window/10)), nil, &phase{out: out})
	m := map[string]float64{}
	if !cfg.trace {
		ph := timedWindow(w, window, nil, out)
		w.check(out, nil)
		if len(ph.lat) == 0 {
			return nil, nil, fmt.Errorf("no operation completed in %v", window)
		}
		m["p95_ms"] = ms(quietQuantile(ph.lat, 0.95))
		sort.Slice(ph.lat, func(i, j int) bool { return ph.lat[i] < ph.lat[j] })
		m["setup_s"] = median(setups)
		m["p50_ms"] = ms(quantile(ph.lat, 0.50))
		m["ops_per_s"] = float64(ph.ops) / ph.elapsed.Seconds()
		m["alloc_mb"] = float64(ph.alloc) / (1 << 20) / float64(ph.ops)
		m["rss_mb"] = median(ph.rss)
		m["ok_ratio"] = ratio(float64(out.attempted-out.failed), float64(out.attempted))
		w.endToEnd(ph, m)
		k := stretches(len(ph.lat))
		fmt.Fprintf(os.Stderr, "ledgerbench: %s seed %d: %d latency samples in %d stretches (each p95 has %d beyond it), %d ops in %.2fs\n",
			cfg.workload, cfg.seed, len(ph.lat), k, (len(ph.lat)/k)-int(math.Ceil(0.95*float64(len(ph.lat)/k))),
			ph.ops, ph.elapsed.Seconds())
	} else {
		// Half the window untraced, half traced: the difference in time
		// per operation is the tracing overhead.
		base := timedWindow(w, window/2, nil, out)
		ph := timedWindow(w, window/2, tr, out)
		w.check(out, tr)
		lg, err := tr.reconcile()
		if err != nil {
			return nil, nil, err
		}
		for name, st := range lg.layers {
			m["self_ms."+name] = float64(st.self) / 1e6
		}
		m["ledger.traced_ms"] = float64(lg.rootTotal) / 1e6
		m["ledger.layer_self_ms"] = float64(lg.layerSelf) / 1e6
		m["unattributed_ms"] = float64(lg.unattributed) / 1e6
		m["trace.spans"] = float64(lg.spans)
		m["proc.peak_rss_mb"] = peakRSSMB()
		if base.ops > 0 && ph.ops > 0 {
			perBase := base.elapsed.Seconds() / float64(base.ops)
			perTraced := ph.elapsed.Seconds() / float64(ph.ops)
			m["trace.overhead_pct"] = 100 * (perTraced - perBase) / perBase
		}
		w.perLayer(ph, lg, m)
		for from, to := range tracedNames {
			m[to] = m[from]
		}
		if cfg.traceDir != "" {
			name := fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)
			if err := tr.write(cfg.traceDir, name); err != nil {
				return nil, nil, fmt.Errorf("write trace: %w", err)
			}
		}
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "ledgerbench: FAIL", n)
	}
	return out, m, nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result assembles the printed line: exactly the declared metrics of the
// mode, each with its unit. An end-to-end metric the run did not produce is
// an error; a per-layer metric of a layer the workload never calls is 0.
func result(out *outcome, m map[string]float64, traced bool) (*resultJSON, error) {
	decl := endToEndMetrics
	if traced {
		decl = perLayerMetrics
	}
	res := &resultJSON{Correct: out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricJSON{}}
	for _, d := range decl {
		v, ok := m[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return res, nil
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "write the traced run's spans here as JSON lines")
	flag.StringVar(&tmpRoot, "tmp", tmpRoot, "directory for the service workloads' stores")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.setups = setupReps
	if cfg.workload == "" || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: ledgerbench --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	out, m, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(1)
	}
	res, err := result(out, m, cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// --- small numeric helpers ---------------------------------------------------

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of sorted samples by linear
// interpolation between closest ranks.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

// stretches is how many stretches n samples are split into: p95Stretches,
// fewer if a stretch would hold under minStretch samples, at least one.
func stretches(n int) int {
	return max(min(p95Stretches, n/minStretch), 1)
}

// quietQuantile splits samples, in completion order, into stretches and
// returns the lowest of their q-quantiles.
func quietQuantile(samples []time.Duration, q float64) time.Duration {
	k := stretches(len(samples))
	var lowest time.Duration
	for b := 0; b < k; b++ {
		s := append([]time.Duration(nil), samples[b*len(samples)/k:(b+1)*len(samples)/k]...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		if v := quantile(s, q); b == 0 || v < lowest {
			lowest = v
		}
	}
	return lowest
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rssMB reads the process's current resident set size in MB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	fmt.Sscanf(string(data), "%d %d", &size, &resident)
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
