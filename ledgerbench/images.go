package main

import (
	"bytes"
	"fmt"
	"time"

	"tnsr/internal/backend"
	"tnsr/internal/backend/mips"
	"tnsr/internal/backend/ob0"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/millicode"
	"tnsr/internal/obs"
	"tnsr/internal/risc"
	"tnsr/internal/tns"
	"tnsr/internal/xrun"
)

// runBudget bounds every execution; no workload program comes near it.
const runBudget = 4_000_000_000

// backends are the two translation targets, in report order.
var backends = []backend.Backend{mips.Default, ob0.Default}

// reference is the pure interpreter's result for one program: the oracle
// every translated execution must match, and the instruction count that
// defines how much work the program is.
type reference struct {
	console string
	halted  bool
	trap    int
	exit    uint16
	instrs  int64
	host    time.Duration
}

// interpret runs the reference interpreter over the CISC images.
func interpret(user, lib *codefile.File, parent spanRef) (*reference, error) {
	sp := parent.child("interp.run")
	start := time.Now()
	m := interp.New(user, lib)
	err := m.Run(runBudget)
	host := time.Since(start)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("reference interpreter: %w", err)
	}
	return &reference{console: m.Console.String(), halted: m.Halted, trap: m.Trap,
		exit: m.ExitStatus, instrs: m.Prof.Instrs, host: host}, nil
}

// matches applies the fidelity contract: halt state, trap, exit status and
// console output equal the interpreter's.
func (ref *reference) matches(r *xrun.Runner) error {
	switch {
	case r.Halted != ref.halted:
		return fmt.Errorf("halted %v, reference %v", r.Halted, ref.halted)
	case r.Trap != ref.trap:
		return fmt.Errorf("trap %d, reference %d", r.Trap, ref.trap)
	case ref.trap == tns.TrapNone && r.ExitStatus != ref.exit:
		return fmt.Errorf("exit status %d, reference %d", r.ExitStatus, ref.exit)
	case r.Console() != ref.console:
		return fmt.Errorf("console %q, reference %q", r.Console(), ref.console)
	}
	return nil
}

// image is one translated program as a runner loads it.
type image struct {
	label     string
	backend   string
	iters     int // the paper workload's iteration count; 0 otherwise
	user, lib *codefile.File
	ref       *reference
}

// counts are the deterministic counters of executions; equal seeds give
// equal counts.
type counts struct {
	risc, ob0                            simCounts
	loadStalls, mdStalls, icMiss, dcMiss int64
	pricedCycles                         int64 // mips: RISC cycles + priced interludes
	allCycles, interpCycles              int64 // every backend, interludes priced
	switches, interludes, interpInstrs   int64
	refInstrs                            int64
}

type simCounts struct{ instrs, cycles int64 }

func (c *counts) add(o counts) {
	c.risc.instrs += o.risc.instrs
	c.risc.cycles += o.risc.cycles
	c.ob0.instrs += o.ob0.instrs
	c.ob0.cycles += o.ob0.cycles
	c.loadStalls += o.loadStalls
	c.mdStalls += o.mdStalls
	c.icMiss += o.icMiss
	c.dcMiss += o.dcMiss
	c.pricedCycles += o.pricedCycles
	c.allCycles += o.allCycles
	c.interpCycles += o.interpCycles
	c.switches += o.switches
	c.interludes += o.interludes
	c.interpInstrs += o.interpInstrs
	c.refInstrs += o.refInstrs
}

// execution is one program run: its counters and host times.
type execution struct {
	counts
	backend  string
	simInstr int64
	newDur   time.Duration
	runDur   time.Duration
}

// execute loads img with xrun.New and runs it to halt, checking the result
// against the reference.
func execute(img *image, parent spanRef) (execution, error) {
	e := execution{backend: img.backend}
	sp := parent.child("xrun.new")
	start := time.Now()
	r, err := xrun.New(img.user, img.lib, risc.DefaultConfig())
	e.newDur = time.Since(start)
	sp.end()
	if err != nil {
		return e, err
	}
	if r.Degraded {
		return e, fmt.Errorf("runner degraded: %s", r.DegradedReason)
	}
	sp = parent.child("xrun.run." + img.backend)
	start = time.Now()
	err = r.Run(runBudget)
	e.runDur = time.Since(start)
	sp.end()
	if err != nil {
		return e, err
	}
	e.fill(r, img)
	return e, img.ref.matches(r)
}

func (e *execution) fill(r *xrun.Runner, img *image) {
	e.simInstr = r.Sim.Instrs
	total, _, interlude := r.Cycles()
	e.allCycles, e.interpCycles = int64(total), int64(interlude)
	switch img.backend {
	case "mips":
		e.risc = simCounts{r.Sim.Instrs, r.Sim.Cycles}
		e.pricedCycles = int64(total)
		if s, ok := r.BackendSim().(*risc.Sim); ok {
			e.loadStalls, e.mdStalls = s.LoadStalls, s.MDStalls
			e.icMiss, e.dcMiss = s.ICacheMisses, s.DCacheMisses
		}
	default:
		e.ob0 = simCounts{r.Sim.Instrs, r.Sim.Cycles}
	}
	e.switches = int64(r.Switches)
	e.interludes = int64(r.Interludes)
	e.interpInstrs = r.InterludeProf.Instrs
	e.refInstrs = img.ref.instrs
}

// observed is the Runner.Observe report summed over one pass of images.
type observed struct {
	lookups, hits int64
	escapes       [obs.NumEscapeReasons]int64
}

// observe runs img once with the obs recorder attached (traced runs only:
// the recorder's per-instruction hooks would distort host timings).
func observe(img *image, o *observed) error {
	r, err := xrun.New(img.user, img.lib, risc.DefaultConfig())
	if err != nil {
		return err
	}
	rec := obs.NewRecorder()
	r.Observe(rec)
	if err := r.Run(runBudget); err != nil {
		return err
	}
	rep := r.Report(rec)
	o.lookups += rep.PMap.Lookups
	o.hits += rep.PMap.Hits
	for _, ec := range rep.Escapes {
		if reason, ok := obs.ReasonFromName(ec.Reason); ok {
			o.escapes[reason] += ec.Count
		}
	}
	return img.ref.matches(r)
}

// hostRates derives per-instruction host costs from executions: each
// simulator's from runs that stayed translated (at most one switch), the
// interpreter's from the reference runs.
type hostRates struct {
	simNs    map[string]float64
	interpNs float64
}

func rates(execs []execution, refs []*reference) hostRates {
	hr := hostRates{simNs: map[string]float64{}}
	dur := map[string]time.Duration{}
	n := map[string]int64{}
	for _, e := range execs {
		if e.switches <= 1 && e.interpInstrs == 0 && e.simInstr > 0 {
			dur[e.backend] += e.runDur
			n[e.backend] += e.simInstr
		}
	}
	for be := range dur {
		hr.simNs[be] = float64(dur[be]) / float64(n[be])
	}
	var ih time.Duration
	var ii int64
	for _, r := range refs {
		ih += r.host
		ii += r.instrs
	}
	hr.interpNs = ratio(float64(ih), float64(ii))
	return hr
}

// switchCost is the host time per mode switch left after subtracting the
// simulator and interpreter time the executions' instruction counts imply,
// and the share of the executions' run time those switches take.
func (hr hostRates) switchCost(execs []execution) (us, share float64) {
	var resid, run float64
	var sw int64
	for _, e := range execs {
		run += float64(e.runDur)
		if e.switches == 0 {
			continue
		}
		resid += float64(e.runDur) - float64(e.simInstr)*hr.simNs[e.backend] -
			float64(e.interpInstrs)*hr.interpNs
		sw += e.switches
	}
	return ratio(resid, float64(sw)) / 1e3, ratio(resid, run)
}

// runLayers fills the execution-side per-layer metrics.
func runLayers(execs []execution, refs []*reference, c counts, o observed, m map[string]float64) {
	hr := rates(execs, refs)
	m["risc.ns_per_instr"] = hr.simNs["mips"]
	m["ob0.ns_per_instr"] = hr.simNs["ob0"]
	m["interp.ns_per_instr"] = hr.interpNs
	m["xrun.switch_us"], m["xrun.switch_share"] = hr.switchCost(execs)
	m["risc.instrs"] = float64(c.risc.instrs)
	m["risc.cycles"] = float64(c.risc.cycles)
	m["risc.cpi"] = ratio(float64(c.risc.cycles), float64(c.risc.instrs))
	m["risc.load_stalls"] = float64(c.loadStalls)
	m["risc.md_stalls"] = float64(c.mdStalls)
	m["risc.icache_misses"] = float64(c.icMiss)
	m["risc.dcache_misses"] = float64(c.dcMiss)
	m["ob0.instrs"] = float64(c.ob0.instrs)
	m["ob0.cycles"] = float64(c.ob0.cycles)
	m["xrun.switches"] = float64(c.switches)
	m["xrun.interludes"] = float64(c.interludes)
	m["xrun.interp_fraction"] = ratio(float64(c.interpCycles), float64(c.allCycles))
	m["xrun.pmap_exact_ratio"] = ratio(float64(o.hits), float64(o.lookups))
	for r := obs.EscapeReason(0); r < obs.NumEscapeReasons; r++ {
		m["xrun.escapes."+r.String()] = float64(o.escapes[r])
	}
}

// checkPasses is how many times translate and service run their corpus
// after the window.
const checkPasses = 5

// rateFor is how long translate and service then run the corpus's paper
// workloads alone, pass after pass; their tns_mips is the median pass's.
// The generated programs are small and escape-heavy, so their share of the
// host time would make the rate depend on what the seed drew.
const rateFor = 3 * time.Second

// checkRuns is the post-window execution of a corpus: every image run to
// halt against its reference, checkPasses times.
type checkRuns struct {
	execs    []execution // every pass
	first    counts      // the first pass; later passes must repeat it
	mips     []float64   // tns_mips per pass
	observed observed
}

func runChecks(imgs []*image, o *outcome, tr *tracer) *checkRuns {
	cr := &checkRuns{}
	for pass := 0; pass < checkPasses; pass++ {
		root := tr.root("check.run")
		var c counts
		for _, img := range imgs {
			e, err := execute(img, root)
			o.verdict(img.label+" run", err)
			cr.execs = append(cr.execs, e)
			c.add(e.counts)
		}
		root.end()
		if pass == 0 {
			cr.first = c
		} else if c != cr.first {
			o.verdict("check counters", fmt.Errorf("pass %d counters %+v differ from the first pass's %+v", pass, c, cr.first))
		}
	}
	for start := time.Now(); len(cr.mips) == 0 || time.Since(start) < rateFor; {
		var refN int64
		var host time.Duration
		for _, img := range imgs {
			if img.iters == 0 {
				continue
			}
			e, err := execute(img, spanRef{})
			o.verdict(img.label+" rate run", err)
			refN += e.refInstrs
			host += e.runDur
		}
		cr.mips = append(cr.mips, ratio(float64(refN)/1e6, host.Seconds()))
	}
	if tr != nil {
		for _, img := range imgs {
			o.verdict(img.label+" observed", observe(img, &cr.observed))
		}
	}
	return cr
}

// endToEnd reports the check runs' throughput and simulated MIPS cycles,
// and the corpus's static expansion.
func (cr *checkRuns) endToEnd(static staticStats, m map[string]float64) {
	m["tns_mips"] = median(cr.mips)
	m["sim_cycles"] = float64(cr.first.pricedCycles)
	m["risc_per_tns"] = static.expansion()
}

func (cr *checkRuns) perLayer(refs []*reference, static staticStats, lg *ledger, m map[string]float64) {
	runLayers(cr.execs, refs, cr.first, cr.observed, m)
	cr.endToEnd(static, m)
	static.metrics(m)
	spanMeans(lg, m)
}

// staticStats sums the acceleration statistics of translated codefiles.
type staticStats struct {
	mipsRISC, mipsTNS int64 // Table 3's expansion, MIPS only
	riscInstrs        int64 // every target
	bytes, files      int64 // written codefile sizes
}

// add accounts one translated program: its loaded codefiles and the bytes
// they were read from.
func (s *staticStats) add(be string, user, lib *codefile.File, ub, lb []byte) {
	for _, f := range []*codefile.File{user, lib} {
		if f == nil || f.Accel == nil {
			continue
		}
		st := f.Accel.Stats
		s.riscInstrs += int64(st.RISCInstrs)
		if be == "mips" {
			s.mipsRISC += int64(st.RISCInstrs)
			s.mipsTNS += int64(st.TNSInstrs)
		}
	}
	s.bytes += int64(len(ub) + len(lb))
	s.files++
}

func (s *staticStats) metrics(m map[string]float64) {
	m["core.risc_instrs"] = float64(s.riscInstrs)
	m["codefile.bytes"] = ratio(float64(s.bytes), float64(s.files))
}

func (s *staticStats) expansion() float64 {
	return ratio(float64(s.mipsRISC), float64(s.mipsTNS))
}

// phaseRecorders returns a source of translator phase recorders: a fresh
// one per translation in traced runs, none otherwise.
func phaseRecorders(tr *tracer) func() *obs.Recorder {
	if tr == nil {
		return func() *obs.Recorder { return nil }
	}
	return obs.NewRecorder
}

// phaseTimes accumulates core.Options.Obs phase timings.
type phaseTimes struct {
	dur   map[string]time.Duration
	calls int64
}

func (p *phaseTimes) add(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	if p.dur == nil {
		p.dur = map[string]time.Duration{}
	}
	for _, ph := range rec.Report().Phases {
		p.dur[ph.Phase] += time.Duration(ph.Seconds * float64(time.Second))
	}
	p.calls++
}

func (p *phaseTimes) metrics(m map[string]float64) {
	for _, name := range phaseNames {
		if p.calls > 0 {
			m["core.phase."+name+"_ms"] = float64(p.dur[name]) / float64(p.calls) / 1e6
		}
	}
}

// translation is one program's source-side inputs, compiled.
type translation struct {
	user, lib *codefile.File
	summaries map[uint16]int8
}

// translateLoad translates t for be in place, writes the codefiles, reads
// them back through the integrity gates and re-verifies the acceleration
// sections, as a translated program travels from axcel to tnsrun. Which
// codefiles are accelerated is chosen by accelUser/accelLib. rec, when
// non-nil, collects translator phase timings.
func translateLoad(t translation, be backend.Backend, accelUser, accelLib bool,
	parent spanRef, rec *obs.Recorder) (user, lib *codefile.File, ub, lb []byte, err error) {

	name := be.Name()
	if accelLib && t.lib != nil {
		sp := parent.child("core.accelerate." + name)
		err = core.Accelerate(t.lib, core.Options{Level: codefile.LevelDefault, Backend: be,
			CodeBase: millicode.LibCodeBase, Space: 1, Obs: rec})
		sp.end()
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("accelerate library: %w", err)
		}
	} else if t.lib != nil {
		t.lib.Accel = nil
	}
	if accelUser {
		sp := parent.child("core.accelerate." + name)
		err = core.Accelerate(t.user, core.Options{Level: codefile.LevelDefault, Backend: be,
			LibSummaries: t.summaries, Obs: rec})
		sp.end()
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("accelerate: %w", err)
		}
	} else {
		t.user.Accel = nil
	}

	var ubuf, lbuf bytes.Buffer
	sp := parent.child("codefile.write")
	_, err = t.user.WriteTo(&ubuf)
	if err == nil && t.lib != nil {
		_, err = t.lib.WriteTo(&lbuf)
	}
	sp.end()
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("write codefile: %w", err)
	}
	ub, lb = ubuf.Bytes(), lbuf.Bytes()

	sp = parent.child("codefile.read_verify")
	user, err = readVerify(ub, millicode.UserCodeBase)
	if err == nil && t.lib != nil {
		lib, err = readVerify(lb, millicode.LibCodeBase)
	}
	sp.end()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return user, lib, ub, lb, nil
}

// readVerify parses codefile bytes (checksums, strict EOF) and re-proves
// the acceleration section's structural invariants.
func readVerify(data []byte, base int) (*codefile.File, error) {
	f, err := codefile.Read(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("read codefile: %w", err)
	}
	if f.Accel != nil {
		if err := f.Accel.Verify(f, base); err != nil {
			return nil, fmt.Errorf("verify codefile: %w", err)
		}
	}
	return f, nil
}
