package main

import (
	"fmt"
	"math/rand"
	"time"

	"tnsr/internal/backend"
	"tnsr/internal/bench"
	"tnsr/internal/obs"
	"tnsr/internal/workloads"
)

// steadyIters sizes each paper workload so one execution takes a few
// milliseconds of simulation, well above xrun.New's cost. The seed adds up
// to 5% to each image's count where that is at least one iteration.
var steadyIters = map[string]int{"dhry16": 70, "dhry32": 70, "tal": 2, "axcel": 1, "et1": 40}

// mixedET1Iters sizes the partly migrated ET1 runs: about 20 mode switches
// per iteration, so each run makes hundreds. The counts balance the two
// partial translations at roughly one run time; the seed adds 0 or 1.
var mixedET1Iters = map[string]int{"et1-user": 17, "et1-lib": 17, "et1-full": 17}

// jitter returns it plus a seeded 0-5%, at least 0 or 1 iteration.
func jitter(rng *rand.Rand, it int) int {
	return it + rng.Intn(max(it/20, 1)+1)
}

// runs is the steady and mixed workloads: translated images executed in
// seeded order, round after round. steady times a whole round (one
// operation = every image once); mixed times each execution.
type runs struct {
	seed     int64
	perRound bool
	build    func(rng *rand.Rand, w *runs, root spanRef, rec func() *obs.Recorder) error

	images []*image // executed in the window, in order
	calib  []*image // fully translated versions, run by traced checks for host rates
	refs   []*reference
	static staticStats
	phases phaseTimes

	execs      []execution // executions of the latest window
	calibExecs []execution
	round0     *counts // counters of the first complete round
	observed   observed
}

func newSteady(seed int64) *runs {
	return &runs{seed: seed, perRound: true, build: buildSteady}
}

func newMixed(seed int64) *runs {
	return &runs{seed: seed, build: buildMixed}
}

func (w *runs) setup(tr *tracer) error {
	w.images, w.calib, w.refs = nil, nil, nil
	w.static = staticStats{}
	root := tr.root("setup")
	defer root.end()
	rng := rand.New(rand.NewSource(w.seed))
	if err := w.build(rng, w, root, phaseRecorders(tr)); err != nil {
		return err
	}
	rng.Shuffle(len(w.images), func(i, j int) { w.images[i], w.images[j] = w.images[j], w.images[i] })
	return nil
}

// addImage translates t for be and adds the loaded program to the
// workload; accelUser and accelLib pick which codefiles are translated.
func (w *runs) addImage(label string, t translation, ref *reference, be backend.Backend,
	accelUser, accelLib bool, root spanRef, rec func() *obs.Recorder) (*image, error) {
	r := rec()
	user, lib, ub, lb, err := translateLoad(t, be, accelUser, accelLib, root, r)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", label, be.Name(), err)
	}
	w.phases.add(r)
	w.static.add(be.Name(), user, lib, ub, lb)
	return &image{label: label + "/" + be.Name(), backend: be.Name(),
		user: user, lib: lib, ref: ref}, nil
}

// compileRef compiles a paper workload and runs its interpreter reference.
func (w *runs) compileRef(name string, it int, root spanRef) (translation, *reference, error) {
	sp := root.child("talc.compile")
	wl, err := workloads.Build(name, it)
	sp.end()
	if err != nil {
		return translation{}, nil, err
	}
	ref, err := interpret(wl.User, wl.Lib, root)
	if err != nil {
		return translation{}, nil, err
	}
	w.refs = append(w.refs, ref)
	return translation{wl.User, wl.Lib, wl.LibSummaries}, ref, nil
}

// buildSteady is the five paper workloads, each compiled separately for
// each backend with its own seeded iteration count, fully translated.
func buildSteady(rng *rand.Rand, w *runs, root spanRef, rec func() *obs.Recorder) error {
	for _, name := range workloads.Names {
		for _, be := range backends {
			it := steadyIters[name]
			if it >= 20 {
				it = jitter(rng, it)
			}
			t, ref, err := w.compileRef(name, it, root)
			if err != nil {
				return err
			}
			img, err := w.addImage(name, t, ref, be, true, true, root, rec)
			if err != nil {
				return err
			}
			img.iters = it
			w.images = append(w.images, img)
		}
	}
	return nil
}

// buildMixed is the partly migrated system: ET1 with only the user
// codefile translated and with only the library translated, on both
// backends, plus the unhinted-XCAL adversarial program on MIPS. Fully
// translated ET1 images calibrate the simulators' host rates in traced
// runs.
func buildMixed(rng *rand.Rand, w *runs, root spanRef, rec func() *obs.Recorder) error {
	for _, c := range []struct {
		label               string
		accelUser, accelLib bool
	}{{"et1-user", true, false}, {"et1-lib", false, true}, {"et1-full", true, true}} {
		for _, be := range backends {
			it := jitter(rng, mixedET1Iters[c.label])
			t, ref, err := w.compileRef("et1", it, root)
			if err != nil {
				return err
			}
			static := w.static
			img, err := w.addImage(c.label, t, ref, be, c.accelUser, c.accelLib, root, rec)
			if err != nil {
				return err
			}
			img.iters = it
			if c.accelUser && c.accelLib {
				w.static = static // calibration images are not part of the workload
				w.calib = append(w.calib, img)
				continue
			}
			w.images = append(w.images, img)
		}
	}

	sp := root.child("tnsasm.assemble")
	adv, err := bench.AdversarialProgram()
	sp.end()
	if err != nil {
		return err
	}
	ref, err := interpret(adv, nil, root)
	if err != nil {
		return err
	}
	w.refs = append(w.refs, ref)
	img, err := w.addImage("adversarial", translation{user: adv}, ref, backends[0], true, false, root, rec)
	if err != nil {
		return err
	}
	w.images = append(w.images, img)
	return nil
}

func (w *runs) window(deadline time.Time, tr *tracer, ph *phase) {
	w.execs = w.execs[:0]
	for time.Now().Before(deadline) {
		var rc counts
		start := time.Now()
		var round spanRef
		if w.perRound {
			round = tr.root("op.round")
		}
		for _, img := range w.images {
			op := round
			if !w.perRound {
				op = tr.root("op.execution")
			}
			t := time.Now()
			e, err := execute(img, op)
			d := time.Since(t)
			if !w.perRound {
				op.end()
				ph.record(d)
			}
			ph.out.verdict(img.label, err)
			rc.add(e.counts)
			w.execs = append(w.execs, e)
		}
		if w.perRound {
			round.end()
			ph.record(time.Since(start))
		}
		if w.round0 == nil {
			w.round0 = &rc
		} else if rc != *w.round0 {
			ph.out.verdict("round counters", fmt.Errorf("round counters %+v differ from the first round's %+v", rc, *w.round0))
		}
	}
}

func (w *runs) check(o *outcome, tr *tracer) {
	if tr == nil {
		return
	}
	w.observed = observed{}
	for _, img := range w.images {
		o.verdict(img.label+" observed", observe(img, &w.observed))
	}
	w.calibExecs = w.calibExecs[:0]
	root := tr.root("check.calibrate")
	for _, img := range w.calib {
		e, err := execute(img, root)
		o.verdict(img.label, err)
		w.calibExecs = append(w.calibExecs, e)
	}
	root.end()
}

func (w *runs) endToEnd(ph *phase, m map[string]float64) {
	var refN int64
	var host time.Duration
	for _, e := range w.execs {
		refN += e.refInstrs
		host += e.runDur
	}
	m["tns_mips"] = ratio(float64(refN)/1e6, host.Seconds())
	if w.round0 != nil {
		m["sim_cycles"] = float64(w.round0.pricedCycles)
	}
	m["risc_per_tns"] = w.static.expansion()
}

func (w *runs) perLayer(ph *phase, lg *ledger, m map[string]float64) {
	var c counts
	if w.round0 != nil {
		c = *w.round0
	}
	runLayers(append(append([]execution(nil), w.execs...), w.calibExecs...), w.refs, c, w.observed, m)
	w.endToEnd(ph, m)
	w.static.metrics(m)
	spanMeans(lg, m)
	w.phases.metrics(m)
}

func (w *runs) close() {}
