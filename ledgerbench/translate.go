package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"tnsr/internal/obs"
	"tnsr/internal/risc"
	"tnsr/internal/tnsasm"
	"tnsr/internal/tnsgen"
	"tnsr/internal/workloads"
	"tnsr/internal/xrun"
)

// corpusSize is the translate and service corpus: the five paper
// workloads plus generated programs. Per-program translation latency is a
// mixture over the corpus, so it needs enough programs that its 95th
// percentile falls inside the generated programs' tail, not on one of the
// few slowest programs.
const corpusSize = 96

// source is one corpus program before compilation: a paper workload (talc)
// or a generated program (tnsasm).
type source struct {
	name     string
	workload string
	iters    int
	user     string // generated assembly
	lib      string
}

// corpusSource is the k-th program of the translate corpus: the five paper
// workloads, then generated programs, two in the full adversarial shape
// for each one in the user+library shape.
func corpusSource(seed int64, k int, parent spanRef) source {
	if k < len(workloads.Names) {
		name := workloads.Names[k]
		return source{name: name, workload: name, iters: steadyIters[name]}
	}
	cfg := tnsgen.FullConfig()
	if k%3 == 0 {
		cfg = tnsgen.Config{Library: true}
	}
	sp := parent.child("tnsgen.generate")
	p := tnsgen.Generate(fmt.Sprintf("g%d", k), seed*1_000_003+int64(k), cfg)
	src := source{name: p.Name, user: p.UserSource(), lib: p.LibSource()}
	sp.end()
	return src
}

// compile turns a source into codefiles with talc or tnsasm.
func (s source) compile(parent spanRef) (translation, error) {
	if s.workload != "" {
		sp := parent.child("talc.compile")
		wl, err := workloads.Build(s.workload, s.iters)
		sp.end()
		if err != nil {
			return translation{}, err
		}
		return translation{wl.User, wl.Lib, wl.LibSummaries}, nil
	}
	sp := parent.child("tnsasm.assemble")
	defer sp.end()
	user, err := tnsasm.Assemble(s.name, s.user)
	if err != nil {
		return translation{}, fmt.Errorf("%s: %w", s.name, err)
	}
	t := translation{user: user}
	if s.lib != "" {
		t.lib, err = tnsasm.Assemble(s.name+"-lib", s.lib)
		if err != nil {
			return translation{}, fmt.Errorf("%s library: %w", s.name, err)
		}
		t.summaries = map[uint16]int8{}
		for i, p := range t.lib.Procs {
			t.summaries[uint16(i)] = p.ResultWords
		}
	}
	return t, nil
}

// corpusProgram is a compiled corpus entry with its oracle data.
type corpusProgram struct {
	src    source
	ref    *reference
	want   [2][]byte // first translation's codefile bytes per backend
	images [2]*image
}

// translateW is the local source → talc/tnsasm → axcel → load path. One
// operation compiles a corpus program, translates it cold for both
// backends, writes, reads back, verifies and loads it with xrun.New.
type translateW struct {
	seed   int64
	corpus []*corpusProgram
	order  []int
	next   int
	static staticStats
	phases phaseTimes

	checks *checkRuns
}

func newTranslate(seed int64) *translateW { return &translateW{seed: seed} }

func (w *translateW) setup(tr *tracer) error {
	w.corpus, w.static = nil, staticStats{}
	root := tr.root("setup")
	defer root.end()
	for k := 0; k < corpusSize; k++ {
		src := corpusSource(w.seed, k, root)
		t, err := src.compile(root)
		if err != nil {
			return err
		}
		ref, err := interpret(t.user, t.lib, root)
		if err != nil {
			return fmt.Errorf("%s: %w", src.name, err)
		}
		cp := &corpusProgram{src: src, ref: ref}
		for i, be := range backends {
			user, lib, ub, lb, err := translateLoad(t, be, true, true, root, nil)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", src.name, be.Name(), err)
			}
			cp.want[i] = append(append([]byte(nil), ub...), lb...)
			cp.images[i] = &image{label: src.name + "/" + be.Name(), backend: be.Name(),
				iters: src.iters, user: user, lib: lib, ref: ref}
			w.static.add(be.Name(), user, lib, ub, lb)
		}
		w.corpus = append(w.corpus, cp)
	}
	w.order = rand.New(rand.NewSource(w.seed)).Perm(len(w.corpus))
	return nil
}

// op runs the whole path for one program and checks that every backend's
// codefile bytes equal the first translation's.
func (w *translateW) op(cp *corpusProgram, root spanRef, rec func() *obs.Recorder) error {
	t, err := cp.src.compile(root)
	if err != nil {
		return err
	}
	for i, be := range backends {
		r := rec()
		user, lib, ub, lb, err := translateLoad(t, be, true, true, root, r)
		if err != nil {
			return fmt.Errorf("%s: %w", be.Name(), err)
		}
		w.phases.add(r)
		sp := root.child("xrun.new")
		_, err = xrun.New(user, lib, risc.DefaultConfig())
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: load: %w", be.Name(), err)
		}
		if got := append(append([]byte(nil), ub...), lb...); !bytes.Equal(got, cp.want[i]) {
			return fmt.Errorf("%s: codefile bytes differ from the first translation", be.Name())
		}
	}
	return nil
}

func (w *translateW) window(deadline time.Time, tr *tracer, ph *phase) {
	rec := phaseRecorders(tr)
	for time.Now().Before(deadline) {
		cp := w.corpus[w.order[w.next%len(w.order)]]
		w.next++
		root := tr.root("op.translate")
		start := time.Now()
		err := w.op(cp, root, rec)
		d := time.Since(start)
		root.end()
		ph.record(d)
		ph.out.verdict(cp.src.name, err)
	}
}

// check runs every corpus program to halt on both backends against its
// interpreter reference.
func (w *translateW) check(o *outcome, tr *tracer) {
	var imgs []*image
	for _, cp := range w.corpus {
		imgs = append(imgs, cp.images[:]...)
	}
	w.checks = runChecks(imgs, o, tr)
}

func (w *translateW) endToEnd(ph *phase, m map[string]float64) {
	w.checks.endToEnd(w.static, m)
}

func (w *translateW) perLayer(ph *phase, lg *ledger, m map[string]float64) {
	refs := make([]*reference, len(w.corpus))
	for i, cp := range w.corpus {
		refs[i] = cp.ref
	}
	w.checks.perLayer(refs, w.static, lg, m)
	w.phases.metrics(m)
}

func (w *translateW) close() {}
