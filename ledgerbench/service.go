package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/pgo"
	"tnsr/internal/profsrv"
	"tnsr/internal/store"
	"tnsr/internal/tcache"
	"tnsr/internal/xlate"
)

const (
	// clients is the closed-loop client count: the machine's two cores.
	clients = 2
	// serviceProfiles is how many captured profiles the clients push.
	serviceProfiles = 4
	serviceToken    = "ledger"
)

// tmpRoot is where the service workload keeps its daemons' stores.
var tmpRoot = ".bench_build/tmp"

// svcEntry is one codefile the clients submit.
type svcEntry struct {
	src  source
	t    translation
	opts core.Options
}

// submission is one completed remote translation: the grafted codefile's
// hash, checked against a local translation after the window.
type submission struct {
	entry *svcEntry
	sum   [32]byte
}

// serviceW runs tnsxlated and tnsprofd in-process. Setup translates the
// corpus once through the service (the cold pass: translate + store put);
// the window's two closed-loop clients resubmit it (the cached pass: store
// get + verify), pushing a captured profile and fetching its aggregate
// between submissions. Traced runs add a cold pass over fresh codefiles at
// the clients' default pacing, reported per layer.
type serviceW struct {
	seed int64

	dir      string
	xsrv     *xlate.Server
	servers  []*http.Server
	serving  sync.WaitGroup
	xbase    string
	pbase    string
	xstore   *timedStore
	rt       *timedTransport
	entries  []*svcEntry
	profiles []*pgo.Profile
	fps      []string

	next        atomic.Int64
	mu          sync.Mutex
	submissions []submission

	// deltas over the latest window
	storeStats storeStats
	requests   int64
	submits    int64
	cold       coldPass

	static staticStats
	refs   []*reference
	checks *checkRuns
}

// coldPass is what the traced runs' default-paced cold submissions
// recorded.
type coldPass struct {
	lat      []time.Duration
	requests int64
	queue    xlate.QueueStats
	store    storeStats
}

func newService(seed int64) *serviceW { return &serviceW{seed: seed} }

func (w *serviceW) setup(tr *tracer) error {
	w.close()
	root := tr.root("setup")
	err := w.build(root)
	root.end()
	if err != nil {
		return err
	}
	if err := w.warm(tr); err != nil {
		return err
	}
	w.next.Store(0)
	w.submissions = w.submissions[:0]
	return nil
}

// build starts the daemons over a fresh store, compiles the corpus and
// captures the profiles the clients will push.
func (w *serviceW) build(root spanRef) error {
	if err := os.MkdirAll(tmpRoot, 0o777); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "service-")
	if err != nil {
		return err
	}
	w.dir = dir
	xst, err := store.OpenDir(dir + "/xlate")
	if err != nil {
		return err
	}
	w.xstore = &timedStore{Storage: xst}
	w.xsrv = xlate.New(xlate.Config{Cache: tcache.New(w.xstore), Token: serviceToken})
	pst, err := profsrv.OpenStore(dir + "/profiles")
	if err != nil {
		return err
	}
	psrv := profsrv.New(profsrv.Config{Store: pst, Token: serviceToken})
	if w.xbase, err = w.serve(w.xsrv); err != nil {
		return err
	}
	if w.pbase, err = w.serve(psrv); err != nil {
		return err
	}
	w.rt = &timedTransport{base: http.DefaultTransport}

	if w.entries, err = compileEntries(w.seed, 0, corpusSize, root); err != nil {
		return err
	}
	w.profiles, w.fps = w.profiles[:0], w.fps[:0]
	for _, e := range w.entries[:serviceProfiles] {
		p, err := capture(e.t, root)
		if err != nil {
			return err
		}
		fp, err := profsrv.UserFingerprint(p)
		if err != nil {
			return err
		}
		w.profiles = append(w.profiles, p)
		w.fps = append(w.fps, fp)
	}
	return nil
}

// compileEntries compiles corpus programs [from, to) as submissions: the
// user codefile, with the library's result sizes as summaries.
func compileEntries(seed int64, from, to int, root spanRef) ([]*svcEntry, error) {
	var out []*svcEntry
	for k := from; k < to; k++ {
		src := corpusSource(seed, k, root)
		t, err := src.compile(root)
		if err != nil {
			return nil, err
		}
		out = append(out, &svcEntry{src: src, t: t,
			opts: core.Options{Level: codefile.LevelDefault, LibSummaries: t.summaries}})
	}
	return out, nil
}

// warm is the cold pass: every corpus codefile translated once through the
// service, so the window's submissions are store hits. Setup polls every
// millisecond instead of the clients' default pacing, so it spends its
// time translating, not waiting.
func (w *serviceW) warm(tr *tracer) error {
	return w.submitAll(w.entries, tr, "setup.warm", time.Millisecond, nil)
}

// submitAll submits entries through two clients, one span tree per
// submission. poll, when nonzero, overrides the clients' result pacing;
// record, when non-nil, receives each submission's latency and result.
func (w *serviceW) submitAll(entries []*svcEntry, tr *tracer, op string, poll time.Duration,
	record func(e *svcEntry, f *codefile.File, d time.Duration)) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := w.client()
			if poll > 0 {
				cl.PollInterval = poll
			}
			for i := c; i < len(entries); i += clients {
				f := *entries[i].t.user
				f.Accel = nil
				root := tr.root(op)
				sp := root.child("xlate.accelerate")
				start := time.Now()
				err := cl.AccelerateContext(withSpan(context.Background(), sp), &f, entries[i].opts)
				d := time.Since(start)
				sp.end()
				root.end()
				if err != nil {
					errs[c] = fmt.Errorf("%s: %w", entries[i].src.name, err)
					return
				}
				if record != nil {
					record(entries[i], &f, d)
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// serve starts h on a loopback listener and returns its base URL.
func (w *serviceW) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	w.servers = append(w.servers, srv)
	w.serving.Add(1)
	go func() {
		defer w.serving.Done()
		srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// client builds a translation client exactly as axcel -remote does, with
// the timing transport observing its requests.
func (w *serviceW) client() *xlate.Client {
	cl := xlate.NewClient(w.xbase, serviceToken)
	cl.HTTPClient.Transport = w.rt
	return cl
}

// capture records a PGO profile of one interpreted run.
func capture(t translation, parent spanRef) (*pgo.Profile, error) {
	sp := parent.child("interp.run")
	defer sp.end()
	c := pgo.NewCapture()
	c.AttachFiles(t.user, t.lib)
	m := interp.New(t.user, t.lib)
	m.PGO = c
	if err := m.Run(runBudget); err != nil {
		return nil, err
	}
	return c.Profile(), nil
}

func (w *serviceW) window(deadline time.Time, tr *tracer, ph *phase) {
	st0, rq0 := w.xstore.snapshot(), w.rt.requests.Load()
	var submits atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.clientLoop(deadline, tr, ph, &submits)
		}()
	}
	wg.Wait()
	w.storeStats = w.xstore.snapshot().sub(st0)
	w.requests = w.rt.requests.Load() - rq0
	w.submits = submits.Load()
}

// clientLoop is one closed-loop client: submit a codefile and wait for the
// verified result, push a captured profile, fetch its aggregate, repeat.
func (w *serviceW) clientLoop(deadline time.Time, tr *tracer, ph *phase, submits *atomic.Int64) {
	cl := w.client()
	pc := profsrv.NewClient(w.pbase, serviceToken)
	ctx := context.Background()
	for time.Now().Before(deadline) {
		k := int(w.next.Add(1) - 1)
		e := w.entries[k%len(w.entries)]
		f := *e.t.user
		f.Accel = nil
		root := tr.root("op.submit")
		sp := root.child("xlate.accelerate")
		start := time.Now()
		err := cl.AccelerateContext(withSpan(ctx, sp), &f, e.opts)
		d := time.Since(start)
		sp.end()
		root.end()
		ph.record(d)
		submits.Add(1)
		if err != nil {
			ph.out.verdict(e.src.name+" submit", err)
		} else {
			w.addSubmission(e, &f)
		}

		j := k % len(w.profiles)
		root = tr.root("op.push")
		sp = root.child("profsrv.push")
		agg, err := pc.PushContext(ctx, w.profiles[j])
		sp.end()
		root.end()
		ph.count()
		ph.out.verdict("profile push", w.expectProfile(agg, err, j))

		root = tr.root("op.fetch")
		sp = root.child("profsrv.fetch")
		got, err := pc.FetchContext(ctx, w.fps[j])
		sp.end()
		root.end()
		ph.count()
		ph.out.verdict("profile fetch", w.expectProfile(got, err, j))
	}
}

// addSubmission keeps the hash of a served, grafted codefile for check.
func (w *serviceW) addSubmission(e *svcEntry, f *codefile.File) {
	var buf bytes.Buffer
	f.WriteTo(&buf)
	w.mu.Lock()
	w.submissions = append(w.submissions, submission{entry: e, sum: sha256.Sum256(buf.Bytes())})
	w.mu.Unlock()
}

// coldProbe submits corpusSize codefiles the store has never seen with the
// clients' default pacing: the cold path's latency, its request count and
// how often the first fetch already finds the result, plus the queue and
// store work behind it.
func (w *serviceW) coldProbe(tr *tracer) error {
	entries, err := compileEntries(w.seed, corpusSize, 2*corpusSize, spanRef{})
	if err != nil {
		return err
	}
	st0, rq0, q0 := w.xstore.snapshot(), w.rt.requests.Load(), w.xsrv.Queue().Stats()
	var mu sync.Mutex
	cp := coldPass{}
	err = w.submitAll(entries, tr, "op.cold_submit", 0, func(e *svcEntry, f *codefile.File, d time.Duration) {
		w.addSubmission(e, f)
		mu.Lock()
		cp.lat = append(cp.lat, d)
		mu.Unlock()
	})
	if err != nil {
		return err
	}
	q1 := w.xsrv.Queue().Stats()
	cp.queue = xlate.QueueStats{Steals: q1.Steals - q0.Steals, Executed: q1.Executed - q0.Executed}
	cp.store = w.xstore.snapshot().sub(st0)
	cp.requests = w.rt.requests.Load() - rq0
	w.cold = cp
	return nil
}

// expectProfile checks a served aggregate: it strict-parsed (the client
// refuses anything else) and carries the pushed capture's fingerprint.
func (w *serviceW) expectProfile(p *pgo.Profile, err error, j int) error {
	if err != nil {
		return err
	}
	if p == nil {
		return fmt.Errorf("no aggregate for %s", w.fps[j])
	}
	fp, err := profsrv.UserFingerprint(p)
	if err != nil {
		return err
	}
	if fp != w.fps[j] {
		return fmt.Errorf("aggregate fingerprint %s, want %s", fp, w.fps[j])
	}
	return nil
}

// check translates every submitted codefile locally and requires the
// service's bytes to be identical, then runs the corpus (translated
// locally with its libraries) to halt against the interpreter. Traced runs
// first make the default-paced cold pass.
func (w *serviceW) check(o *outcome, tr *tracer) {
	if tr != nil {
		o.verdict("cold pass", w.coldProbe(tr))
	}
	root := tr.root("check.local")
	local := map[*svcEntry][32]byte{}
	images := map[*svcEntry]*image{}
	w.static = staticStats{}
	for _, e := range w.entries {
		img, sum, err := localImage(e, &w.static, root)
		if err != nil {
			o.verdict(e.src.name+" local translation", err)
			continue
		}
		local[e], images[e] = sum, img
	}
	for _, s := range w.submissions {
		want, ok := local[s.entry]
		if !ok {
			_, sum, err := localImage(s.entry, nil, root)
			if err != nil {
				o.verdict(s.entry.src.name+" local translation", err)
				continue
			}
			want, local[s.entry] = sum, sum
		}
		var err error
		if s.sum != want {
			err = fmt.Errorf("served codefile differs from local translation")
		}
		o.verdict(s.entry.src.name+" served bytes", err)
	}
	root.end()

	w.refs = w.refs[:0]
	var imgs []*image
	root = tr.root("check.reference")
	for _, e := range w.entries {
		img := images[e]
		if img == nil {
			continue
		}
		ref, err := interpret(e.t.user, e.t.lib, root)
		if err != nil {
			o.verdict(e.src.name+" reference", err)
			continue
		}
		img.ref = ref
		w.refs = append(w.refs, ref)
		imgs = append(imgs, img)
	}
	root.end()
	w.checks = runChecks(imgs, o, tr)
}

// localImage translates e locally for MIPS exactly as the service does,
// returning the user codefile's hash and a loadable image whose library
// (when present) is translated too. st, when non-nil, accumulates the
// translation's static statistics.
func localImage(e *svcEntry, st *staticStats, parent spanRef) (*image, [32]byte, error) {
	user := *e.t.user
	user.Accel = nil
	var lib *codefile.File
	if e.t.lib != nil {
		l := *e.t.lib
		lib = &l
	}
	u, l, ub, lb, err := translateLoad(translation{&user, lib, e.t.summaries}, backends[0], true, true, parent, nil)
	if err != nil {
		return nil, [32]byte{}, err
	}
	if st != nil {
		st.add("mips", u, l, ub, lb)
	}
	return &image{label: e.src.name + "/mips", backend: "mips", iters: e.src.iters,
		user: u, lib: l}, sha256.Sum256(ub), nil
}

func (w *serviceW) endToEnd(ph *phase, m map[string]float64) {
	w.checks.endToEnd(w.static, m)
}

func (w *serviceW) perLayer(ph *phase, lg *ledger, m map[string]float64) {
	w.checks.perLayer(w.refs, w.static, lg, m)
	s := w.storeStats
	m["store.get_ms"] = ratio(float64(s.getDur)/1e6, float64(s.gets))
	m["tcache.hit_ratio"] = ratio(float64(s.getHits), float64(s.gets))
	m["xlate.requests_per_op"] = ratio(float64(w.requests), float64(w.submits))
	c := w.cold
	n := float64(len(c.lat))
	m["store.put_ms"] = ratio(float64(c.store.putDur)/1e6, float64(c.store.puts))
	m["xlate.queue.frags_executed"] = ratio(float64(c.queue.Executed), n)
	m["xlate.queue.steals"] = ratio(float64(c.queue.Steals), n)
	m["xlate.cold.requests_per_op"] = ratio(float64(c.requests), n)
	// A submission whose result needed a poll waited the default 50 ms
	// pacing at least; faster ones were answered by the first fetch.
	first := 0
	for _, d := range c.lat {
		if d < 50*time.Millisecond {
			first++
		}
	}
	m["xlate.cold.first_fetch_ratio"] = ratio(float64(first), n)
	sort.Slice(c.lat, func(i, j int) bool { return c.lat[i] < c.lat[j] })
	m["xlate.cold.p50_ms"] = ms(quantile(c.lat, 0.5))
}

// close stops the daemons, waiting for their serving goroutines and any
// translation still running, and removes their stores.
func (w *serviceW) close() {
	for _, s := range w.servers {
		s.Close()
	}
	w.serving.Wait()
	w.servers = nil
	if w.xsrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := w.xsrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		}
		cancel()
		w.xsrv.Close()
		w.xsrv = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// --- timing wrappers -----------------------------------------------------------

// timedStore times the translation cache's reads and writes.
type timedStore struct {
	store.Storage
	mu sync.Mutex
	st storeStats
}

type storeStats struct {
	puts, gets, getHits int64
	putDur, getDur      time.Duration
}

func (a storeStats) sub(b storeStats) storeStats {
	return storeStats{a.puts - b.puts, a.gets - b.gets, a.getHits - b.getHits,
		a.putDur - b.putDur, a.getDur - b.getDur}
}

func (s *timedStore) Get(key string) ([]byte, error) {
	start := time.Now()
	data, err := s.Storage.Get(key)
	d := time.Since(start)
	s.mu.Lock()
	s.st.gets++
	s.st.getDur += d
	if err == nil {
		s.st.getHits++
	}
	s.mu.Unlock()
	return data, err
}

func (s *timedStore) Put(key string, data []byte) error {
	start := time.Now()
	err := s.Storage.Put(key, data)
	d := time.Since(start)
	s.mu.Lock()
	s.st.puts++
	s.st.putDur += d
	s.mu.Unlock()
	return err
}

func (s *timedStore) snapshot() storeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// timedTransport counts the translation client's requests and records a
// span for each, under the caller's span carried in the request context.
// A span ends when the response body is drained or closed.
type timedTransport struct {
	base     http.RoundTripper
	requests atomic.Int64
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "xlate.fetch"
	if req.Method == http.MethodPost {
		name = "xlate.submit"
	}
	t.requests.Add(1)
	sp := spanFrom(req.Context()).child(name)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	sp   spanRef
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.sp.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.sp.end)
	return b.ReadCloser.Close()
}
