// Package httpd is the HTTP chassis the tnsr daemons (tnsprofd, tnsxlated)
// share. It owns the admission policy — the resource-path gate,
// constant-time bearer auth, the per-client token bucket, the body cap and
// the drain refusal — the typed rejects with their requests_total and
// rejects_total counters, /healthz, the GET-only /metrics route, and the
// serve → signal → drain → shutdown lifecycle. A daemon supplies only its
// routes under one resource prefix and its own metric series.
package httpd

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tnsr/internal/obs"
)

// Spec describes one daemon to the chassis: its names and texts, the
// admission fields copied from its Config, and its two hooks.
type Spec struct {
	// Metric prefixes every chassis series (tnsr_profsrv, tnsr_xlated).
	Metric string
	// Prefix is the resource path. Every request outside it (apart from
	// /healthz and /metrics) is a 404 "path"; inside it, the request is
	// authenticated and rate limited before Route sees it.
	Prefix string
	// Noun names one request body in the 413 reply ("profile exceeds N
	// bytes").
	Noun string
	// DrainMsg is the 503 body while draining; DrainHelp is the HELP text
	// of the _draining gauge.
	DrainMsg, DrainHelp string

	// Token is the bearer token every request under Prefix must present
	// (empty disables auth). MaxBody caps ReadBody (> 0). RatePerSec, when
	// > 0, limits each client to a token bucket RateBurst deep (<= 0
	// means 1).
	Token      string
	MaxBody    int64
	RatePerSec float64
	RateBurst  int

	// Route serves an admitted request; rest is its path after Prefix.
	Route func(w http.ResponseWriter, r *http.Request, rest string)
	// Metrics writes the daemon's own series, which the exposition places
	// between rejects_total and _draining. An error fails the scrape with
	// a 500 "store" carrying the error's text.
	Metrics func(w io.Writer) error
}

// Server is the chassis: an http.Handler around one daemon's Spec.
type Server struct {
	spec     Spec
	draining atomic.Bool

	bucketMu sync.Mutex
	buckets  map[string]*bucket

	// Counters under one lock that is never held across I/O.
	mu       sync.Mutex
	requests map[reqKey]int64
	rejects  map[string]int64 // typed reason -> count
}

// bucket is one client's token bucket.
type bucket struct {
	tokens   float64
	lastFill time.Time
}

// maxBuckets bounds the per-client table so a client cycling spoofed
// addresses cannot grow it without limit; on overflow the stalest (and
// therefore fullest) buckets are evicted, which can only give clients a
// fresh full budget, never starve a legitimate one.
const maxBuckets = 4096

// reqKey labels one requests_total series.
type reqKey struct {
	method string
	code   int
}

// New builds the chassis for spec.
func New(spec Spec) *Server {
	if spec.RateBurst <= 0 {
		spec.RateBurst = 1
	}
	return &Server{
		spec:     spec,
		buckets:  map[string]*bucket{},
		requests: map[reqKey]int64{},
		rejects:  map[string]int64{},
	}
}

// SetDraining flips drain mode: RefuseDraining then answers 503 with a
// Retry-After, so resilient clients back off to another node or a later
// attempt, while every other route keeps serving.
func (s *Server) SetDraining(on bool) { s.draining.Store(on) }

// Draining reports the drain flag; /metrics exposes it as a gauge.
func (s *Server) Draining() bool { return s.draining.Load() }

// ServeHTTP routes /healthz (any method, no auth), /metrics (GET, no auth:
// scrapers hold no fleet secrets) and, after the path, auth and rate
// gates, everything under Prefix to the daemon's Route.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		s.Respond(w, r, http.StatusOK, []byte("ok\n"), "text/plain; charset=utf-8")
		return
	case "/metrics":
		s.serveMetrics(w, r)
		return
	}
	rest, ok := strings.CutPrefix(r.URL.Path, s.spec.Prefix)
	if !ok {
		s.Fail(w, r, http.StatusNotFound, "path", "not found")
		return
	}
	if !s.authed(r) {
		s.Fail(w, r, http.StatusUnauthorized, "auth", "missing or wrong bearer token")
		return
	}
	if !s.allow(r) {
		w.Header().Set("Retry-After", "1")
		s.Fail(w, r, http.StatusTooManyRequests, "rate", "rate limit exceeded")
		return
	}
	s.spec.Route(w, r, rest)
}

// authed checks the bearer token in constant time.
func (s *Server) authed(r *http.Request) bool {
	if s.spec.Token == "" {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(got), []byte(s.spec.Token)) == 1
}

// clientKey identifies the bucket a request draws from: the remote host
// joined with the bearer token it presented. Either alone is spoofable in
// some deployment (shared NAT vs. shared fleet token); together they
// isolate the common failure mode — one runaway machine hammering the
// daemon — without any per-request allocation beyond the key itself.
func clientKey(r *http.Request) string {
	host := r.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	tok, _ := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return host + "|" + tok
}

// allow draws one token from the request's client bucket.
func (s *Server) allow(r *http.Request) bool {
	if s.spec.RatePerSec <= 0 {
		return true
	}
	key := clientKey(r)
	now := time.Now()
	s.bucketMu.Lock()
	defer s.bucketMu.Unlock()
	b := s.buckets[key]
	if b == nil {
		if len(s.buckets) >= maxBuckets {
			s.evictStale(now)
		}
		b = &bucket{tokens: float64(s.spec.RateBurst), lastFill: now}
		s.buckets[key] = b
	}
	b.tokens += now.Sub(b.lastFill).Seconds() * s.spec.RatePerSec
	if max := float64(s.spec.RateBurst); b.tokens > max {
		b.tokens = max
	}
	b.lastFill = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// evictStale drops buckets idle long enough to have refilled completely —
// their state is indistinguishable from a fresh bucket, so dropping them
// changes no admission decision. If none qualify (burst of distinct keys
// inside one refill window), the whole table resets; that errs toward
// admitting, never toward starving.
func (s *Server) evictStale(now time.Time) {
	full := time.Duration(float64(s.spec.RateBurst) / s.spec.RatePerSec * float64(time.Second))
	dropped := 0
	for k, b := range s.buckets {
		if now.Sub(b.lastFill) >= full {
			delete(s.buckets, k)
			dropped++
		}
	}
	if dropped == 0 {
		s.buckets = map[string]*bucket{}
	}
}

// RefuseDraining answers 503 "draining" with a Retry-After and reports
// true while the server drains; a route calls it before accepting new
// work.
func (s *Server) RefuseDraining(w http.ResponseWriter, r *http.Request) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	s.Fail(w, r, http.StatusServiceUnavailable, "draining", s.spec.DrainMsg)
	return true
}

// ReadBody reads the request body under MaxBody. On failure it has already
// answered — 413 "size" past the cap, 400 "read" otherwise — and reports
// false.
func (s *Server) ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.spec.MaxBody))
	if err == nil {
		return data, true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.Fail(w, r, http.StatusRequestEntityTooLarge, "size",
			fmt.Sprintf("%s exceeds %d bytes", s.spec.Noun, s.spec.MaxBody))
	} else {
		s.Fail(w, r, http.StatusBadRequest, "read", "body read failed")
	}
	return nil, false
}

// Fail writes a plain-text error and counts the typed reject.
func (s *Server) Fail(w http.ResponseWriter, r *http.Request, code int, reason, msg string) {
	s.mu.Lock()
	s.rejects[reason]++
	s.requests[reqKey{r.Method, code}]++
	s.mu.Unlock()
	http.Error(w, msg, code)
}

// Respond writes a successful response and counts it.
func (s *Server) Respond(w http.ResponseWriter, r *http.Request, code int, body []byte, contentType string) {
	s.mu.Lock()
	s.requests[reqKey{r.Method, code}]++
	s.mu.Unlock()
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(code)
	w.Write(body)
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.Fail(w, r, http.StatusMethodNotAllowed, "method", "use GET")
		return
	}
	var b strings.Builder
	s.writeCounters(&b)
	if err := s.spec.Metrics(&b); err != nil {
		s.Fail(w, r, http.StatusInternalServerError, "store", err.Error())
		return
	}
	name := s.spec.Metric + "_draining"
	obs.PromHeader(&b, name, "gauge", s.spec.DrainHelp)
	d := 0
	if s.draining.Load() {
		d = 1
	}
	fmt.Fprintf(&b, "%s %d\n", name, d)
	s.Respond(w, r, http.StatusOK, []byte(b.String()), "text/plain; version=0.0.4; charset=utf-8")
}

// writeCounters renders requests_total and rejects_total, sorted.
func (s *Server) writeCounters(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()

	name := s.spec.Metric + "_requests_total"
	obs.PromHeader(w, name, "counter", "Requests handled, by method and status code.")
	keys := make([]reqKey, 0, len(s.requests))
	for k := range s.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].method != keys[j].method {
			return keys[i].method < keys[j].method
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(w, "%s{method=%q,code=\"%d\"} %d\n", name, obs.PromEscape(k.method), k.code, s.requests[k])
	}

	name = s.spec.Metric + "_rejects_total"
	obs.PromHeader(w, name, "counter", "Rejected requests, by typed reason.")
	reasons := make([]string, 0, len(s.rejects))
	for k := range s.rejects {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Fprintf(w, "%s{reason=%q} %d\n", name, obs.PromEscape(k), s.rejects[k])
	}
}

// Run serves h on addr until SIGTERM or SIGINT, then drains: drain refuses
// new work and waits (bounded by drainTimeout) for accepted work to
// finish, after which the listener closes once in-flight requests end.
// name prefixes every log line; a listener failure exits the process.
func Run(name, addr string, h http.Handler, drainTimeout time.Duration, drain func(context.Context) error) {
	hs := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); err != http.ErrServerClosed {
			errc <- err
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("%s: %v", name, err)
	case s := <-sig:
		log.Printf("%s: %v: draining (timeout %v)", name, s, drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := drain(ctx); err != nil {
		log.Printf("%s: drain incomplete: %v", name, err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("%s: listener shutdown: %v", name, err)
	}
	log.Printf("%s: drained", name)
}
