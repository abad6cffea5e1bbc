package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Every span of one operation shares its root's trace ID; Parent is
// 0 for a root.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one comparison per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	trace int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef identifies an open span; the zero value is "no span".
type spanRef struct {
	tr    *tracer
	trace int64
	idx   int32 // index+1 into tr.spans
}

// root opens the first span of a new trace.
func (t *tracer) root(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	t.trace++
	id := t.trace
	t.mu.Unlock()
	return t.open(id, 0, name)
}

func (t *tracer) open(trace int64, parent int32, name string) spanRef {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: int32(len(t.spans) + 1),
		Parent: parent, Name: name, Start: now})
	return spanRef{tr: t, trace: trace, idx: int32(len(t.spans))}
}

// child opens a span under s (a no-op under the zero spanRef).
func (s spanRef) child(name string) spanRef {
	if s.tr == nil {
		return spanRef{}
	}
	return s.tr.open(s.trace, s.idx, name)
}

// end closes the span.
func (s spanRef) end() {
	if s.tr == nil {
		return
	}
	now := time.Since(s.tr.t0).Nanoseconds()
	s.tr.mu.Lock()
	s.tr.spans[s.idx-1].End = now
	s.tr.mu.Unlock()
}

type spanKey struct{}

// withSpan carries s in ctx so layers reached through a context (the HTTP
// round tripper) can hang their spans under the caller's.
func withSpan(ctx context.Context, s spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) spanRef {
	s, _ := ctx.Value(spanKey{}).(spanRef)
	return s
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	calls int64
	total time.Duration // summed span durations
	self  time.Duration // summed durations minus child-covered time
}

func (l layerStats) meanMs() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.total) / float64(l.calls) / 1e6
}

// ledger is the reconciliation of a set of traces: per-layer self times,
// the root self time no layer covers, and the end-to-end root time.
type ledger struct {
	layers       map[string]layerStats
	rootTotal    time.Duration // summed root span durations
	unattributed time.Duration // summed root self times
	layerSelf    time.Duration // summed non-root self times
	spans        int
}

// reconcile computes self times. A span's self time is its duration minus
// the union of the intervals its direct children cover, so overlapping
// children are not counted twice. Roots are the benchmark's own operations:
// their self time is the blocking-path time no layer span covers.
func (t *tracer) reconcile() (*ledger, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	kids := make(map[int32][]span, len(spans))
	for _, s := range spans {
		if s.End == 0 {
			return nil, fmt.Errorf("span %q (id %d) never ended", s.Name, s.ID)
		}
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	lg := &ledger{layers: map[string]layerStats{}, spans: len(spans)}
	for _, s := range spans {
		self := time.Duration(s.End-s.Start) - covered(s, kids[s.ID])
		if s.Parent == 0 {
			lg.rootTotal += time.Duration(s.End - s.Start)
			lg.unattributed += self
			continue
		}
		st := lg.layers[s.Name]
		st.calls++
		st.total += time.Duration(s.End - s.Start)
		st.self += self
		lg.layers[s.Name] = st
		lg.layerSelf += self
	}
	if sum := lg.layerSelf + lg.unattributed; sum != lg.rootTotal {
		return nil, fmt.Errorf("ledger does not add up: layers %v + unattributed %v != traced %v",
			lg.layerSelf, lg.unattributed, lg.rootTotal)
	}
	return lg, nil
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var sum, lo, hi int64
	lo, hi = -1, -1
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			if hi > lo {
				sum += hi - lo
			}
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	if hi > lo {
		sum += hi - lo
	}
	return time.Duration(sum)
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}
