package profsrv

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"tnsr/internal/obs"
	"tnsr/internal/retry"
)

// metrics is the profile daemon's own Prometheus state (the httpd chassis
// keeps the request and reject counters): plain counters under one lock
// that is never held across I/O. The exposition goes through the same
// obs.PromHeader conventions every other tnsr exporter uses.
type metrics struct {
	mu      sync.Mutex
	uploads int64 // accepted merges
	served  int64 // aggregates served
	ages    int64 // aging events applied

	peerMerges    int64            // multi-node merges served
	peerErrs      map[string]int64 // peer URL -> degraded fetches
	peerFastFails map[string]int64 // peer URL -> merges skipped by an open breaker
}

// peerBreakerView is one peer's breaker snapshot, taken by the caller so
// the metrics lock never nests with the breakers'.
type peerBreakerView struct {
	peer   string
	counts retry.BreakerCounts
}

func (m *metrics) peerError(peer string) {
	m.mu.Lock()
	m.peerErrs[peer]++
	m.mu.Unlock()
}

func (m *metrics) peerFastFail(peer string) {
	m.mu.Lock()
	m.peerFastFails[peer]++
	m.mu.Unlock()
}

func (m *metrics) add(counter *int64) {
	m.mu.Lock()
	*counter++
	m.mu.Unlock()
}

// write renders the daemon's series. stored is the current aggregate count
// and breakers the peer-breaker snapshots (both gathered by the caller so
// the lock stays I/O-free and never nests with another).
func (m *metrics) write(w io.Writer, stored int, breakers []peerBreakerView) {
	m.mu.Lock()
	defer m.mu.Unlock()

	obs.PromHeader(w, "tnsr_profsrv_uploads_total", "counter",
		"Profiles accepted and merged into an aggregate.")
	fmt.Fprintf(w, "tnsr_profsrv_uploads_total %d\n", m.uploads)

	obs.PromHeader(w, "tnsr_profsrv_served_total", "counter",
		"Aggregates served to translators.")
	fmt.Fprintf(w, "tnsr_profsrv_served_total %d\n", m.served)

	obs.PromHeader(w, "tnsr_profsrv_age_events_total", "counter",
		"Cross-run aging passes applied to an aggregate.")
	fmt.Fprintf(w, "tnsr_profsrv_age_events_total %d\n", m.ages)

	obs.PromHeader(w, "tnsr_profsrv_peer_merges_total", "counter",
		"Multi-node aggregates served (local + peer merge).")
	fmt.Fprintf(w, "tnsr_profsrv_peer_merges_total %d\n", m.peerMerges)

	obs.PromHeader(w, "tnsr_profsrv_peer_errors_total", "counter",
		"Peer aggregate fetches that failed and were degraded out of the answer, by peer.")
	pkeys := make([]string, 0, len(m.peerErrs))
	for k := range m.peerErrs {
		pkeys = append(pkeys, k)
	}
	sort.Strings(pkeys)
	for _, k := range pkeys {
		fmt.Fprintf(w, "tnsr_profsrv_peer_errors_total{peer=%q} %d\n",
			obs.PromEscape(k), m.peerErrs[k])
	}

	obs.PromHeader(w, "tnsr_profsrv_peer_fastfails_total", "counter",
		"Peer merges skipped because the peer's circuit breaker was open, by peer.")
	fkeys := make([]string, 0, len(m.peerFastFails))
	for k := range m.peerFastFails {
		fkeys = append(fkeys, k)
	}
	sort.Strings(fkeys)
	for _, k := range fkeys {
		fmt.Fprintf(w, "tnsr_profsrv_peer_fastfails_total{peer=%q} %d\n",
			obs.PromEscape(k), m.peerFastFails[k])
	}

	obs.PromHeader(w, "tnsr_profsrv_peer_breaker_state", "gauge",
		"Peer circuit breaker state (0 closed, 1 open, 2 half-open), by peer.")
	for _, v := range breakers {
		fmt.Fprintf(w, "tnsr_profsrv_peer_breaker_state{peer=%q} %d\n",
			obs.PromEscape(v.peer), int(v.counts.State))
	}

	obs.PromHeader(w, "tnsr_profsrv_peer_breaker_opens_total", "counter",
		"Times a peer's circuit breaker tripped open, by peer.")
	for _, v := range breakers {
		fmt.Fprintf(w, "tnsr_profsrv_peer_breaker_opens_total{peer=%q} %d\n",
			obs.PromEscape(v.peer), v.counts.Opens)
	}

	obs.PromHeader(w, "tnsr_profsrv_stored_profiles", "gauge",
		"Aggregates currently stored, one per codefile fingerprint.")
	fmt.Fprintf(w, "tnsr_profsrv_stored_profiles %d\n", stored)

}
