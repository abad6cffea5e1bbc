package xlate

import (
	"fmt"
	"io"
	"sync"

	"tnsr/internal/obs"
	"tnsr/internal/tcache"
)

// metrics is the daemon's own Prometheus state (the httpd chassis keeps
// the request and reject counters): plain counters under one lock that is
// never held across I/O; queue and cache counters are snapshotted by the
// caller.
type metrics struct {
	mu          sync.Mutex
	submissions int64 // accepted submits
	cachedSubs  int64 // submits answered entirely from the store
	done        int64 // translations completed
	failed      int64 // translations failed
	served      int64 // accelerated codefiles served (GET 200)
	swept       int64 // torn write temporaries reclaimed at startup
}

func (m *metrics) add(counter *int64) {
	m.mu.Lock()
	*counter++
	m.mu.Unlock()
}

// write renders the daemon's series. Queue and cache state are passed in
// so the metrics lock never nests with theirs.
func (m *metrics) write(w io.Writer, qs QueueStats, cs tcache.Stats, storeBytes int64, storeEntries int) {
	m.mu.Lock()
	defer m.mu.Unlock()

	obs.PromHeader(w, "tnsr_xlated_submissions_total", "counter",
		"Codefile submissions accepted.")
	fmt.Fprintf(w, "tnsr_xlated_submissions_total %d\n", m.submissions)

	obs.PromHeader(w, "tnsr_xlated_cached_submissions_total", "counter",
		"Submissions answered entirely from the content-addressed store.")
	fmt.Fprintf(w, "tnsr_xlated_cached_submissions_total %d\n", m.cachedSubs)

	obs.PromHeader(w, "tnsr_xlated_translations_total", "counter",
		"Queued translations finished, by result.")
	fmt.Fprintf(w, "tnsr_xlated_translations_total{result=\"done\"} %d\n", m.done)
	fmt.Fprintf(w, "tnsr_xlated_translations_total{result=\"failed\"} %d\n", m.failed)

	obs.PromHeader(w, "tnsr_xlated_served_total", "counter",
		"Accelerated codefiles served (every byte re-verified on the way out).")
	fmt.Fprintf(w, "tnsr_xlated_served_total %d\n", m.served)

	obs.PromHeader(w, "tnsr_xlated_queue_tasks", "gauge",
		"Translations currently queued or running.")
	fmt.Fprintf(w, "tnsr_xlated_queue_tasks %d\n", qs.Tasks)

	obs.PromHeader(w, "tnsr_xlated_queue_depth", "gauge",
		"Fragment jobs enqueued and not yet claimed by a worker.")
	fmt.Fprintf(w, "tnsr_xlated_queue_depth %d\n", qs.Frags)

	obs.PromHeader(w, "tnsr_xlated_queue_steals_total", "counter",
		"Fragment claims by an idle worker from another submission's task.")
	fmt.Fprintf(w, "tnsr_xlated_queue_steals_total %d\n", qs.Steals)

	obs.PromHeader(w, "tnsr_xlated_queue_frags_total", "counter",
		"Fragment jobs executed by the shared pool.")
	fmt.Fprintf(w, "tnsr_xlated_queue_frags_total %d\n", qs.Executed)

	obs.PromHeader(w, "tnsr_xlated_store_hits_total", "counter",
		"Store lookups that passed every verify gate.")
	fmt.Fprintf(w, "tnsr_xlated_store_hits_total %d\n", cs.Hits)

	obs.PromHeader(w, "tnsr_xlated_store_rejects_total", "counter",
		"Store entries that failed a verify gate and were dropped.")
	fmt.Fprintf(w, "tnsr_xlated_store_rejects_total %d\n", cs.Rejects)

	obs.PromHeader(w, "tnsr_xlated_store_evictions_total", "counter",
		"Store entries evicted by the size cap.")
	fmt.Fprintf(w, "tnsr_xlated_store_evictions_total %d\n", cs.Evictions)

	obs.PromHeader(w, "tnsr_xlated_store_bytes", "gauge",
		"Bytes currently in the content-addressed store.")
	fmt.Fprintf(w, "tnsr_xlated_store_bytes %d\n", storeBytes)

	obs.PromHeader(w, "tnsr_xlated_store_entries", "gauge",
		"Entries currently in the content-addressed store.")
	fmt.Fprintf(w, "tnsr_xlated_store_entries %d\n", storeEntries)

	obs.PromHeader(w, "tnsr_xlated_store_put_errors_total", "counter",
		"Store population writes refused by the backing disk (translation still served).")
	fmt.Fprintf(w, "tnsr_xlated_store_put_errors_total %d\n", cs.PutErrs)

	obs.PromHeader(w, "tnsr_xlated_swept_total", "counter",
		"Torn write temporaries reclaimed by the startup sweep.")
	fmt.Fprintf(w, "tnsr_xlated_swept_total %d\n", m.swept)

}
