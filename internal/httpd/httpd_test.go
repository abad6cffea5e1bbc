package httpd

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// newTestServer is a chassis whose one route answers 404, as both daemons
// answer a well-formed request for an absent resource.
func newTestServer(rate float64, burst int) *Server {
	return New(Spec{
		Metric:     "tnsr_test",
		Prefix:     "/v1/things/",
		RatePerSec: rate,
		RateBurst:  burst,
		Route: func(w http.ResponseWriter, r *http.Request, rest string) {
			http.NotFound(w, r)
		},
		Metrics: func(io.Writer) error { return nil },
	})
}

// TestRateLimitBucketTableBounded: an address-spoofing client cycling
// through arbitrarily many identities cannot grow the bucket table without
// limit, and legitimate clients keep being admitted throughout. Both
// daemons admit through this chassis.
func TestRateLimitBucketTableBounded(t *testing.T) {
	s := newTestServer(0.0001, 1)
	for i := 0; i < maxBuckets+100; i++ {
		r := httptest.NewRequest(http.MethodGet, "/v1/things/x", nil)
		r.RemoteAddr = fmt.Sprintf("10.%d.%d.%d:1", i>>16&0xFF, i>>8&0xFF, i&0xFF)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != 404 {
			t.Fatalf("fresh client %d: code %d, want 404", i, w.Code)
		}
	}
	s.bucketMu.Lock()
	n := len(s.buckets)
	s.bucketMu.Unlock()
	if n > maxBuckets {
		t.Fatalf("bucket table grew to %d entries (cap %d)", n, maxBuckets)
	}
}
