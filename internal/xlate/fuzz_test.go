package xlate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/millicode"
	"tnsr/internal/tcache"
)

// fuzzSeed is the generated program every valid seed submits; the fuzz
// target pre-translates it into the store so GET reaches a 200.
const fuzzSeed = 43

type fuzzInput struct {
	method, path string
	body         []byte
}

// fuzzSeeds are the deliberate corpus entries, each aimed at one gate of
// the request path: routing, the key check, the body cap, the JSON and
// schema checks, option decoding, the strict codefile parser, the store
// answer and the method switch. Checked in under
// testdata/fuzz/FuzzXlateHandler (see TestRegenXlateFuzzCorpus).
func fuzzSeeds(tb testing.TB) map[string]fuzzInput {
	opts := core.Options{Level: codefile.LevelDefault}
	f := buildFile(tb, fuzzSeed)
	req, err := EncodeRequest(f, opts)
	if err != nil {
		tb.Fatal(err)
	}
	valid, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	key, err := opts.TransKey(f.Fingerprint())
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]fuzzInput{
		"healthz":       {"GET", "/healthz", nil},
		"metrics":       {"GET", "/metrics", nil},
		"post-valid":    {"POST", "/v1/xlate", valid},
		"get-valid":     {"GET", "/v1/xlate/" + key, nil},
		"get-absent":    {"GET", "/v1/xlate/0123456789abcdef", nil},
		"bad-key":       {"GET", "/v1/xlate/..%2f..%2fescape", nil},
		"post-subpath":  {"POST", "/v1/xlate/" + key, valid},
		"post-garbage":  {"POST", "/v1/xlate", []byte("{")},
		"post-schema":   {"POST", "/v1/xlate", []byte(`{"schema":"wrong/v9"}`)},
		"post-level":    {"POST", "/v1/xlate", []byte(`{"schema":"tnsr/xlate-submit/v1","level":"warp"}`)},
		"post-codefile": {"POST", "/v1/xlate", []byte(`{"schema":"tnsr/xlate-submit/v1","codefile":"anVuaw=="}`)},
		"method":        {"DELETE", "/v1/xlate/" + key, nil},
		"unrouted":      {"GET", "/v1/other", nil},
	}
}

// FuzzXlateHandler drives the entire translation daemon request path —
// routing, limits, parsing, the store answer and the translation queue —
// with arbitrary method/path/body triples. Invariants: no panic, every
// response carries a routable status code, and every accelerated codefile
// served passes the strict parser and AccelSection.Verify.
func FuzzXlateHandler(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s.method, s.path, s.body)
	}
	// One store for the whole run, warmed with the seed program's
	// translation so a GET can answer 200 without a translation per input.
	cache, err := tcache.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := cache.Accelerate(buildFile(f, fuzzSeed), core.Options{Level: codefile.LevelDefault}); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, method, path string, body []byte) {
		// Auth off so the fuzzer reaches the deep handlers; MaxBody small so
		// it can trip the size gate with feasible inputs.
		srv := New(Config{Cache: cache, MaxBody: 1 << 14, Workers: 1})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
		}()

		req, err := http.NewRequest(method, "http://tnsxlated"+path, bytes.NewReader(body))
		if err != nil {
			t.Skip() // not expressible as an HTTP request; nothing to test
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
			http.StatusNotFound, http.StatusMethodNotAllowed,
			http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("unexpected status %d for %s %q", rec.Code, method, path)
		}

		if rec.Code == http.StatusOK && method == http.MethodGet &&
			rec.Header().Get("Content-Type") == "application/octet-stream" {
			cf, err := codefile.Read(bytes.NewReader(rec.Body.Bytes()))
			if err != nil {
				t.Fatalf("served codefile unreadable: %v", err)
			}
			if cf.Accel == nil {
				t.Fatal("served codefile carries no acceleration section")
			}
			userErr := cf.Accel.Verify(cf, millicode.UserCodeBase)
			if userErr != nil && cf.Accel.Verify(cf, millicode.LibCodeBase) != nil {
				t.Fatalf("served codefile fails Verify: %v", userErr)
			}
		}
	})
}

// TestRegenXlateFuzzCorpus rewrites the checked-in fuzz corpus from
// fuzzSeeds (run with REGEN_FUZZ_CORPUS=1 after changing the seeds);
// normally it just asserts the checked-in files match.
func TestRegenXlateFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzXlateHandler")
	regen := os.Getenv("REGEN_FUZZ_CORPUS") != ""
	if regen {
		if err := os.MkdirAll(dir, 0o777); err != nil {
			t.Fatal(err)
		}
	}
	for name, s := range fuzzSeeds(t) {
		want := fmt.Sprintf("go test fuzz v1\nstring(%q)\nstring(%q)\n[]byte(%q)\n",
			s.method, s.path, s.body)
		path := filepath.Join(dir, name)
		if regen {
			if err := os.WriteFile(path, []byte(want), 0o666); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (set REGEN_FUZZ_CORPUS=1 to regenerate)", err)
		}
		if string(got) != want {
			t.Errorf("%s is stale (set REGEN_FUZZ_CORPUS=1 to regenerate)", name)
		}
	}
}
