package profsrv

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"tnsr/internal/httpd/httpdtest"
	"tnsr/internal/store"
)

// listToggle is a directory store whose List can be made to fail, so the
// script can reach the /metrics store-unreadable reject.
type listToggle struct {
	*store.Dir
	fail bool
}

func (l *listToggle) List() ([]store.Entry, error) {
	if l.fail {
		return nil, errors.New("injected list failure")
	}
	return l.Dir.List()
}

// TestGoldenExposition drives a fixed request script through ServeHTTP —
// every reject reason the daemon can emit, GET and POST, a drain toggle —
// and compares every response's status, headers and body, plus the whole
// /metrics exposition, byte-for-byte against testdata/golden_exposition.txt
// (GOLDEN_REGEN=1 rewrites it).
func TestGoldenExposition(t *testing.T) {
	const (
		fpA = "00000000deadbeef"
		fpB = "00000000c0ffee00"
		fpC = "00000000abad1dea"
	)
	// The one peer answers every fetch 404 except fpB's, which it answers
	// with a capture of a different build: the merge refuses it.
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != profilesPrefix+fpB {
			http.NotFound(w, r)
			return
		}
		w.Write(mustJSON(t, testProfile("1111111111111111", 1)))
	}))
	defer peer.Close()

	dir, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	backing := &listToggle{Dir: dir}
	st := NewStore(backing)
	s := New(Config{
		Store:      st,
		Token:      "tok",
		MaxBody:    1024,
		AgeEvery:   2,
		RatePerSec: 0.0001,
		RateBurst:  2,
		Peers:      []string{peer.URL},
	})

	noFP := testProfile(fpA, 1)
	noFP.Spaces[0].Fingerprint = ""

	sc := &httpdtest.Script{H: s, Token: "tok"}

	sc.Do("GET", "/healthz", nil)
	sc.Do("POST", "/healthz", nil)
	sc.Do("GET", "/metrics", nil)
	sc.Do("POST", "/metrics", nil)
	sc.Do("GET", "/v2/profiles/"+fpA, nil)
	sc.Send("", "GET", profilesPrefix+fpA, "", nil)
	sc.Send("", "GET", profilesPrefix+fpA, "wrong", nil)
	for i := 0; i < 3; i++ {
		sc.Send("198.51.100.7:9", "GET", profilesPrefix+fpA, "tok", nil)
	}
	sc.Do("GET", profilesPrefix+"NOT-A-FP", nil)
	sc.Do("DELETE", profilesPrefix+fpA, nil)
	sc.Do("GET", profilesPrefix+fpA, nil)
	sc.Do("POST", profilesPrefix+fpA, bytes.Repeat([]byte("x"), 2000))
	sc.Send("", "POST", profilesPrefix+fpA, "tok", httpdtest.ErrBody)
	sc.Do("POST", profilesPrefix+fpA, []byte("{"))
	sc.Do("POST", profilesPrefix+fpA, mustJSON(t, noFP))
	sc.Do("POST", profilesPrefix+fpA, mustJSON(t, testProfile(fpC, 1)))
	sc.Do("POST", profilesPrefix+fpA, mustJSON(t, testProfile(fpA, 1)))
	sc.Do("POST", profilesPrefix+fpA, mustJSON(t, testProfile(fpA, 2)))
	sc.Do("GET", profilesPrefix+fpA, nil)
	sc.Do("GET", profilesPrefix+fpA+"?local=1", nil)
	sc.Do("POST", profilesPrefix+fpB, mustJSON(t, testProfile(fpB, 1)))
	sc.Do("GET", profilesPrefix+fpB, nil)
	if err := os.WriteFile(st.Path(fpA), []byte("{torn"), 0o666); err != nil {
		t.Fatal(err)
	}
	sc.Do("GET", profilesPrefix+fpA, nil)
	sc.Do("POST", profilesPrefix+fpA, mustJSON(t, testProfile(fpA, 1)))

	s.SetDraining(true)
	sc.Do("POST", profilesPrefix+fpC, mustJSON(t, testProfile(fpC, 1)))
	sc.Do("GET", profilesPrefix+fpC, nil)
	sc.Do("GET", "/metrics", nil)
	s.SetDraining(false)
	sc.Do("POST", profilesPrefix+fpC, mustJSON(t, testProfile(fpC, 1)))

	backing.fail = true
	sc.Do("GET", "/metrics", nil)
	backing.fail = false
	sc.Do("GET", "/metrics", nil)

	sc.Check(t, filepath.Join("testdata", "golden_exposition.txt"), peer.URL, "http://peer")
}
