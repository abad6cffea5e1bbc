// Package httpdtest records a scripted exchange with an httpd-based daemon
// and compares it byte-for-byte against a checked-in golden file, so a
// change to the chassis or to a daemon's routes that alters any status,
// header, body or /metrics line fails a test.
package httpdtest

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// ErrBody is a request body whose read fails, reaching the 400 "read"
// reject.
var ErrBody io.Reader = errReader{}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("injected read failure") }

// Script drives requests straight into a handler and records every
// response.
type Script struct {
	H     http.Handler
	Token string // bearer token Do presents

	out  bytes.Buffer
	step int
}

// Do sends one request with the script's token from a client address no
// other step uses, so only Send's explicit addresses share a rate bucket.
func (s *Script) Do(method, path string, body []byte) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	s.Send("", method, path, s.Token, r)
}

// Send sends one request from addr (empty: a fresh address) presenting
// token (empty: none) and records the response: status, every header
// sorted, then the body — an application/octet-stream body as its length
// and SHA-256.
func (s *Script) Send(addr, method, path, token string, body io.Reader) {
	s.step++
	r := httptest.NewRequest(method, path, body)
	if addr == "" {
		addr = fmt.Sprintf("192.0.2.%d:1", s.step)
	}
	r.RemoteAddr = addr
	if token != "" {
		r.Header.Set("Authorization", "Bearer "+token)
	}
	w := httptest.NewRecorder()
	s.H.ServeHTTP(w, r)

	fmt.Fprintf(&s.out, "### %02d %s %s\n%d\n", s.step, method, path, w.Code)
	keys := make([]string, 0, len(w.Header()))
	for k := range w.Header() {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&s.out, "%s: %s\n", k, strings.Join(w.Header()[k], ", "))
	}
	s.out.WriteString("\n")
	b := w.Body.Bytes()
	if w.Header().Get("Content-Type") == "application/octet-stream" {
		fmt.Fprintf(&s.out, "<%d bytes, sha256 %x>\n", len(b), sha256.Sum256(b))
		return
	}
	s.out.Write(b)
	if len(b) > 0 && b[len(b)-1] != '\n' {
		s.out.WriteString("\n")
	}
}

// Check compares the recording, with each old string of the oldnew pairs
// replaced by its new one (for values such as ports that change per run),
// against the golden file; GOLDEN_REGEN=1 rewrites the file instead.
func (s *Script) Check(t *testing.T, golden string, oldnew ...string) {
	t.Helper()
	got := strings.NewReplacer(oldnew...).Replace(s.out.String())
	if os.Getenv("GOLDEN_REGEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (set GOLDEN_REGEN=1 to regenerate)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s: first difference at line %d:\n got: %q\nwant: %q", golden, i+1, gl, wl)
		}
	}
	t.Fatalf("%s: recording differs from the golden file", golden)
}
