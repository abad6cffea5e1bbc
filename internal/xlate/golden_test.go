package xlate

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/httpd/httpdtest"
	"tnsr/internal/tcache"
)

// TestGoldenExposition drives a fixed request script through ServeHTTP —
// every reject reason the daemon can emit, GET and POST, a drain toggle —
// and compares every response's status, headers and body, plus the whole
// /metrics exposition, byte-for-byte against testdata/golden_exposition.txt
// (GOLDEN_REGEN=1 rewrites it). Every accepted submission is answered from
// the store, which the script warms before the server starts, so no
// translation is ever queued and the queue counters are deterministic.
func TestGoldenExposition(t *testing.T) {
	const seed = 41
	opts := core.Options{Level: codefile.LevelDefault}
	c, err := tcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Accelerate(buildFile(t, seed), opts); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Cache: c, Token: "tok", MaxBody: 1 << 20, RatePerSec: 0.0001, RateBurst: 2, Workers: 1})
	t.Cleanup(s.Close)

	encode := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	sub, err := EncodeRequest(buildFile(t, seed), opts)
	if err != nil {
		t.Fatal(err)
	}
	valid := encode(sub)
	key, err := opts.TransKey(buildFile(t, seed).Fingerprint())
	if err != nil {
		t.Fatal(err)
	}

	sc := &httpdtest.Script{H: s, Token: "tok"}
	sc.Do("GET", "/healthz", nil)
	sc.Do("POST", "/healthz", nil)
	sc.Do("GET", "/metrics", nil)
	sc.Do("POST", "/metrics", nil)
	sc.Do("GET", "/v2/xlate", nil)
	sc.Send("", "POST", "/v1/xlate", "", bytes.NewReader(valid))
	sc.Send("", "POST", "/v1/xlate", "wrong", bytes.NewReader(valid))
	for i := 0; i < 3; i++ {
		sc.Send("198.51.100.7:9", "GET", "/v1/xlate/0123456789abcdef", "tok", nil)
	}
	sc.Do("POST", "/v1/xlate/"+key, valid)
	sc.Do("DELETE", "/v1/xlate/"+key, nil)
	sc.Do("GET", "/v1/xlate/NOT-A-KEY", nil)
	sc.Do("GET", "/v1/xlate/0123456789abcdef", nil)
	sc.Do("POST", "/v1/xlate", bytes.Repeat([]byte("x"), 1<<20+1))
	sc.Send("", "POST", "/v1/xlate", "tok", httpdtest.ErrBody)
	sc.Do("POST", "/v1/xlate", []byte("not json"))
	sc.Do("POST", "/v1/xlate", []byte(`{"schema":"wrong/v9"}`))
	sc.Do("POST", "/v1/xlate", encode(SubmitRequest{Schema: SubmitSchema, Level: "warp"}))
	sc.Do("POST", "/v1/xlate", encode(SubmitRequest{Schema: SubmitSchema, Codefile: []byte("junk")}))
	sc.Do("POST", "/v1/xlate", valid)
	sc.Do("POST", "/v1/xlate/", valid)
	sc.Do("GET", "/v1/xlate/"+key, nil)

	s.SetDraining(true)
	sc.Do("POST", "/v1/xlate", valid)
	sc.Do("GET", "/v1/xlate/"+key, nil)
	sc.Do("GET", "/metrics", nil)
	s.SetDraining(false)
	sc.Do("POST", "/v1/xlate", valid)
	sc.Do("GET", "/metrics", nil)

	sc.Check(t, filepath.Join("testdata", "golden_exposition.txt"))
}
