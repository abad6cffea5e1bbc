package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"tnsr/internal/backend/ob0"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/millicode"
	"tnsr/internal/workloads"
)

// TestMIPSBackendByteStable pins the default (MIPS) target's output: the
// acceleration-section content hash for every workload at every level must
// match the golden hashes captured before the backend-interface refactor.
// This is the proof that extracting the backend seam was a no-op for the
// default target — identical RISC words, entries, ExpectedRP, PMap,
// statistics and FallbackWhy, bit for bit.
//
// Regenerate with GOLDEN_REGEN=1 (only legitimate when an intentional
// codegen change lands; the refactor itself must not need it).
func TestMIPSBackendByteStable(t *testing.T) {
	goldenPath := filepath.Join("testdata", "mips_golden.json")
	got := map[string]string{}
	for _, name := range workloads.Names {
		for _, lvl := range []codefile.AccelLevel{
			codefile.LevelStmtDebug, codefile.LevelDefault, codefile.LevelFast,
		} {
			w, err := workloads.Build(name, 2)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Options{Level: lvl, LibSummaries: w.LibSummaries}
			if err := core.Accelerate(w.User, opts); err != nil {
				t.Fatalf("%s/%v: %v", name, lvl, err)
			}
			key := fmt.Sprintf("%s/%v/user", name, lvl)
			got[key] = accelContentHash(w.User.Accel)
			if w.Lib != nil {
				libOpts := core.Options{Level: lvl,
					CodeBase: millicode.LibCodeBase, Space: 1}
				if err := core.Accelerate(w.Lib, libOpts); err != nil {
					t.Fatalf("%s/%v lib: %v", name, lvl, err)
				}
				got[fmt.Sprintf("%s/%v/lib", name, lvl)] = accelContentHash(w.Lib.Accel)
			}
		}
	}

	checkGolden(t, goldenPath, got)
}

// TestBackendImagesByteStable pins what TestMIPSBackendByteStable does not:
// the assembled millicode image of each backend (words plus label map) and
// the ob0 acceleration section for every workload, level and code space.
// The MIPS and ob0 assemblers share one front end, so this is the proof
// that neither target's output moved when that front end was extracted.
//
// Regenerate with GOLDEN_REGEN=1 under the same rules as above.
func TestBackendImagesByteStable(t *testing.T) {
	got := map[string]string{}
	got["millicode/mips"] = milliContentHash(millicode.Build())
	got["millicode/ob0"] = milliContentHash(ob0.BuildMillicode())
	for _, name := range workloads.Names {
		for _, lvl := range []codefile.AccelLevel{
			codefile.LevelStmtDebug, codefile.LevelDefault, codefile.LevelFast,
		} {
			w, err := workloads.Build(name, 2)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Options{Level: lvl, LibSummaries: w.LibSummaries,
				Backend: ob0.Default}
			if err := core.Accelerate(w.User, opts); err != nil {
				t.Fatalf("%s/%v: %v", name, lvl, err)
			}
			got[fmt.Sprintf("ob0/%s/%v/user", name, lvl)] = accelContentHash(w.User.Accel)
			if w.Lib != nil {
				libOpts := core.Options{Level: lvl, Backend: ob0.Default,
					CodeBase: millicode.LibCodeBase, Space: 1}
				if err := core.Accelerate(w.Lib, libOpts); err != nil {
					t.Fatalf("%s/%v lib: %v", name, lvl, err)
				}
				got[fmt.Sprintf("ob0/%s/%v/lib", name, lvl)] = accelContentHash(w.Lib.Accel)
			}
		}
	}
	checkGolden(t, filepath.Join("testdata", "backend_golden.json"), got)
}

// checkGolden compares got against the JSON golden at path, or rewrites
// the golden when GOLDEN_REGEN=1.
func checkGolden(t *testing.T, goldenPath string, got map[string]string) {
	t.Helper()
	if os.Getenv("GOLDEN_REGEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d entries)", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with GOLDEN_REGEN=1 on the "+
			"pre-refactor tree): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for key, wh := range want {
		if got[key] != wh {
			t.Errorf("%s: content hash changed: got %s want %s",
				key, got[key], wh)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: not in golden file (stale goldens?)", key)
		}
	}
}

// milliContentHash hashes a millicode image: its words, then its labels in
// name order.
func milliContentHash(code []uint32, labels map[string]uint32) string {
	h := sha256.New()
	fmt.Fprintf(h, "code=%d\n", len(code))
	binary.Write(h, binary.BigEndian, code)
	names := make([]string, 0, len(labels))
	for name := range labels {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(h, "labels=%d\n", len(names))
	for _, name := range names {
		fmt.Fprintf(h, "%s=%d\n", name, labels[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// accelContentHash hashes every output-bearing field of an acceleration
// section in a canonical order. Deliberately independent of the codefile
// serialization format, so a format-version bump (e.g. adding the backend
// tag) does not disturb the refactor-is-a-no-op proof.
func accelContentHash(a *codefile.AccelSection) string {
	h := sha256.New()
	be := func(v any) { binary.Write(h, binary.BigEndian, v) }
	fmt.Fprintf(h, "level=%d\n", a.Level)
	fmt.Fprintf(h, "risc=%d\n", len(a.RISC))
	be(a.RISC)
	fmt.Fprintf(h, "entries=%d\n", len(a.Entries))
	be(a.Entries)
	fmt.Fprintf(h, "exprp=%d\n", len(a.ExpectedRP))
	h.Write(a.ExpectedRP)
	pm := a.PMap.Pack()
	fmt.Fprintf(h, "pmap=%d\n", len(pm))
	h.Write(pm)
	fmt.Fprintf(h, "stats=%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
		a.Stats.TNSInstrs, a.Stats.TableWords, a.Stats.RISCInstrs,
		a.Stats.RPChecks, a.Stats.GuessedProcs, a.Stats.PuzzlePoints,
		a.Stats.WeldedStmts, a.Stats.FilledSlots, a.Stats.ElidedFlagOps)
	addrs := make([]uint16, 0, len(a.FallbackWhy))
	for addr := range a.FallbackWhy {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	fmt.Fprintf(h, "why=%d\n", len(addrs))
	for _, addr := range addrs {
		fmt.Fprintf(h, "%d=%d\n", addr, a.FallbackWhy[addr])
	}
	return hex.EncodeToString(h.Sum(nil))
}
