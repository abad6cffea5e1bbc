package bench

import (
	"fmt"
	"os"

	"tnsr/internal/codefile"
	"tnsr/internal/obs"
	"tnsr/internal/pgo"
	"tnsr/internal/tns"
	"tnsr/internal/xrun"
)

// CaptureWorkload runs the named workload or example exactly like
// ProfileWorkload, but with a PGO capture attached alongside the telemetry
// recorder, and returns the captured profile with the execution report.
// This is what `tnsprof -emit-profile` writes to disk.
func CaptureWorkload(name string, level codefile.AccelLevel, iterations int) (*pgo.Profile, *obs.Report, error) {
	return CaptureWorkloadOpts(name, level, iterations, xrun.AdaptiveOptions{})
}

// CaptureWorkloadOpts is CaptureWorkload with the fleet knobs exposed: a
// Source pushes the capture through a tnsprofd daemon (the second pass then
// runs under the fleet aggregate, `tnsprof -push`), a Cache serves the
// translations. Level, Budget and Config in o are overwritten from the
// workload parameters.
func CaptureWorkloadOpts(name string, level codefile.AccelLevel, iterations int,
	o xrun.AdaptiveOptions) (*pgo.Profile, *obs.Report, error) {

	user, lib, summaries, err := buildProfiled(name, iterations)
	if err != nil {
		return nil, nil, err
	}
	o.Level = level
	o.Budget = 4_000_000_000
	o.Config = CycloneRConfig()
	o.LibSummaries = summaries
	res, err := xrun.RunAdaptiveOpts(user, lib, o)
	if err != nil {
		return nil, nil, err
	}
	for _, serr := range res.SourceErrs {
		fmt.Fprintf(os.Stderr, "warning: %v\n", serr)
	}
	if res.Trap != tns.TrapNone {
		return nil, nil, fmt.Errorf("%s: trap %d at %d", name, res.Trap, res.TrapP)
	}
	res.Profile.Workload = name
	rep := res.Second.Report(res.SecondObs)
	rep.Workload = name
	return res.Profile, rep, nil
}

// AdaptiveAdversarial runs the observe -> retranslate -> rerun cycle on the
// adversarial program (wrong XCAL result-size guess, no hints): the pass-1
// run escapes at every indirect call's return point; the captured dynamic
// RP corrects the guess in pass 2, which should drive rp-conflict escapes
// to zero and shrink interpreter-mode residency — the automated version of
// the hand-written hints AdversarialResidency measures.
func AdaptiveAdversarial(budget int64) (*xrun.AdaptiveResult, error) {
	f, err := adversarialProgram()
	if err != nil {
		return nil, err
	}
	return xrun.RunAdaptiveOpts(f, nil, xrun.AdaptiveOptions{
		Level: codefile.LevelDefault, Budget: budget, Config: CycloneRConfig(),
	})
}

// AdversarialProgram builds a fresh copy of the adversarial workload — the
// program whose XCAL result sizes static analysis must guess wrong — for
// callers (the fleet e2e harness) that need the codefile itself rather
// than a canned cycle.
func AdversarialProgram() (*codefile.File, error) {
	return adversarialProgram()
}

// AdaptiveAdversarialOpts is AdaptiveAdversarial with the fleet knobs
// exposed: a remote profile source and/or a persistent retranslation
// cache, threaded straight into RunAdaptiveOpts.
func AdaptiveAdversarialOpts(budget int64, o xrun.AdaptiveOptions) (*xrun.AdaptiveResult, error) {
	f, err := adversarialProgram()
	if err != nil {
		return nil, err
	}
	o.Level = codefile.LevelDefault
	o.Budget = budget
	o.Config = CycloneRConfig()
	return xrun.RunAdaptiveOpts(f, nil, o)
}
