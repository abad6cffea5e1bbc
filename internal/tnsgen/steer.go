package tnsgen

import (
	"fmt"
	"math/rand"

	"tnsr/internal/obs"
)

// SteerConfig draws a random configuration, then forces on the features
// that can produce the escape-reason classes the campaign has not yet seen
// at run time. This is the coverage-guidance loop: the obs histogram feeds
// back into what the generator emits next.
func SteerConfig(cov *Coverage, d Decider) Config {
	cfg := RandomConfig(d)
	for _, r := range cov.Missing() {
		switch r {
		case obs.EscapeRPConflict:
			cfg.WrongGuess = true
		case obs.EscapeComputedJump:
			cfg.PuzzleJoin = true
		case obs.EscapeUnmapped, obs.EscapeUntranslated, obs.EscapeIndirectCall:
			cfg.Cold = true
			cfg.Indirect = true
		case obs.EscapeTrap:
			cfg.Trap = true
		case obs.EscapeBreakpoint:
			cfg.Break = true
		}
	}
	return cfg
}

// Campaign runs N generated programs through the oracle, accumulating
// coverage and failures. With Steer set, each program's configuration is
// drawn by SteerConfig against the coverage so far; otherwise purely at
// random. Identical campaign parameters reproduce the identical campaign.
type Campaign struct {
	Seed  int64
	N     int
	Steer bool
	// LibraryEvery makes every k-th program a user+library pair (0 =
	// never).
	LibraryEvery int
	// ChaosEvery adds a chaos pass (ChaosMutants mutants) to every k-th
	// program's oracle (0 = never).
	ChaosEvery   int
	ChaosMutants int
	// AdaptiveEvery adds a RunAdaptiveOpts cycle to every k-th program's
	// oracle (0 = never).
	AdaptiveEvery int

	Oracle OracleOptions

	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// Failure is one program the oracle rejected, with everything needed to
// reproduce and minimize it.
type Failure struct {
	Name    string
	Seed    int64
	Config  Config
	Program *Program
	Err     string
}

// CampaignResult is the aggregate outcome.
type CampaignResult struct {
	Programs     int
	Passes       int
	BPHits       int
	ChaosMutants int
	Coverage     Coverage
	Failures     []Failure
}

// Run executes the campaign.
func (c *Campaign) Run() *CampaignResult {
	out := &CampaignResult{}
	for i := 0; i < c.N; i++ {
		seed := c.Seed + int64(i)
		// A separate stream for configuration decisions, so the program
		// stream stays aligned with the standalone Generate(seed, cfg).
		cfgRand := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
		var cfg Config
		if c.Steer {
			cfg = SteerConfig(&out.Coverage, cfgRand)
		} else {
			cfg = RandomConfig(cfgRand)
		}
		if c.LibraryEvery > 0 && i%c.LibraryEvery == c.LibraryEvery-1 {
			cfg = Config{Library: true}
		}
		name := fmt.Sprintf("gen%d", seed)
		p := Generate(name, seed, cfg)

		o := c.Oracle
		if c.ChaosEvery > 0 && i%c.ChaosEvery == c.ChaosEvery-1 {
			o.Chaos = c.ChaosMutants
			if o.Chaos == 0 {
				o.Chaos = 13
			}
			o.ChaosSeed = seed
		}
		if c.AdaptiveEvery > 0 && i%c.AdaptiveEvery == c.AdaptiveEvery-1 {
			o.Adaptive = true
		}

		res, err := RunOracle(p.Subject(), o)
		out.Programs++
		if res != nil {
			out.Passes += res.Passes
			out.BPHits += res.BPHits
			out.ChaosMutants += res.ChaosMutants
			out.Coverage.Merge(&res.Coverage)
		}
		if err != nil {
			out.Failures = append(out.Failures, Failure{
				Name: name, Seed: seed, Config: cfg, Program: p, Err: err.Error(),
			})
			if c.Log != nil {
				c.Log("FAIL %s (seed %d): %v", name, seed, err)
			}
		}
		if c.Log != nil && (i+1)%50 == 0 {
			c.Log("%d/%d programs, %d passes, %d failures, runtime classes: %s",
				i+1, c.N, out.Passes, len(out.Failures), out.Coverage.Mask())
		}
	}
	return out
}
