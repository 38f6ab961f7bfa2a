package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"time"

	"mpdash"
	"mpdash/internal/field"
	"mpdash/internal/obs"
)

// reproChunks is the fixed, reduced session length every chunk-taking
// experiment runs at (mpdash-tables defaults to 150). At 5 chunks one
// full set takes ~0.65 s on a 2-core Xeon, so a 15 s pass repeats it
// ~20 times and the p95 over experiment calls has enough samples.
const reproChunks = 5

// experiment is one call behind mpdash-tables -all, returning its
// result rows for the reference check.
type experiment struct {
	name string
	run  func() (any, error)
}

// experiments lists the calls behind mpdash-tables -all, in its order,
// with the arguments it passes (chunk counts reduced to reproChunks).
// The static tables (Table 1, Table 3) compute nothing and are left out.
func experiments() []experiment {
	return []experiment{
		{"fig1", func() (any, error) { return mpdash.Fig1VanillaThroughput(20) }},
		{"fig3", func() (any, error) { return mpdash.Fig3BBAOscillation(reproChunks) }},
		{"fig4", func() (any, error) { return mpdash.Fig4SchedulerComparison() }},
		{"alpha", func() (any, error) { return mpdash.AlphaSweep() }},
		{"table2", func() (any, error) { return mpdash.Table2OnlineVsOptimal() }},
		{"fig5", func() (any, error) {
			var sets []*mpdash.SeriesSet
			for _, loc := range []string{"Fast Food B", "Coffeehouse D"} {
				s, err := mpdash.Fig5Prediction(loc, 35)
				if err != nil {
					return nil, err
				}
				sets = append(sets, s)
			}
			return sets, nil
		}},
		{"table4", func() (any, error) { return mpdash.Table4Throttling(reproChunks) }},
		{"fig7", func() (any, error) { return mpdash.Fig7ResourceSavings(reproChunks) }},
		{"field", func() (any, error) {
			s, err := mpdash.RunFieldStudySummary(reproChunks)
			if err != nil {
				return nil, err
			}
			t5, err := mpdash.Table5Representative(s.Study)
			if err != nil {
				return nil, err
			}
			// What mpdash-tables prints (percentiles, the Fig. 9/10 CDFs,
			// Table 5), not the raw per-session study, which encodes to
			// ~67 MB.
			out := fieldOutput{
				Savings:    s.SavingsPercentiles,
				Energy:     s.EnergyPercentiles,
				NoBitrate:  s.NoBitrateReductionFrac,
				SavingsCDF: map[string]any{},
				BitrateCDF: map[string]any{},
				Table5:     t5,
			}
			for _, k := range field.SchemeKeys() {
				out.SavingsCDF[string(k)] = s.Study.SavingsCDF(k)
				out.BitrateCDF[string(k)] = s.Study.BitrateReductionCDF(k)
			}
			return out, nil
		}},
		{"fig11", func() (any, error) { return mpdash.Fig11MobilityExperiment(reproChunks) }},
		{"table6", func() (any, error) { return mpdash.Table6HDVideo(reproChunks) }},
		{"ablations", func() (any, error) {
			phi, err := mpdash.AblationPhiOmega(reproChunks)
			if err != nil {
				return nil, err
			}
			pred, err := mpdash.AblationPredictor()
			return []any{phi, pred}, err
		}},
	}
}

// fieldOutput is the field study's reproduced output.
type fieldOutput struct {
	Savings, Energy        [3]float64
	NoBitrate              float64
	SavingsCDF, BitrateCDF map[string]any
	Table5                 []mpdash.Table5Row
}

// referenceJSON holds the SHA-256 of each experiment's JSON-encoded
// result, recorded from the code this benchmark was written against
// (refresh with --record-reference after an intended output change, and
// say why in the change).
//
//go:embed repro_reference.json
var referenceJSON []byte

// render encodes an experiment result canonically. encoding/json sorts
// map keys and prints floats in their shortest exact form, so equal
// results render to equal bytes.
func render(v any) ([]byte, error) {
	return json.Marshal(v)
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkReference compares one experiment's rendered output with the
// recorded reference.
func checkReference(ref map[string]string, name string, out []byte) error {
	want, ok := ref[name]
	if !ok {
		return fmt.Errorf("repro %s: no reference recorded", name)
	}
	if got := digest(out); got != want {
		return fmt.Errorf("repro %s: output digest %s, reference %s", name, got, want)
	}
	return nil
}

// recordReference runs every experiment once and returns the reference
// file's content.
func recordReference() ([]byte, error) {
	ref := map[string]string{}
	for _, x := range experiments() {
		v, err := x.run()
		if err != nil {
			return nil, fmt.Errorf("repro %s: %w", x.name, err)
		}
		out, err := render(v)
		if err != nil {
			return nil, fmt.Errorf("repro %s: %w", x.name, err)
		}
		ref[x.name] = digest(out)
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	return append(b, '\n'), err
}

// simEnv is the sim_repro workload: no sockets, the experiment set run
// back to back in a seeded order.
type simEnv struct {
	exps   []experiment
	ref    map[string]string
	seed   int64 // every pass replays the same order from it
	output int64 // reference-checked output bytes
}

// simWarmup is the experiment a fresh sim env runs once before it is
// timed: it touches the simulator, TCP, MPTCP and scheduler code.
const simWarmup = "fig4"

func setupSimRepro(seed int64) (env, error) {
	e := &simEnv{exps: experiments(), seed: seed}
	if err := json.Unmarshal(referenceJSON, &e.ref); err != nil {
		return nil, fmt.Errorf("repro reference: %w", err)
	}
	warm := newRecorder(0, false)
	for _, x := range e.exps {
		if x.name == simWarmup {
			e.call(warm, x)
		}
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %v", warm.errs)
	}
	return e, nil
}

// call runs one experiment, checks its output and returns how long the
// experiment itself took (rendering and hashing the output excluded).
func (e *simEnv) call(rec *recorder, x experiment) time.Duration {
	var (
		v   any
		err error
	)
	t0 := time.Now()
	if rec.traced {
		pprof.Do(context.Background(), pprof.Labels(layerKey, labelRepro+"."+x.name), func(context.Context) {
			v, err = x.run()
		})
	} else {
		v, err = x.run()
	}
	el := time.Since(t0)
	rec.ops++
	var out []byte
	if err == nil {
		out, err = render(v)
	}
	if err == nil {
		err = checkReference(e.ref, x.name, out)
	}
	if err != nil {
		rec.fail("%v", err)
		return el
	}
	rec.noteLatency(func() string { return x.name }, float64(el.Nanoseconds())/1e6)
	rec.perExpS[x.name] = append(rec.perExpS[x.name], el.Seconds())
	rec.payload += int64(len(out))
	e.output += int64(len(out))
	if rows, ok := v.([]mpdash.Table4Row); ok {
		for _, r := range rows {
			if r.Config == "MP-DASH" {
				rec.cellShare = r.CellPct / 100
			}
		}
	}
	return el
}

func (e *simEnv) loop(rec *recorder, _ *obs.Tracer) error {
	rng := rand.New(rand.NewSource(e.seed))
	var set time.Duration
	for !rec.enough(set) {
		t0 := time.Now()
		var work time.Duration
		for _, i := range rng.Perm(len(e.exps)) {
			work += e.call(rec, e.exps[i])
		}
		set = time.Since(t0)
		rec.batchS = append(rec.batchS, work.Seconds())
	}
	return nil
}

// counters: the simulator has no cache tier, so every output byte counts
// as an origin byte served once.
func (e *simEnv) counters() map[string]float64 {
	return map[string]float64{ctrTierOrigin: float64(e.output), ctrTierServed: float64(e.output)}
}

func (e *simEnv) check() error { return nil }
func (e *simEnv) close() error { return nil }
