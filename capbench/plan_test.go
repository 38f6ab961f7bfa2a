package main

import (
	"math/rand"
	"testing"

	"mpdash/internal/obs"
)

func TestZipfCounts(t *testing.T) {
	got := zipfCounts(zipfS, 4, cycleSessions)
	want := []int{5, 2, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("zipfCounts = %v, want %v", got, want)
		}
	}
}

// TestCyclePlanHoldsOneTopRungHDSession pins the property that keeps
// edge_zipf runs with different seeds comparable: every cycle holds
// exactly one session of the HD title's top rung.
func TestCyclePlanHoldsOneTopRungHDSession(t *testing.T) {
	titles := edgeTitles()
	if titles[0].Name != "Tears of Steel HD" {
		t.Fatalf("rank 1 is %q", titles[0].Name)
	}
	top := len(titles[0].Levels) - 1
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for c := 0; c < 3; c++ {
			plan := cyclePlan(rng, titles)
			n := 0
			for _, s := range plan {
				if s.title == 0 && s.level == top {
					n++
				}
			}
			if len(plan) != cycleSessions || n != 1 {
				t.Fatalf("seed %d cycle %d: %d sessions, %d top-rung HD", seed, c, len(plan), n)
			}
		}
	}
}

func TestAnalyzeTraces(t *testing.T) {
	rec := &obs.TraceRecord{Spans: []obs.SpanRecord{
		{Category: obs.CatFetch, StartUS: 0, DurUS: 1000},
		{Category: obs.CatSegment, Path: primaryPath, StartUS: 100, DurUS: 200},
		{Category: obs.CatSegment, Path: primaryPath, StartUS: 250, DurUS: 150}, // overlaps the first
		{Category: obs.CatSegment, Path: secondaryPath, StartUS: 100, DurUS: 500},
		{Category: obs.CatCache, StartUS: 100, DurUS: 400},
		{Category: obs.CatCache, StartUS: 900, DurUS: 300}, // runs past the fetch span
	}}
	st := analyzeTraces([]*obs.TraceRecord{rec, {}})
	if st.chunks != 1 || st.engaged != 1 || len(st.segMS) != 3 {
		t.Fatalf("chunks %d engaged %d segments %d", st.chunks, st.engaged, len(st.segMS))
	}
	// Primary segments cover [100, 400): 700 µs of the fetch has none.
	if st.waitMS != 0.7 {
		t.Errorf("waitMS = %g, want 0.7", st.waitMS)
	}
	// Fills cover [100, 500) and [900, 1000) within the fetch.
	if st.fillMS != 0.5 {
		t.Errorf("fillMS = %g, want 0.5", st.fillMS)
	}
}
