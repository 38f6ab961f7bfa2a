package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {99.9, 100}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailMean(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..200
	}
	// p95 of 200 is the 190th value; the ten beyond it are 191..200.
	if got := tailMean(xs, 95); got != 195.5 {
		t.Errorf("tailMean p95 of 1..200 = %g, want 195.5", got)
	}
	if !math.IsNaN(tailMean(xs[:1], 95)) {
		t.Error("tailMean with nothing beyond should be NaN")
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // not even a median with ten samples above it
		{20, 50, true},
		{199, 90, true}, // p95 would leave 9 beyond
		{200, 95, true},
		{999, 95, true}, // p99 would leave 9 beyond
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestMinOpsSupportsP95(t *testing.T) {
	// The p95 metric means something only because every pass runs at
	// least minOps ops, and minOps is the fewest that do.
	if beyond(minOps, 95) < minBeyond || beyond(minOps-1, 95) >= minBeyond {
		t.Errorf("minOps=%d leaves %d samples beyond p95, minOps-1 leaves %d",
			minOps, beyond(minOps, 95), beyond(minOps-1, 95))
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}
