package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"runtime/pprof"
	"testing"
	"time"
)

// protoBuf encodes the handful of profile.proto fields the reader uses.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *protoBuf) uintField(field int, v uint64) {
	p.varint(uint64(field)<<3 | 0)
	p.varint(v)
}

func (p *protoBuf) bytesField(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

type testSample struct {
	count  uint64
	stack  [][]string // locations leaf first; each holds its frames, inlined first
	labels map[string]string
}

// encodeProfile builds a gzip-compressed profile.proto from samples.
func encodeProfile(t *testing.T, samples []testSample) []byte {
	t.Helper()
	strs := []string{""}
	idx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return i
		}
		idx[s] = uint64(len(strs))
		strs = append(strs, s)
		return idx[s]
	}
	var prof protoBuf
	funcs := map[string]uint64{}
	var locID uint64
	for _, s := range samples {
		var sm protoBuf
		var locIDs protoBuf
		for _, frames := range s.stack {
			locID++
			var loc protoBuf
			loc.uintField(1, locID)
			for _, fn := range frames {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					var f protoBuf
					f.uintField(1, id)
					f.uintField(2, str(fn))
					prof.bytesField(5, f.b)
				}
				var line protoBuf
				line.uintField(1, id)
				loc.bytesField(4, line.b)
			}
			prof.bytesField(4, loc.b)
			locIDs.varint(locID)
		}
		sm.bytesField(1, locIDs.b) // packed location ids
		var vals protoBuf
		vals.varint(s.count)
		vals.varint(s.count * 2e6)
		sm.bytesField(2, vals.b)
		for k, v := range s.labels {
			var l protoBuf
			l.uintField(1, str(k))
			l.uintField(2, str(v))
			sm.bytesField(3, l.b)
		}
		prof.bytesField(2, sm.b)
	}
	prof.uintField(12, 2e6) // period
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestAggregateByLabelAndPackage(t *testing.T) {
	samples := []testSample{
		{3, [][]string{{"runtime.memmove"}, {"mpdash/internal/netmp.(*Fetcher).requestRange"}, {"main.fetchChunk"}},
			map[string]string{layerKey: labelFetcher}},
		{2, [][]string{{"syscall.Syscall"}, {"internal/poll.(*FD).Write"}, {"runtime.goexit"}}, nil},
		// An inlined cache call inside an edge frame: the leaf-most
		// program frame is the inlined one.
		{5, [][]string{{"runtime.mapaccess2"}, {"mpdash/internal/cache.(*Cache).shardFor", "mpdash/internal/netmp.(*EdgeServer).chunkBody"}},
			map[string]string{layerKey: labelEdge}},
		{1, [][]string{{"mpdash.Fig7ResourceSavings"}}, map[string]string{layerKey: "repro.fig7"}},
		{4, [][]string{{"mpdash/internal/obs.load[go.shape.*uint8]"}, {"mpdash/internal/sim.(*Sim).Run"}},
			map[string]string{layerKey: "repro.field"}},
		// The benchmark's own code stops the walk: the sample is not
		// charged to the program package that happens to sit below it.
		{6, [][]string{{"runtime.mallocgc"}, {"main.analyzeTraces"}, {"mpdash/internal/netmp.(*Fetcher).FetchChunk"}},
			map[string]string{layerKey: labelBench}},
	}
	prof, err := parseCPUProfile(encodeProfile(t, samples))
	if err != nil {
		t.Fatal(err)
	}
	if prof.total() != 21 || prof.periodNS != 2e6 {
		t.Fatalf("total %d period %d, want 21 and 2e6", prof.total(), prof.periodNS)
	}

	labels := map[string]int64{}
	for v, n := range prof.byLabel(layerKey) {
		labels[labelBucket(v)] += n
	}
	wantLabels := map[string]int64{labelFetcher: 3, unlabelled: 2, labelEdge: 5, labelRepro: 5, labelBench: 6}
	assertCounts(t, "label", labels, wantLabels, prof.total())

	wantPkgs := map[string]int64{"netmp": 3, otherPackage: 8, "cache": 5, "mpdash": 1, "obs": 4}
	assertCounts(t, "package", prof.byPackage(), wantPkgs, prof.total())
}

func assertCounts(t *testing.T, what string, got, want map[string]int64, total int64) {
	t.Helper()
	var sum int64
	for k, n := range got {
		sum += n
		if n != want[k] {
			t.Errorf("%s %q: %d samples, want %d", what, k, n, want[k])
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s %q missing", what, k)
		}
	}
	if sum != total {
		t.Errorf("%s buckets sum to %d, profile holds %d", what, sum, total)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"mpdash/internal/netmp.(*Fetcher).FetchChunk.func1": "mpdash/internal/netmp",
		"mpdash.Fig4SchedulerComparison":                    "mpdash",
		"mpdash/internal/obs.f[go.shape.struct { a/b.c }]":  "mpdash/internal/obs",
		"runtime.mallocgc":                                  "runtime",
		"main.main":                                         "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestParseRealProfile reads what runtime/pprof writes, with labels set
// the way the traced pass sets them.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	var sink uint64
	pprof.Do(context.Background(), pprof.Labels(layerKey, labelServer), func(context.Context) {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			for i := 0; i < 1e5; i++ {
				sink += uint64(i) * sink
			}
		}
	})
	pprof.StopCPUProfile()
	_ = sink
	prof, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byLabel := prof.byLabel(layerKey)
	var sum int64
	for _, n := range byLabel {
		sum += n
	}
	if sum != prof.total() || prof.total() == 0 {
		t.Fatalf("label buckets sum to %d of %d samples", sum, prof.total())
	}
	if byLabel[labelServer] == 0 {
		t.Errorf("no samples carry the %s label: %v", labelServer, byLabel)
	}
	if prof.periodNS <= 0 {
		t.Errorf("period %d", prof.periodNS)
	}
}
