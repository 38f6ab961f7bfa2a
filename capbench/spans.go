package main

import (
	"sort"

	"mpdash/internal/obs"
)

// spanStats is what the client-side span traces of one pass say about
// the fetcher: the per-layer numbers the untraced run cannot see.
type spanStats struct {
	chunks int
	// waitMS sums, per chunk, the fetch-span time during which no
	// primary segment was in flight: time FetchChunk spent on neither
	// the preferred path's transfer nor anything it was waiting for.
	waitMS float64
	// segMS holds every segment span's duration.
	segMS []float64
	// engaged counts chunks with at least one secondary-path segment.
	engaged int
	// fillMS sums, per chunk, the union of its origin-fill spans: time
	// the chunk's requests spent waiting on an edge's origin fill.
	fillMS float64
}

// interval is a half-open [start, end) span in trace microseconds.
type interval struct{ start, end int64 }

// coveredWithin returns how much of [lo, hi) the union of ivs covers.
func coveredWithin(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered, reach int64 = 0, lo
	for _, iv := range clipped {
		if iv.end <= reach {
			continue
		}
		covered += iv.end - max(iv.start, reach)
		reach = iv.end
	}
	return covered
}

// primaryPath and secondaryPath are the path names Fetcher stamps on
// its segment spans.
const (
	primaryPath   = "primary"
	secondaryPath = "secondary"
)

// analyzeTraces reduces the kept per-chunk traces to spanStats.
func analyzeTraces(recs []*obs.TraceRecord) spanStats {
	var st spanStats
	for _, rec := range recs {
		var fetch *obs.SpanRecord
		var primary, fills []interval
		secondary := false
		for i := range rec.Spans {
			sp := &rec.Spans[i]
			iv := interval{sp.StartUS, sp.StartUS + sp.DurUS}
			switch sp.Category {
			case obs.CatFetch:
				fetch = sp
			case obs.CatSegment:
				st.segMS = append(st.segMS, float64(sp.DurUS)/1e3)
				switch sp.Path {
				case primaryPath:
					primary = append(primary, iv)
				case secondaryPath:
					secondary = true
				}
			case obs.CatCache:
				fills = append(fills, iv)
			}
		}
		if fetch == nil {
			continue
		}
		st.chunks++
		lo, hi := fetch.StartUS, fetch.StartUS+fetch.DurUS
		st.waitMS += float64(fetch.DurUS-coveredWithin(primary, lo, hi)) / 1e3
		st.fillMS += float64(coveredWithin(fills, lo, hi)) / 1e3
		if secondary {
			st.engaged++
		}
	}
	return st
}
