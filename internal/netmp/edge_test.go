package netmp

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mpdash/internal/cache"
	"mpdash/internal/dash"
	"mpdash/internal/obs"
)

// edgeRig stands up origin → edge → store (under cfg) for one video.
func edgeRig(t *testing.T, cfg cache.Config, pol EdgePolicy) (*ChunkServer, *EdgeServer, *cache.Cache) {
	t.Helper()
	video := dash.BigBuckBunny()
	origin, err := NewChunkServer(video, 0)
	if err != nil {
		t.Fatal(err)
	}
	store := cache.New(cfg)
	edge, err := NewEdgeServer(video, "bbb", []string{origin.Addr()}, store, pol)
	if err != nil {
		origin.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		edge.Close()
		origin.Close()
	})
	return origin, edge, store
}

func TestEdgeValidation(t *testing.T) {
	video := dash.BigBuckBunny()
	store := cache.New(cache.Config{})
	if _, err := NewEdgeServer(video, "v", nil, store, EdgePolicy{}); err == nil {
		t.Error("edge with no origins accepted")
	}
	if _, err := NewEdgeServer(video, "v", []string{"127.0.0.1:1"}, nil, EdgePolicy{}); err == nil {
		t.Error("edge with no store accepted")
	}
}

func TestEdgeServesVerifiedChunksAndHints(t *testing.T) {
	// Hedging off end to end: the byte ledgers below are exact only when
	// no duplicate (loser) requests can be issued.
	origin, edge, store := edgeRig(t, cache.Config{}, EdgePolicy{Hedge: HedgePolicy{Disabled: true}})
	video := edge.Video
	f, err := NewFetcher(video, edge.Addr(), edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Hedge.Disabled = true

	size := video.ChunkSize(0, 0)
	res, err := f.FetchChunk(0, 0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Size != size {
		t.Fatalf("cold fetch: verified=%v size=%d want %d", res.Verified, res.Size, size)
	}
	// The cold chunk cost the origin exactly one whole-chunk fill, even
	// though the client split it into two range requests.
	if st := store.Stats(); st.Fills != 1 {
		t.Fatalf("cold fetch ran %d fills", st.Fills)
	}
	if got := edge.OriginBytes(); got != size {
		t.Errorf("origin bytes = %d, want one chunk (%d)", got, size)
	}
	if got := origin.ServedBytes(); got != size {
		t.Errorf("origin served %d bytes, want %d", got, size)
	}

	// Warm fetch: served from the store, hint header says hit, and the
	// client's per-chunk knowledge goes exact.
	res, err = f.FetchChunk(0, 0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("warm fetch not verified")
	}
	if st := store.Stats(); st.Fills != 1 {
		t.Errorf("warm fetch refilled: %d fills", st.Fills)
	}
	if got := edge.OriginBytes(); got != size {
		t.Errorf("warm fetch pulled origin bytes: %d", got)
	}
	if p := f.cacheHitProb(0); p != 1 {
		t.Errorf("hit-hinted chunk probability = %v, want 1", p)
	}
	if !f.cacheHot(0) {
		t.Error("hit-hinted chunk not hot")
	}
	if got := edge.ServedBytes(); got != 2*size {
		t.Errorf("edge served %d bytes, want %d", got, 2*size)
	}
}

// TestEdgeSingleflight64Fetchers is the collapse contract under -race:
// 64 concurrent clients missing the same cold chunk produce exactly one
// origin request, and every client still gets byte-for-byte verified
// payload (zero ledger violations).
func TestEdgeSingleflight64Fetchers(t *testing.T) {
	origin, edge, store := edgeRig(t, cache.Config{}, EdgePolicy{FillFetchers: 2, Hedge: HedgePolicy{Disabled: true}})
	video := edge.Video
	const n = 64

	fetchers := make([]*Fetcher, n)
	for i := range fetchers {
		f, err := NewFetcher(video, edge.Addr(), edge.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		f.Hedge.Disabled = true
		fetchers[i] = f
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	results := make([]*FetchResult, n)
	for i, f := range fetchers {
		wg.Add(1)
		go func(i int, f *Fetcher) {
			defer wg.Done()
			results[i], errs[i] = f.FetchChunk(3, 1, 30*time.Second)
		}(i, f)
	}
	wg.Wait()

	size := video.ChunkSize(3, 1)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("fetcher %d: %v", i, errs[i])
		}
		if !results[i].Verified || results[i].Size != size {
			t.Fatalf("fetcher %d: verified=%v size=%d want %d",
				i, results[i].Verified, results[i].Size, size)
		}
	}
	// Exactly one origin request for the whole stampede.
	if st := store.Stats(); st.Fills != 1 {
		t.Errorf("stampede ran %d origin fills, want 1", st.Fills)
	}
	if got := origin.ServedBytes(); got != size {
		t.Errorf("origin served %d bytes, want exactly one chunk (%d)", got, size)
	}
	if got := edge.OriginBytes(); got != size {
		t.Errorf("edge charged %d origin bytes, want %d", got, size)
	}
	// Every client's payload was served in full.
	if got := edge.ServedBytes(); got != int64(n)*size {
		t.Errorf("edge served %d bytes, want %d", got, int64(n)*size)
	}
	if st := store.Stats(); st.Misses != 1+st.Collapsed {
		t.Errorf("misses (%d) != leader + collapsed (%d)", st.Misses, 1+st.Collapsed)
	}
}

func TestEdgeFillFailureSurfacesAsError(t *testing.T) {
	origin, edge, _ := edgeRig(t, cache.Config{}, EdgePolicy{FillWindow: time.Second})
	video := edge.Video
	// Kill the backhaul: every miss now exhausts the origin set.
	origin.Close()

	f, err := NewFetcher(video, edge.Addr(), edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.FetchChunk(0, 0, 3*time.Second); err == nil {
		t.Fatal("fetch through a backhaul-dead edge succeeded")
	}
	if edge.FillErrors() == 0 {
		t.Error("failed fills not counted")
	}
}

// settleEqual waits briefly for two byte counters to agree: the origin
// counts a block only after flushing it, so its tally can trail the
// edge's by a scheduling quantum after the client already has the data.
func settleEqual(a, b func() int64) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if a() == b() {
			return true
		}
	}
	return a() == b()
}

// TestEdgePassesInadmissibleChunkThrough is the refill regression: a
// chunk the store can never admit (here, larger than its only shard)
// must cost the origin exactly its own size, pulled range by range —
// not one whole-chunk fill per range request, each thrown away by Put.
func TestEdgePassesInadmissibleChunkThrough(t *testing.T) {
	origin, edge, store := edgeRig(t, cache.Config{Shards: 1, CapacityBytes: 64 << 10},
		EdgePolicy{Hedge: HedgePolicy{Disabled: true}})
	video := edge.Video
	tel := obs.New()
	edge.Instrument(tel)
	f, err := NewFetcher(video, edge.Addr(), edge.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Hedge.Disabled = true

	size := video.ChunkSize(0, 0)
	k := cache.Key{Video: "bbb", Level: 0, Chunk: 0}
	if segs := (size + f.SegmentSize - 1) / f.SegmentSize; segs < 3 || store.Admits(k, size) {
		t.Fatalf("rig: chunk of %d bytes (%d segments) must span several segments and be inadmissible", size, segs)
	}
	res, err := f.FetchChunk(0, 0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Size != size {
		t.Fatalf("verified=%v size=%d want %d", res.Verified, res.Size, size)
	}
	if !settleEqual(edge.OriginBytes, origin.ServedBytes) {
		t.Errorf("origin sent %d bytes, edge charged %d", origin.ServedBytes(), edge.OriginBytes())
	}
	if got := edge.OriginBytes(); got != size {
		t.Errorf("origin bytes = %d, want one chunk (%d)", got, size)
	}
	if got := edge.BypassBytes(); got != size {
		t.Errorf("bypass bytes = %d, want %d", got, size)
	}
	var b strings.Builder
	if err := tel.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("cache_edge_bypass_bytes_total{edge=%q} %d\n", edge.Addr(), size); !strings.Contains(b.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}
	if _, ok := store.Get(k); ok {
		t.Error("inadmissible chunk is resident")
	}
	if st := store.Stats(); st.Fills != 0 || st.Hits+st.Misses != 0 {
		t.Errorf("pass-through touched the store: %+v", st)
	}
	// Every response said miss: the session prior (what the next
	// chunk's estimate starts from) is still exactly 0.
	f.chint.mu.Lock()
	seeded, prior := f.chint.seeded, f.chint.prior
	f.chint.mu.Unlock()
	if !seeded || prior != 0 {
		t.Errorf("hint prior seeded=%v value=%v, want a seen, all-miss prior", seeded, prior)
	}
	if p := f.cacheHitProb(0); p != 0 {
		t.Errorf("hit probability = %v, want 0", p)
	}
}

// TestEdgeOriginLedgerCountsWastedBytes: with an origin that corrupts
// payloads, the edge's origin-byte ledger must still match what the
// origin actually sent — discarded attempts included — on both the
// whole-chunk fill path and the pass-through path.
func TestEdgeOriginLedgerCountsWastedBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  cache.Config
	}{
		{"admissible", cache.Config{}},
		{"inadmissible", cache.Config{Shards: 1, CapacityBytes: 64 << 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			origin, edge, _ := edgeRig(t, tc.cfg, EdgePolicy{
				Hedge: HedgePolicy{Disabled: true},
				Retry: fastRetry(),
			})
			origin.SetFaultProbs(3, 0, 0, 0, 0.3)
			f, err := NewFetcher(edge.Video, edge.Addr(), edge.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			f.Hedge.Disabled = true

			for i := 0; i < 2; i++ {
				res, err := f.FetchChunk(i, 0, 20*time.Second)
				if err != nil {
					t.Fatalf("chunk %d: %v", i, err)
				}
				if !res.Verified {
					t.Fatalf("chunk %d not verified", i)
				}
			}
			if origin.FaultStats().Corruptions == 0 {
				t.Fatal("rig: no payload was corrupted")
			}
			if !settleEqual(edge.OriginBytes, origin.ServedBytes) {
				t.Errorf("origin sent %d bytes, edge charged %d", origin.ServedBytes(), edge.OriginBytes())
			}
		})
	}
}
