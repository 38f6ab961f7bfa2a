package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"mpdash/internal/cache"
	"mpdash/internal/dash"
	"mpdash/internal/netmp"
	"mpdash/internal/obs"
)

const (
	// zipfS is the title-popularity exponent.
	zipfS = 1.1
	// cycleSessions is how many sessions one plan cycle holds. With
	// Tears of Steel HD at rank 1 its Zipf(1.1) share is 0.504, so ten
	// sessions hold exactly five HD sessions, one per rung, and so
	// exactly one top-rung session whose >4 MiB chunks the store never
	// admits. The other five sessions also cover each rung once.
	cycleSessions = 10
	// sessionChunks is how many consecutive chunks, from chunk 0, a
	// session plays. Ten sessions of twelve 4 s chunks touch ~180 MB of
	// distinct chunks per cycle, well beyond the 64 MiB store.
	sessionChunks = 12
	// sessionBudget ends a session early, after the chunk that crosses
	// it, as a viewer abandons a stalled start. A healthy session plays
	// its twelve chunks in well under a second; a top-rung HD session,
	// refilled from origin on every range request, ends after chunk 0.
	sessionBudget = 2 * time.Second
	// edgeWarmupChunks is how many chunks of each title's lowest rung a
	// fresh edge env plays before it is timed.
	edgeWarmupChunks = 2
)

// edgeTitles returns the four Table 3 titles (4 s chunks, full ladders)
// in Zipf rank order. The order is fixed, not seeded: it sets how often
// the refill defect is hit, and runs with different seeds must agree.
func edgeTitles() []*dash.Video {
	c := dash.Catalog() // Big Buck Bunny, Red Bull Playstreets, Tears of Steel, Tears of Steel HD
	return []*dash.Video{c[3], c[0], c[1], c[2]}
}

// sessionPlan is one session: a title rank and a rung.
type sessionPlan struct{ title, level int }

// zipfCounts splits n sessions across ranks in proportion to Zipf(s)
// weights, rounding by largest remainder so the counts sum to n.
func zipfCounts(s float64, ranks, n int) []int {
	w := make([]float64, ranks)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	counts := make([]int, ranks)
	rem := make([]float64, ranks)
	left := n
	for i := range w {
		exact := w[i] / sum * float64(n)
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	return counts
}

// cyclePlan draws one cycle of sessions. Titles follow Zipf(1.1)
// exactly over the cycle; rungs are dealt in rank order from shuffled
// decks holding every rung once, so each rung is equally likely for
// every session and each block of five sessions covers every rung once;
// the session order is shuffled. Independent draws would leave the
// number of top-rung HD sessions, and the bytes a run moves, to chance,
// and runs with different seeds would not agree.
func cyclePlan(rng *rand.Rand, titles []*dash.Video) []sessionPlan {
	var plan []sessionPlan
	var deck []int
	for t, n := range zipfCounts(zipfS, len(titles), cycleSessions) {
		for i := 0; i < n; i++ {
			if len(deck) == 0 {
				deck = rng.Perm(len(titles[t].Levels))
			}
			plan = append(plan, sessionPlan{t, deck[0]})
			deck = deck[1:]
		}
	}
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan
}

// edgeEnv is the edge_zipf topology: per title, one unshaped origin and
// two EdgeServers (one per path) in front of it; every edge shares one
// default-config store, and telemetry is on as for mpdash-edge with
// -metrics-addr and -journal.
type edgeEnv struct {
	titles  []*dash.Video
	origins []*netmp.ChunkServer
	edges   [][2]*netmp.EdgeServer
	store   *cache.Cache
	tel     *obs.Telemetry
	seed    int64 // every pass replays the same plan from it
	session int
	led     ledger
}

func setupEdgeZipf(seed int64) (env, error) {
	e := &edgeEnv{titles: edgeTitles(), seed: seed}
	e.tel = obs.New()
	e.tel.Journal.StreamTo(io.Discard)
	e.store = cache.New(cache.Config{})
	e.store.Instrument(e.tel)
	var err error
	for _, v := range e.titles {
		var o *netmp.ChunkServer
		underLabel(labelServer, func() { o, err = netmp.NewChunkServer(v, 0) })
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		e.origins = append(e.origins, o)
		var pair [2]*netmp.EdgeServer
		underLabel(labelEdge, func() {
			for i := range pair {
				if pair[i], err = netmp.NewEdgeServer(v, v.Name, []string{o.Addr()}, e.store, netmp.EdgePolicy{}); err != nil {
					return
				}
				pair[i].Instrument(e.tel)
			}
		})
		e.edges = append(e.edges, pair)
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
	}
	warm := newRecorder(0, false)
	for t := range e.titles {
		if err := e.play(warm, nil, sessionPlan{t, 0}, edgeWarmupChunks); err != nil {
			return nil, errors.Join(err, e.close())
		}
	}
	if warm.failed > 0 {
		return nil, errors.Join(fmt.Errorf("warm-up: %v", warm.errs), e.close())
	}
	return e, nil
}

// play runs one session: a fresh Fetcher on the title's two edges plays
// chunks 0, 1, … until it has played n or sessionBudget has passed.
// Afterwards the registry is rendered once, as a metrics scraper would.
func (e *edgeEnv) play(rec *recorder, tr *obs.Tracer, s sessionPlan, n int) error {
	v := e.titles[s.title]
	pair := e.edges[s.title]
	var f *netmp.Fetcher
	var err error
	underLabel(labelFetcher, func() { f, err = netmp.NewFetcher(v, pair[0].Addr(), pair[1].Addr()) })
	if err != nil {
		rec.fail("dial %s: %v", v.Name, err)
		return err
	}
	e.session++
	t0 := time.Now()
	for i := 0; i < n && i < v.NumChunks && time.Since(t0) < sessionBudget; i++ {
		if err = fetchChunk(rec, &e.led, f, v, i, s.level, tr, e.session); err != nil {
			break
		}
	}
	err = errors.Join(err, f.Close())
	if werr := e.tel.Registry.WritePrometheus(io.Discard); werr != nil {
		err = errors.Join(err, werr)
	}
	return err
}

func (e *edgeEnv) loop(rec *recorder, tr *obs.Tracer) error {
	rng := rand.New(rand.NewSource(e.seed))
	var cycle time.Duration
	for !rec.enough(cycle) {
		t0 := time.Now()
		for _, s := range cyclePlan(rng, e.titles) {
			if err := e.play(rec, tr, s, sessionChunks); err != nil {
				return err
			}
		}
		cycle = time.Since(t0)
	}
	return nil
}

// tier sums the edges' and origins' byte counters.
func (e *edgeEnv) tier() (edgeServed, edgeOrigin, originServed int64) {
	for t, pair := range e.edges {
		for _, ed := range pair {
			if ed != nil {
				edgeServed += ed.ServedBytes()
				edgeOrigin += ed.OriginBytes()
			}
		}
		originServed += e.origins[t].ServedBytes()
	}
	return
}

func (e *edgeEnv) counters() map[string]float64 {
	served, origin, originServed := e.tier()
	st := e.store.Stats()
	var fillErrs int64
	for _, pair := range e.edges {
		fillErrs += pair[0].FillErrors() + pair[1].FillErrors()
	}
	return map[string]float64{
		ctrTierOrigin:     float64(origin),
		ctrTierServed:     float64(served),
		ctrServerServed:   float64(originServed),
		ctrServerExpected: float64(origin),
		ctrCacheHits:      float64(st.Hits),
		ctrCacheMisses:    float64(st.Misses),
		ctrCacheEvictions: float64(st.Evictions),
		ctrCacheCollapsed: float64(st.Collapsed),
		ctrCacheFills:     float64(st.Fills),
		ctrJournalEvents:  float64(e.tel.Journal.Total()),
		ctrJournalDropped: float64(e.tel.Journal.Dropped()),
		ctrFillErrors:     float64(fillErrs),
	}
}

// check: the edges served exactly what the clients received plus what
// they discarded; the origins sent exactly what the edges' fills pulled;
// the journal stream dropped nothing.
func (e *edgeEnv) check() error {
	want := e.led.received + e.led.wasted
	var errs []error
	errs = append(errs, settle(func() bool {
		served, origin, originServed := e.tier()
		return served == want && originServed == origin
	}, func() error {
		served, origin, originServed := e.tier()
		return fmt.Errorf("edge ledger: edges served %d bytes, clients received %d + wasted %d; origins sent %d, edges pulled %d",
			served, e.led.received, e.led.wasted, originServed, origin)
	}))
	if err := e.tel.Journal.Flush(); err != nil {
		errs = append(errs, err)
	}
	if d := e.tel.Journal.Dropped(); d > 0 {
		errs = append(errs, fmt.Errorf("journal dropped %d events", d))
	}
	return errors.Join(errs...)
}

func (e *edgeEnv) close() error {
	var errs []error
	for _, pair := range e.edges {
		for _, ed := range pair {
			if ed != nil {
				errs = append(errs, ed.Close())
			}
		}
	}
	for _, o := range e.origins {
		errs = append(errs, o.Close())
	}
	return errors.Join(errs...)
}
