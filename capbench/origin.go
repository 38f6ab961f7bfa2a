package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"time"

	"mpdash/internal/dash"
	"mpdash/internal/netmp"
	"mpdash/internal/obs"
)

// ledger tallies what a client received over an env's whole life,
// warm-up included, for the byte-ledger check against the servers.
type ledger struct {
	received int64 // verified payload bytes
	wasted   int64 // payload bytes discarded from failed attempts
}

// fetchChunk runs one FetchChunk with deadline window d, verifies the
// result, and records it. An error means the fetcher is unusable and the
// loop must stop; an unverified chunk is recorded as a failed op.
func fetchChunk(rec *recorder, led *ledger, f *netmp.Fetcher, v *dash.Video, index, level int, tr *obs.Tracer, session int) error {
	var (
		res *netmp.FetchResult
		err error
	)
	t0 := time.Now()
	if rec.traced {
		t := tr.StartTrace(session, index, level)
		f.SetTrace(t)
		pprof.Do(context.Background(), pprof.Labels(layerKey, labelFetcher), func(context.Context) {
			res, err = f.FetchChunk(index, level, v.ChunkDuration)
		})
		f.SetTrace(nil)
		verdict := obs.TraceOK
		if err != nil {
			verdict = obs.TraceFailed
		}
		t.Finish(verdict)
	} else {
		res, err = f.FetchChunk(index, level, v.ChunkDuration)
	}
	lat := time.Since(t0)
	rec.ops++
	if res != nil {
		got := res.PrimaryBytes + res.SecondaryBytes
		led.received += got
		led.wasted += res.WastedBytes
		rec.primary += res.PrimaryBytes
		rec.secondary += res.SecondaryBytes
		rec.wasted += res.WastedBytes
		rec.retries += res.Retries
	}
	if err != nil {
		rec.fail("%s chunk %d level %d: %v", v.Name, index, level, err)
		return err
	}
	want := v.ChunkSize(index, level)
	if !res.Verified || res.Size != want || res.PrimaryBytes+res.SecondaryBytes != want {
		rec.fail("%s chunk %d level %d: verified=%v size=%d bytes=%d, want %d",
			v.Name, index, level, res.Verified, res.Size, res.PrimaryBytes+res.SecondaryBytes, want)
		return nil
	}
	rec.noteLatency(func() string {
		return fmt.Sprintf("%s level %d chunk %d (%d bytes)", v.Name, level, index, want)
	}, float64(lat.Nanoseconds())/1e6)
	rec.payload += want
	return nil
}

// underLabel runs fn with the layer label set, so every goroutine fn
// starts (listener accept loops, per-connection servers) carries it.
func underLabel(layer string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels(layerKey, layer), func(context.Context) { fn() })
}

// originWarmup is how many chunks (0, 1, …, whatever the seed) a fresh
// origin env fetches before it is timed: connections are up, buffer
// pools hold segments and the code paths are paged in.
const originWarmup = 8

// originEnv is the origin_* topology: two unshaped loopback ChunkServers,
// one per path, and one Fetcher holding a connection to each.
type originEnv struct {
	video   *dash.Video
	level   int
	order   []int // chunk indexes in seeded order, cycled; each pass starts over
	servers [2]*netmp.ChunkServer
	f       *netmp.Fetcher
	led     ledger
}

// setupOriginSmall: Big Buck Bunny re-chunked to 0.5 s at its lowest
// rung, ~36 KB chunks of one or two 32 KiB segments.
func setupOriginSmall(seed int64) (env, error) {
	return newOriginEnv(dash.BigBuckBunny().WithChunkDuration(500*time.Millisecond), 0, seed)
}

// setupOriginLarge: Tears of Steel HD at its top rung, ~5 MB chunks in
// ~153 segments.
func setupOriginLarge(seed int64) (env, error) {
	v := dash.TearsOfSteelHD()
	return newOriginEnv(v, len(v.Levels)-1, seed)
}

func newOriginEnv(v *dash.Video, level int, seed int64) (env, error) {
	e := &originEnv{video: v, level: level, order: rand.New(rand.NewSource(seed)).Perm(v.NumChunks)}
	var err error
	underLabel(labelServer, func() {
		for i := range e.servers {
			if e.servers[i], err = netmp.NewChunkServer(v, 0); err != nil {
				return
			}
		}
	})
	if err == nil {
		underLabel(labelFetcher, func() {
			e.f, err = netmp.NewFetcher(v, e.servers[0].Addr(), e.servers[1].Addr())
		})
	}
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	warm := newRecorder(0, false)
	for i := 0; i < originWarmup; i++ {
		if err := fetchChunk(warm, &e.led, e.f, v, i, level, nil, 0); err != nil {
			return nil, errors.Join(err, e.close())
		}
	}
	if warm.failed > 0 {
		return nil, errors.Join(fmt.Errorf("warm-up: %v", warm.errs), e.close())
	}
	return e, nil
}

func (e *originEnv) loop(rec *recorder, tr *obs.Tracer) error {
	for i := 0; !rec.enough(0); i++ {
		if err := fetchChunk(rec, &e.led, e.f, e.video, e.order[i%len(e.order)], e.level, tr, 0); err != nil {
			return err
		}
	}
	return nil
}

func (e *originEnv) served() int64 {
	return e.servers[0].ServedBytes() + e.servers[1].ServedBytes()
}

func (e *originEnv) counters() map[string]float64 {
	s := float64(e.served())
	return map[string]float64{
		// No cache tier: every byte served is an origin byte.
		ctrTierOrigin:     s,
		ctrTierServed:     s,
		ctrServerServed:   s,
		ctrServerExpected: float64(e.led.received + e.led.wasted),
	}
}

// check: the origins served exactly what the client received plus what
// it discarded. A server counts a block after its write returns, which
// can trail the client's read, so the ledgers get a moment to settle.
func (e *originEnv) check() error {
	want := e.led.received + e.led.wasted
	return settle(func() bool { return e.served() == want }, func() error {
		return fmt.Errorf("origin ledger: servers sent %d bytes, client received %d + wasted %d",
			e.served(), e.led.received, e.led.wasted)
	})
}

// settle polls ok for up to a second, returning fail() if it never holds.
func settle(ok func() bool, fail func() error) error {
	for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
		if ok() {
			return nil
		}
		if time.Now().After(deadline) {
			return fail()
		}
	}
}

func (e *originEnv) close() error {
	var errs []error
	if e.f != nil {
		errs = append(errs, e.f.Close())
	}
	for _, s := range e.servers {
		if s != nil {
			errs = append(errs, s.Close())
		}
	}
	return errors.Join(errs...)
}
