// Command capbench is the capacity benchmark of the mpdash repository:
// one closed-loop dual-path session driving the real chunk path over
// loopback sockets, and the paper reproduction on the simulator. See
// README.md for the workloads, the metrics and why each was chosen.
//
// Usage (from the repository root):
//
//	bash capbench/run.sh --workload origin_small --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured with tracing off; with --trace 1 the
// command runs the workload untraced and then traced (span tracer plus a
// labelled CPU profile) and reports the per-layer metrics. The command
// exits non-zero when any output fails its correctness check.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"mpdash/internal/obs"
)

const (
	// setupReps is how many times a run builds its topology; setup_s is
	// the median, so one slow listen or page-in does not move it.
	setupReps = 3
	// minOps is the fewest ops a pass measures, whatever --seconds says:
	// the p95 and the tail mean beyond it need minBeyond samples above it.
	minOps = 200
	// profileHz is the CPU profile's sampling rate in the traced pass.
	// The 100 Hz default leaves origin_small, which is mostly idle, with
	// too few samples to split across layers.
	profileHz = 500
	// layerKey is the pprof label key naming the layer a goroutine
	// works for.
	layerKey = "layer"
)

// Layer label values. Servers and edges are built under their label so
// every goroutine they start inherits it; each FetchChunk call runs
// under labelFetcher, and each experiment call under "repro.<name>".
const (
	labelFetcher = "netmp.fetcher"
	labelServer  = "netmp.server"
	labelEdge    = "netmp.edge"
	labelBench   = "bench"
	labelRepro   = "repro"
)

// env is one built topology of a workload, warmed up and ready to run
// measured passes.
type env interface {
	// loop runs the closed loop until rec says the pass is long enough.
	// When traced, every op runs under its layer's pprof label and every
	// chunk records a span trace into tr.
	loop(rec *recorder, tr *obs.Tracer) error
	// counters returns the cumulative counters the workload's layers
	// keep (see the ctr* keys), for per-pass deltas.
	counters() map[string]float64
	// check verifies the end-of-run invariants that span the whole run:
	// byte ledgers between tiers, journal drops.
	check() error
	close() error
}

// workload is one benchmark input set.
type workload struct {
	name string
	// unit names the op the closed loop runs.
	unit  string
	setup func(seed int64) (env, error)
}

var workloads = []workload{
	{"origin_small", "chunk", setupOriginSmall},
	{"origin_large", "chunk", setupOriginLarge},
	{"edge_zipf", "chunk", setupEdgeZipf},
	{"sim_repro", "experiment call", setupSimRepro},
}

// Counter keys an env may report; absent keys read as zero.
const (
	ctrTierOrigin     = "tier.origin_bytes"   // bytes origins sent toward clients or edges
	ctrTierServed     = "tier.served_bytes"   // bytes the client-facing tier served
	ctrServerServed   = "server.served_bytes" // origin ServedBytes
	ctrServerExpected = "server.expected"     // bytes the origin's clients received plus wasted
	ctrCacheHits      = "cache.hits"
	ctrCacheMisses    = "cache.misses"
	ctrCacheEvictions = "cache.evictions"
	ctrCacheCollapsed = "cache.collapsed"
	ctrCacheFills     = "cache.fills"
	ctrJournalEvents  = "journal.events"
	ctrJournalDropped = "journal.dropped"
	ctrFillErrors     = "edge.fill_errors"
)

// recorder collects one pass's per-op measurements.
type recorder struct {
	start   time.Time
	seconds time.Duration
	traced  bool

	ops, failed int
	latMS       []float64
	payload     int64 // verified payload bytes the client received
	primary     int64
	secondary   int64
	wasted      int64
	retries     int64
	errs        []string
	slowest     []slowOp // the few slowest ops, slowest first

	// sim_repro only.
	batchS    []float64            // experiment seconds per full set of calls
	perExpS   map[string][]float64 // seconds per call, by experiment
	cellShare float64              // the reproduction's cellular byte share
}

func newRecorder(seconds time.Duration, traced bool) *recorder {
	return &recorder{start: time.Now(), seconds: seconds, traced: traced, perExpS: map[string][]float64{}}
}

// enough reports whether the pass has run long enough, deciding at a
// boundary between units of work that take about unit each: it stops
// at the boundary nearest the --seconds mark, and never before minOps.
func (r *recorder) enough(unit time.Duration) bool {
	return r.ops >= minOps && time.Since(r.start)+unit/2 >= r.seconds
}

// slowOp names one op and its latency.
type slowOp struct {
	what string
	ms   float64
}

// keepSlowest is how many of the slowest ops the report names.
const keepSlowest = 3

// noteLatency records one successful op's latency.
func (r *recorder) noteLatency(what func() string, ms float64) {
	r.latMS = append(r.latMS, ms)
	if len(r.slowest) == keepSlowest && ms <= r.slowest[keepSlowest-1].ms {
		return
	}
	r.slowest = append(r.slowest, slowOp{what(), ms})
	sort.Slice(r.slowest, func(i, j int) bool { return r.slowest[i].ms > r.slowest[j].ms })
	if len(r.slowest) > keepSlowest {
		r.slowest = r.slowest[:keepSlowest]
	}
}

// fail records a failed op and its reason (the first few are printed).
func (r *recorder) fail(format string, a ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, a...))
	}
}

// pass is one measured pass with its process-level deltas.
type pass struct {
	rec      *recorder
	wall     time.Duration
	cpu      time.Duration // process user+sys
	sysCPU   time.Duration
	gcCPU    float64 // runtime GC CPU seconds
	mallocs  uint64
	allocB   uint64
	ctrDelta map[string]float64
	profile  *cpuProfile
	spans    spanStats
}

func rusage() (user, sys time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano()), ru.Maxrss
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runPass measures one pass of e. A traced pass attaches a span tracer
// and records a labelled CPU profile.
func runPass(e env, seconds time.Duration, traced bool) (*pass, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := e.counters()
	u0, s0, _ := rusage()
	gc0 := gcCPUSeconds()
	var tr *obs.Tracer
	var prof bytes.Buffer
	if traced {
		tr = obs.NewTracer(obs.TraceConfig{HeadSampleRate: 1, Seed: 1})
		// StartCPUProfile asks for 100 Hz and, finding a rate already
		// set, keeps this one (printing a one-line notice to stderr).
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	rec := newRecorder(seconds, traced)
	var err error
	if traced {
		pprof.Do(context.Background(), pprof.Labels(layerKey, labelBench), func(context.Context) {
			err = e.loop(rec, tr)
		})
	} else {
		err = e.loop(rec, tr)
	}
	wall := time.Since(rec.start)
	if traced {
		pprof.StopCPUProfile()
	}
	u1, s1, _ := rusage()
	gc1 := gcCPUSeconds()
	runtime.ReadMemStats(&ms1)
	c1 := e.counters()
	p := &pass{
		rec:      rec,
		wall:     wall,
		cpu:      (u1 - u0) + (s1 - s0),
		sysCPU:   s1 - s0,
		gcCPU:    gc1 - gc0,
		mallocs:  ms1.Mallocs - ms0.Mallocs,
		allocB:   ms1.TotalAlloc - ms0.TotalAlloc,
		ctrDelta: map[string]float64{},
	}
	for k, v := range c1 {
		p.ctrDelta[k] = v - c0[k]
	}
	if traced {
		prof, perr := parseCPUProfile(prof.Bytes())
		if perr != nil {
			return nil, perr
		}
		p.profile = prof
		p.spans = analyzeTraces(tr.Records())
	}
	return p, err
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("capbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: origin_small, origin_large, edge_zipf or sim_repro")
	seed := fs.Int64("seed", 1, "input seed: title, rung and chunk order (experiment order on sim_repro)")
	seconds := fs.Int("seconds", 20, "seconds each measured pass runs (at least; see minOps)")
	trace := fs.Int("trace", 0, "1 = per-layer run: an untraced pass, then a traced one")
	record := fs.Bool("record-reference", false, "print the sim_repro output digests of this code (the content of repro_reference.json) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record {
		ref, err := recordReference()
		if err != nil {
			fmt.Fprintf(os.Stderr, "capbench: %v\n", err)
			return 1
		}
		stdout.Write(ref)
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "capbench: need --workload (one of %s), --seconds ≥ 1, --trace 0|1\n", workloadNames())
		return 2
	}
	dur := time.Duration(*seconds) * time.Second

	fmt.Fprintf(stdout, "# capbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# host: %s\n", fingerprint())

	var setups []float64
	var e env
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		ei, err := w.setup(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "capbench: setup %s: %v\n", w.name, err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := ei.close(); err != nil {
				fmt.Fprintf(os.Stderr, "capbench: teardown %s: %v\n", w.name, err)
				return 1
			}
			continue
		}
		e = ei
	}

	var problems []string
	passes := []*pass{}
	base, err := runPass(e, dur, false)
	if base != nil {
		passes = append(passes, base)
	}
	var traced *pass
	if err == nil && *trace == 1 {
		if traced, err = runPass(e, dur, true); traced != nil {
			passes = append(passes, traced)
		}
	}
	if err != nil {
		problems = append(problems, err.Error())
	}
	if cerr := e.check(); cerr != nil {
		problems = append(problems, cerr.Error())
	}
	if cerr := e.close(); cerr != nil {
		problems = append(problems, cerr.Error())
	}
	_, _, maxRSS := rusage()

	var res result
	for _, p := range passes {
		res.Attempted += p.rec.ops
		res.Failed += p.rec.failed
		problems = append(problems, p.rec.errs...)
	}
	if len(problems) > 0 && res.Failed == 0 {
		res.Failed = 1 // a run-level check failed: charge it as one failed op
	}
	res.Attempted = max(res.Attempted, 1)
	res.Correct = res.Failed == 0 && len(problems) == 0
	if base == nil || (*trace == 1 && traced == nil) {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "capbench: %s\n", p)
		}
		return 1
	}

	e2e := endToEnd(base, setups, maxRSS, res)
	res.Metrics = e2e
	if *trace == 1 {
		res.Metrics = perLayer(base, traced)
	}
	printReport(stdout, w, base, traced, e2e, res.Metrics, *trace == 1)
	for _, p := range problems {
		fmt.Fprintf(stdout, "# FAILED: %s\n", p)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// fingerprint describes the host every result was measured on.
func fingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q os=%s/%s traffic=loopback (127.0.0.1, unshaped)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model, runtime.GOOS, runtime.GOARCH)
}

// endToEnd derives the user-visible metrics from the untraced pass.
func endToEnd(p *pass, setups []float64, maxRSSKB int64, res result) map[string]metric {
	r := p.rec
	ops := float64(max(r.ops, 1))
	wall := p.wall.Seconds()
	lat := sortedCopy(r.latMS)
	share := 1 - r.cellShare // the simulator reports its own share
	if r.primary+r.secondary > 0 {
		share = float64(r.primary) / float64(r.primary+r.secondary)
	}
	batch := 100 / (ops / wall) // seconds per 100 chunks
	if len(r.batchS) > 0 {
		batch = median(r.batchS)
	}
	return map[string]metric{
		"chunks_per_s":                 {ops / wall, "1/s"},
		"goodput_mbps":                 {float64(r.payload) * 8 / wall / 1e6, "Mb/s"},
		"chunk_latency_p50_ms":         {percentile(lat, 50), "ms"},
		"chunk_latency_p95_tail_ms":    {tailMean(lat, 95), "ms"},
		"cpu_ms_per_chunk":             {float64(p.cpu.Microseconds()) / 1e3 / ops, "ms"},
		"primary_byte_share":           {share, "ratio"},
		"origin_bytes_per_served_byte": {ratio(p.ctrDelta[ctrTierOrigin], p.ctrDelta[ctrTierServed]), "ratio"},
		"repro_wall_s":                 {batch, "s"},
		"ok_ratio":                     {1 - float64(res.Failed)/float64(res.Attempted), "ratio"},
		"setup_s":                      {median(setups), "s"},
		"max_rss_mb":                   {float64(maxRSSKB) / 1024, "MB"},
	}
}

// simPackages are the simulator-stack packages whose CPU share the
// traced run reports.
var simPackages = []string{"sim", "tcp", "mptcp", "link", "core", "predict", "abr", "dash", "energy", "trace", "field", "harness"}

// labelShares are the pprof label buckets the traced run reports; with
// unlabelled they account for every sample.
var labelShares = []string{labelFetcher, labelServer, labelEdge, labelRepro, labelBench, unlabelled}

// labelBucket folds a label value into its reported bucket: every
// experiment label into "repro".
func labelBucket(v string) string {
	if strings.HasPrefix(v, labelRepro+".") {
		return labelRepro
	}
	return v
}

// perLayer derives the per-layer metrics from the untraced pass (runtime
// counters, which tracing itself would inflate) and the traced pass
// (spans, profile shares, layer counters).
func perLayer(base, tp *pass) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	r := tp.rec
	ops := float64(max(r.ops, 1))
	d := tp.ctrDelta
	cpuMS := float64(tp.cpu.Microseconds()) / 1e3

	total := float64(tp.profile.total())
	labels := map[string]float64{}
	for v, n := range tp.profile.byLabel(layerKey) {
		labels[labelBucket(v)] += float64(n)
	}
	pkgs := tp.profile.byPackage()
	share := func(n float64) float64 { return ratio(n, total) }

	sp := tp.spans
	put("netmp.fetcher.wait_ms_per_chunk", ratio(sp.waitMS, float64(sp.chunks)), "ms")
	put("netmp.fetcher.segment_ms_p50", nanToZero(median(sp.segMS)), "ms")
	put("netmp.fetcher.segments_per_chunk", ratio(float64(len(sp.segMS)), float64(sp.chunks)), "count")
	put("netmp.fetcher.secondary_engaged_ratio", ratio(float64(sp.engaged), float64(sp.chunks)), "ratio")
	put("netmp.fetcher.retries_per_chunk", float64(r.retries)/ops, "count")
	put("netmp.fetcher.wasted_bytes_ratio", ratio(float64(r.wasted), float64(r.payload+r.wasted)), "ratio")
	put("netmp.fetcher.cpu_ms_per_chunk", share(labels[labelFetcher])*cpuMS/ops, "ms")
	put("netmp.server.cpu_ms_per_chunk", share(labels[labelServer])*cpuMS/ops, "ms")
	put("netmp.server.served_bytes_ratio", ratio(d[ctrServerServed], d[ctrServerExpected]), "ratio")
	put("netmp.edge.cpu_ms_per_chunk", share(labels[labelEdge])*cpuMS/ops, "ms")
	put("netmp.edge.fill_ms_per_chunk", ratio(sp.fillMS, float64(sp.chunks)), "ms")
	put("netmp.edge.fill_errors", d[ctrFillErrors], "count")

	reqs := d[ctrCacheHits] + d[ctrCacheMisses]
	put("cache.hit_ratio", ratio(d[ctrCacheHits], reqs), "ratio")
	put("cache.fills_per_request", ratio(d[ctrCacheFills], reqs), "ratio")
	put("cache.collapsed_ratio", ratio(d[ctrCacheCollapsed], reqs), "ratio")
	put("cache.evictions", d[ctrCacheEvictions], "count")
	put("cache.cpu_share", share(float64(pkgs["cache"])), "ratio")

	put("obs.cpu_share", share(float64(pkgs["obs"])), "ratio")
	put("obs.journal_events_per_chunk", d[ctrJournalEvents]/ops, "count")
	put("obs.journal_dropped", d[ctrJournalDropped], "count")
	baseCPU := float64(base.cpu.Microseconds()) / float64(max(base.rec.ops, 1))
	put("obs.trace_overhead_ratio", ratio(cpuMS*1e3/ops, baseCPU)-1, "ratio")

	bops := float64(max(base.rec.ops, 1))
	put("runtime.mallocs_per_chunk", float64(base.mallocs)/bops, "count")
	put("runtime.alloc_bytes_per_chunk", float64(base.allocB)/bops, "B")
	put("runtime.gc_cpu_share", ratio(base.gcCPU, base.cpu.Seconds()), "ratio")
	put("runtime.syscall_cpu_share", ratio(base.sysCPU.Seconds(), base.cpu.Seconds()), "ratio")

	for _, x := range experiments() {
		put("repro."+x.name+"_s", nanToZero(median(r.perExpS[x.name])), "s")
	}
	for _, pkg := range simPackages {
		put(pkg+".cpu_share", share(float64(pkgs[pkg])), "ratio")
	}
	for _, l := range labelShares {
		put("label."+l+".cpu_share", share(labels[l]), "ratio")
	}
	return m
}

func nanToZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// printReport writes the human-readable table that precedes the JSON
// line: the end-to-end metrics always, the per-layer ones on a traced
// run, plus the detail a reader needs to trust them (sample counts, the
// highest percentile the sample count supports, the full label split).
func printReport(w io.Writer, wl *workload, base, tp *pass, e2e, shown map[string]metric, traced bool) {
	r := base.rec
	fmt.Fprintf(w, "# untraced pass: %d %ss (%d failed) in %.2f s, process CPU %.2f s\n",
		r.ops, wl.unit, r.failed, base.wall.Seconds(), base.cpu.Seconds())
	lat := sortedCopy(r.latMS)
	fmt.Fprintf(w, "# latency: n=%d, p50 = %.3f ms, p95 = %.3f ms, mean of the %d beyond p95 = %.3f ms",
		len(lat), percentile(lat, 50), percentile(lat, 95), beyond(len(lat), 95), tailMean(lat, 95))
	if p, ok := tailPercentile(len(lat)); ok {
		fmt.Fprintf(w, "; highest percentile with ≥%d beyond: p%g = %.3f ms", minBeyond, p, percentile(lat, p))
	}
	fmt.Fprintln(w)
	for _, s := range r.slowest {
		fmt.Fprintf(w, "# slow: %.3f ms %s\n", s.ms, s.what)
	}
	if r.primary+r.secondary > 0 {
		fmt.Fprintf(w, "# cellular_byte_share (secondary / all bytes) = %.6f\n",
			ratio(float64(r.secondary), float64(r.primary+r.secondary)))
	}
	fmt.Fprintf(w, "#\n# | end-to-end metric | value | unit |\n# |---|---|---|\n")
	writeRows(w, e2e)
	if !traced {
		return
	}
	fmt.Fprintf(w, "#\n# traced pass: %d %ss in %.2f s, process CPU %.2f s, %d profile samples every %.1f ms, %d chunk traces\n",
		tp.rec.ops, wl.unit, tp.wall.Seconds(), tp.cpu.Seconds(), tp.profile.total(), float64(tp.profile.periodNS)/1e6, tp.spans.chunks)
	fmt.Fprintf(w, "#\n# | per-layer metric | value | unit |\n# |---|---|---|\n")
	writeRows(w, shown)
	total := float64(tp.profile.total())
	fmt.Fprintf(w, "#\n# | pprof label | samples | share |\n# |---|---|---|\n")
	writeCounts(w, tp.profile.byLabel(layerKey), total)
	fmt.Fprintf(w, "#\n# | package (nearest program frame to the leaf) | samples | share |\n# |---|---|---|\n")
	writeCounts(w, tp.profile.byPackage(), total)
}

func writeRows(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "# | %s | %.6g | %s |\n", k, m[k].Value, m[k].Unit)
	}
}

func writeCounts(w io.Writer, counts map[string]int64, total float64) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		fmt.Fprintf(w, "# | %s | %d | %.4f |\n", k, counts[k], ratio(float64(counts[k]), total))
	}
}
