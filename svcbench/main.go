// Command svcbench is the stream-join service benchmark. For one workload
// and seed it starts streamd (built from the tree under test) as a child
// process on loopback, drives it from this one load-generator process,
// checks every result against a reference join built from the generated
// inputs, and prints the end-to-end metrics. With -trace 1 it instead
// prints the per-layer ledger: the same run with spans recorded, streamd's
// /metrics, and an in-process replay of the inputs through successively
// larger slices of the serving path.
//
// Usage (run.sh builds both binaries first):
//
//	svcbench -streamd bin/streamd -work dir --workload ingest --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A reference mismatch or a failed
// cross-check prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"accelstream/internal/buildinfo"
)

// shape is a workload's configuration.
type shape struct {
	name       string
	window     int // per-stream window, global across shards
	batch      int
	domain     uint32 // uniform key domain; 0: distinct keys
	probeEvery int    // plant a probe pair every probeEvery batches (0: none)
	cores      int    // engine cores per session
	shards     int    // 0: one direct session; else a router over this many
	rate       float64
	rateLimit  float64 // streamd -rate-limit as a multiple of rate (0: off)
	snapEvery  uint64  // timed tuples between coordinated snapshots (0: none)
}

var shapes = []shape{
	// Closed loop, saturated: the per-tuple ingest path. Distinct keys, so
	// results are only the planted probes, a sparse latency sample. One
	// engine core: on a 2-CPU host a second one adds no throughput, only
	// contention with the session and the load generator, and doubles the
	// run-to-run spread.
	{name: "ingest", window: 1 << 16, batch: 512, probeEvery: 8, cores: 1},
	// Open loop at a fixed rate, about four results per tuple: the result
	// path. 250k tuples/s is about half of what the service sustains on a
	// 2-CPU host, where the load generator needs about as much CPU per
	// result as streamd. The admission token bucket charges every batch at
	// 4x headroom.
	{name: "results-open", window: 1 << 14, batch: 512, domain: 4096, cores: 2, rate: 250000, rateLimit: 4},
	// Closed loop through the shard router, two shard sessions on the one
	// streamd, with a coordinated durable snapshot every 2^21 tuples.
	{name: "sharded-snapshot", window: 1 << 14, batch: 512, domain: 65536, cores: 1, shards: 2, snapEvery: 1 << 21},
}

func shapeByName(name string) (*shape, error) {
	var names []string
	for i := range shapes {
		if shapes[i].name == name {
			return &shapes[i], nil
		}
		names = append(names, shapes[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one benchmark invocation, printing the detail line and the
// result line to stdout, and returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("svcbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: ingest, results-open or sharded-snapshot")
	seed := fs.Uint64("seed", 1, "input generator seed")
	seconds := fs.Int("seconds", 10, "timed phase length in seconds")
	trace := fs.Int("trace", 0, "1: print the per-layer ledger instead of the end-to-end metrics")
	streamd := fs.String("streamd", "", "streamd binary built from the tree under test")
	work := fs.String("work", "", "scratch directory for checkpoints and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sh, err := shapeByName(*workload)
	if err == nil && (*streamd == "" || *work == "") {
		err = fmt.Errorf("-streamd and -work are required")
	}
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err == nil && *trace == 0 && *seconds < rounds {
		// Rates and CPU costs need at least one whole second per round.
		err = fmt.Errorf("-seconds must be at least %d (one per round)", rounds)
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 2
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-seed%d-trace%d", sh.name, *seed, *trace))
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	opts := runOpts{sh: sh, seed: *seed, seconds: *seconds, streamd: *streamd, dir: dir}
	var rep *report
	var detail map[string]any
	if *trace == 1 {
		rep, detail, err = runTrace(opts)
	} else {
		rep, detail, err = runE2E(opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	detail["workload"] = sh.name
	detail["seed"] = *seed
	detail["host"] = hostStamp()
	for _, v := range []any{detail, rep} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "svcbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

type runOpts struct {
	sh      *shape
	seed    uint64
	seconds int
	streamd string
	dir     string
}

func (o runOpts) gen() *gen {
	return &gen{seed: o.seed, domain: o.sh.domain, batch: o.sh.batch, probeEvery: o.sh.probeEvery}
}

func hostStamp() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"build":      buildinfo.Version(),
	}
}

// streamdBuild returns the build identity streamd reports on /metrics.
func streamdBuild(m map[string]promSample) string {
	for _, l := range m["streamd_build_info"].labels {
		if i := strings.Index(l, `version="`); i >= 0 {
			return strings.TrimSuffix(l[i+len(`version="`):], `"}`)
		}
	}
	return ""
}

// rounds is how many independent replicates an untraced run reports.
// Each starts a fresh streamd, dials and fills the window (timed as
// set-up), drives it for its share of the run, drains and checks it.
// Every metric is the median over the rounds, so one slow process moves a
// run's figure by one rank instead of owning it.
const rounds = 10

// e2e is the measured outcome of one round.
type e2e struct {
	ep              *endpoint
	ph              []*phase
	setup, dial     float64 // seconds, milliseconds
	attempted, fail uint64
	problems        []string
	timedTuples     uint64
	peakRSS         float64
	final           map[string]promSample
	shardResults    []uint64
	sampler         *sampler
}

// measure sets up one streamd, drives it for dur split into phases,
// drains it and cross-checks it. Tracing (when tr is set) covers the last
// phase.
func measure(o runOpts, dur time.Duration, phases int, tr *spanLog) (*e2e, error) {
	ep, err := openEndpoint(o.sh, o.gen(), o.streamd, filepath.Join(o.dir, "ckpt"), dur, tr)
	if err != nil {
		return nil, err
	}
	defer ep.d.stop()
	r := &e2e{ep: ep, setup: ep.setup().Seconds(), dial: float64(ep.dial) / 1e6}
	if tr != nil {
		r.sampler = startSampler(ep.d)
	}
	ep.rx.timedStart.Store(now())
	ep.rx.timedFrom.Store(ep.sent)
	for p := 0; p < phases; p++ {
		var ptr *spanLog
		if tr != nil && p == phases-1 {
			tr.start(ep.sent / uint64(o.sh.batch))
			ptr = tr
		}
		c0, _ := procCPU("self")
		ph := ep.sendFor(dur/time.Duration(phases), ptr)
		c1, _ := procCPU("self")
		ph.clientCPU = c1 - c0
		r.ph = append(r.ph, ph)
		r.timedTuples += ph.tuples
		if ph.firstErr != "" {
			r.problems = append(r.problems, ph.firstErr)
			r.fail += ph.ckptMismatch
			if ph.ckptMismatch == 0 {
				r.fail++
			}
			break
		}
	}
	if ep.rt != nil {
		for _, s := range ep.rt.Shards() {
			r.shardResults = append(r.shardResults, s.Results)
		}
	}
	ep.close()
	if r.sampler != nil {
		r.sampler.finish()
	}
	if r.peakRSS, err = procHWM(ep.d.pid()); err != nil {
		return nil, err
	}

	mm, att, first := ep.verify()
	r.attempted += att
	r.fail += mm
	if mm > 0 {
		r.problems = append(r.problems, "reference: "+first)
	}
	// Cross-checks against streamd's own counters.
	r.final, err = ep.d.scrape()
	if err != nil {
		return nil, err
	}
	if got := r.final["streamd_session_results_out_total"].sum; got != float64(ep.rx.chk.results) {
		r.fail++
		r.problems = append(r.problems, fmt.Sprintf("streamd_session_results_out_total %v, received %d", got, ep.rx.chk.results))
	}
	if got := r.final["streamd_throttled_total"].sum; got != 0 {
		r.fail++
		r.problems = append(r.problems, fmt.Sprintf("streamd_throttled_total %v, want 0", got))
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "svcbench: check failed:", p)
	}
	return r, nil
}

// runE2E is the untraced run: every end-to-end metric, each the median
// over the rounds, and a detail line with the input digest and each
// round's figures and samples.
func runE2E(o runOpts) (*report, map[string]any, error) {
	dur := time.Duration(o.seconds) * time.Second / rounds
	rep := &report{Metrics: map[string]metric{}}
	perRound := map[string][]float64{}
	var details []map[string]any
	var build string
	for i := 0; i < rounds; i++ {
		r, err := measure(o, dur, 1, nil)
		if err != nil {
			return nil, nil, err
		}
		rep.Attempted += r.attempted
		rep.Failed += r.fail
		build = streamdBuild(r.final)
		m, det := roundMetrics(r)
		for name, v := range m {
			perRound[name] = append(perRound[name], v.Value)
			rep.Metrics[name] = metric{Unit: v.Unit}
		}
		details = append(details, det)
	}
	for name, vals := range perRound {
		rep.Metrics[name] = metric{median(vals), rep.Metrics[name].Unit}
	}
	rep.Correct = rep.Failed == 0
	detail := map[string]any{
		"kind":              "e2e",
		"streamd_build":     build,
		"digest_first_2p20": fmt.Sprintf("%016x", o.gen().digest(1<<20)),
		"rounds":            details,
	}
	return rep, detail, nil
}

// roundMetrics derives one round's end-to-end metrics. Rates and CPU
// costs are medians over the round's whole seconds; latency quantiles are
// medians over its 250 ms slices.
func roundMetrics(r *e2e) (map[string]metric, map[string]any) {
	ph := r.ph[0]
	rx := r.ep.rx
	p50, samples := rx.lat.medianQuantile(0.50)
	_, lagSamples := ph.lag.medianQuantile(0.99)
	tuplesPerSec, srvPerM, cliPerM := perSecond(ph.marks)
	resultsPerSec, _, _ := perSecond(rx.marks)
	m := map[string]metric{
		"tuples_per_s":            {median(tuplesPerSec), "tuples/s"},
		"results_per_s":           {median(resultsPerSec), "results/s"},
		"result_latency_p50_ms":   {p50, "ms"},
		"server_cpu_s_per_mtuple": {median(srvPerM), "s"},
		"client_cpu_s_per_mtuple": {median(cliPerM), "s"},
		"server_peak_rss_mb":      {r.peakRSS, "MiB"},
		"setup_s":                 {r.setup, "s"},
	}
	det := map[string]any{
		"sent":               r.ep.sent,
		"timed":              r.timedTuples,
		"results":            rx.chk.results,
		"latency_samples":    samples,
		"latency_lost":       rx.lostSamples,
		"send_lag_samples":   lagSamples,
		"tuples_per_second":  tuplesPerSec,
		"results_per_second": resultsPerSec,
		"p99_per_slice_ms":   rx.lat.perSlice(0.99),
		"snapshots":          r.ep.snapshots,
		"problems":           r.problems,
	}
	for name, v := range m {
		det[name] = v.Value
	}
	return m, det
}

// runTrace is the traced run: the timed time is split into an untraced
// and a traced half (their ratio is trace.overhead_ratio), streamd is
// scraped throughout, and the ledger replays the inputs in process.
func runTrace(o runOpts) (*report, map[string]any, error) {
	tr := newSpanLog()
	r, err := measure(o, time.Duration(o.seconds)*time.Second, 2, tr)
	if err != nil {
		return nil, nil, err
	}
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	untraced, traced := r.ph[0], r.ph[len(r.ph)-1]
	if o.sh.rate > 0 {
		// The open loop fixes throughput; tracing shows as client CPU.
		put("trace.overhead_ratio", "ratio", cpuPerTuple(traced)/cpuPerTuple(untraced)-1)
	} else {
		put("trace.overhead_ratio", "ratio", rate(untraced)/rate(traced)-1)
	}

	// The load generator's tails: on a shared 2-CPU host they follow the
	// host's scheduling jitter more than the service, so they are reported
	// here rather than bounded as end-to-end metrics.
	p99, _ := r.ep.rx.lat.medianQuantile(0.99)
	lag99, _ := untraced.lag.medianQuantile(0.99)
	put("loadgen.result_latency_p99_ms", "ms", p99)
	put("loadgen.send_lag_p99_ms", "ms", lag99)

	// server: the Client API and streamd's /metrics.
	put("server.dial_ms", "ms", r.dial)
	put("server.send_block_share", "ratio", traced.blocked.Seconds()/(float64(traced.end-traced.start)/1e9))
	f := r.final
	if n := f["streamd_session_result_frame_tuples_count"].sum; n > 0 {
		put("server.results_per_frame", "results", f["streamd_session_result_frame_tuples_sum"].sum/n)
	} else {
		put("server.results_per_frame", "results", 0)
	}
	put("server.backlog_max", "count", r.sampler.backlogMax)
	put("server.heap_alloc_mb", "MiB", r.sampler.heapMax/(1<<20))
	put("admission.throttled_batches", "count", f["streamd_throttled_total"].sum)
	put("admission.tenant_window_mb", "MiB", r.sampler.tenantWindowMax/(1<<20))

	led, err := runLedger(o, tr)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range led.metrics {
		m[k] = v
	}
	if r.ep.cl != nil {
		avg, max, _ := r.ep.cl.BatchRTT()
		put("server.batch_rtt_avg_us", "us", float64(avg)/1e3)
		put("server.batch_rtt_max_us", "us", float64(max)/1e3)
	}
	if r.ep.rt != nil {
		// The real router run supplies the shard and checkpoint figures.
		var pauses []time.Duration
		var tuples []int
		var writeMs, bytes []float64
		for _, ph := range r.ph {
			pauses = append(pauses, ph.snapPauses...)
			tuples = append(tuples, ph.snapTuples...)
			writeMs = append(writeMs, ph.snapCkptMs...)
			bytes = append(bytes, ph.snapCkptB...)
		}
		put("shard.send_ns_per_batch", "ns", float64(traced.blocked)/float64(traced.sendCalls))
		put("shard.send_block_share", "ratio", traced.blocked.Seconds()/(float64(traced.end-traced.start)/1e9))
		put("shard.results_skew", "ratio", skew(r.shardResults))
		putSnapshots(put, pauses, tuples)
		put("shard.dropped_batches", "count", float64(r.ep.rtStats.BatchesDropped))
		put("shard.redials", "count", float64(r.ep.rtStats.Redials))
		put("checkpoint.write_ms", "ms", median(writeMs))
		put("checkpoint.bytes", "bytes", median(bytes))
		put("checkpoint.written", "count", r.ep.ckptWritten)
	}
	spans := filepath.Join(o.dir, "spans.jsonl")
	if err := tr.write(spans); err != nil {
		return nil, nil, err
	}
	detail := map[string]any{
		"kind":          "trace",
		"streamd_build": streamdBuild(r.final),
		"spans":         spans,
		"ledger":        led.detail,
		"problems":      r.problems,
	}
	return &report{Correct: r.fail == 0 && led.failed == 0, Attempted: r.attempted + led.attempted,
		Failed: r.fail + led.failed, Metrics: m}, detail, nil
}

func cpuPerTuple(p *phase) float64 {
	return p.clientCPU.Seconds() / float64(p.tuples)
}

func rate(p *phase) float64 {
	return float64(p.tuples) / (float64(p.end-p.start) / 1e9)
}

func skew(v []uint64) float64 {
	if len(v) == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if lo == 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}

func putSnapshots(put func(string, string, float64), pauses []time.Duration, tuples []int) {
	ms := make([]float64, len(pauses))
	maxMs := 0.0
	for i, p := range pauses {
		ms[i] = float64(p) / 1e6
		maxMs = max(maxMs, ms[i])
	}
	t := make([]float64, len(tuples))
	for i, n := range tuples {
		t[i] = float64(n)
	}
	put("shard.snapshot_pause_ms_p50", "ms", median(ms))
	put("shard.snapshot_pause_ms_max", "ms", maxMs)
	put("shard.snapshot_tuples", "tuples", median(t))
}
