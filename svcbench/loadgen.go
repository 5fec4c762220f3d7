package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/server"
	"accelstream/internal/shard"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// clockBase anchors every timestamp the load generator records; now()
// reads the monotonic clock as nanoseconds since it.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// session is what the load generator drives: a direct server.Client or a
// shard.Router in front of several sessions.
type session interface {
	SendBatch(batch []core.Input) error
	Results() <-chan stream.Result
}

// endpoint is one streamd child plus the load generator's connection(s)
// to it, its receiver goroutine and its reference checker.
type endpoint struct {
	sh   *shape
	g    *gen
	d    *daemon
	sess session
	cl   *server.Client // nil when sharded
	rt   *shard.Router  // nil when direct

	// Set-up durations.
	dial, fill time.Duration

	// Sender-owned.
	sent        uint64 // inputs sent so far (the next input's index)
	batches     uint64
	buf         []core.Input
	snapshots   int     // coordinated snapshots taken
	ckptWritten float64 // streamd_checkpoints_written_total after the last one
	closeErr    error
	rtStats     shard.Stats // the router's close report

	rx *receiver
}

// receiver is the one goroutine consuming results. It owns the checker and
// the latency histograms; the sender publishes the timed phase's start and
// each batch's send time through atomics.
type receiver struct {
	chk   *checker
	batch uint64
	done  chan struct{}

	// Published by the sender.
	timedFrom  atomic.Uint64 // first input index of the timed phase
	timedStart atomic.Int64  // now() at the first timed send; 0 = not yet
	ring       []atomic.Int64
	ringNo     []atomic.Uint64 // batch number + 1 owning each ring slot

	// Receiver-owned; read after done is closed.
	lat         *sliced
	marks       []mark // timed results received, at each second
	timedRes    uint64
	lostSamples uint64
	lastRecv    int64
	trace       *spanLog
}

// ringFor sizes the send-time ring to the window plus the batches that can
// be in flight, with 8x headroom so a slow drain never overwrites a slot
// whose results are still on the way.
func ringFor(sh *shape) int {
	n := 2*sh.window/sh.batch + 64
	size := 1
	for size < 8*n {
		size <<= 1
	}
	return size
}

func newReceiver(sh *shape, g *gen, dur time.Duration, tr *spanLog) *receiver {
	rx := &receiver{
		trace: tr,
		chk:   newChecker(g, sh.window),
		batch: uint64(sh.batch),
		done:  make(chan struct{}),
		lat:   newSliced(dur),
	}
	n := ringFor(sh)
	rx.ring = make([]atomic.Int64, n)
	rx.ringNo = make([]atomic.Uint64, n)
	rx.timedFrom.Store(^uint64(0))
	return rx
}

func (rx *receiver) run(results <-chan stream.Result) {
	defer close(rx.done)
	mask := uint64(len(rx.ring) - 1)
	for r := range results {
		later := rx.chk.add(&r)
		if later < rx.timedFrom.Load() {
			continue
		}
		at := now()
		rel := at - rx.timedStart.Load()
		for markDue(rx.marks, rel) {
			rx.marks = append(rx.marks, mark{at: at, n: rx.timedRes})
		}
		rx.timedRes++
		rx.lastRecv = at
		b := later / rx.batch
		if rx.ringNo[b&mask].Load() != b+1 {
			rx.lostSamples++
			continue
		}
		rx.lat.add(rel, time.Duration(at-rx.ring[b&mask].Load()))
		if rx.trace != nil {
			rx.trace.result(b, at)
		}
	}
}

// stamp publishes batch b's reference send time before it is sent.
func (rx *receiver) stamp(b uint64, at int64) {
	mask := uint64(len(rx.ring) - 1)
	rx.ring[b&mask].Store(at)
	rx.ringNo[b&mask].Store(b + 1)
}

// openEndpoint starts a streamd child, dials it and fills the window: the
// set-up the benchmark times. dir receives the daemon's checkpoints.
func openEndpoint(sh *shape, g *gen, streamd, dir string, dur time.Duration, tr *spanLog) (*endpoint, error) {
	var args []string
	args = append(args, "-probe-kernel", "hash")
	if sh.rateLimit > 0 {
		args = append(args, "-rate-limit", fmt.Sprint(sh.rateLimit*sh.rate))
	}
	if sh.snapEvery > 0 {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		// A fresh directory per daemon: a snapshot left by an earlier
		// set-up would otherwise be restored into this one.
		ck, err := os.MkdirTemp(dir, "ckpt-")
		if err != nil {
			return nil, err
		}
		args = append(args, "-checkpoint-dir", ck, "-checkpoint-interval", "-1s")
	}
	d, err := startDaemon(streamd, args...)
	if err != nil {
		return nil, err
	}
	ep := &endpoint{sh: sh, g: g, d: d, buf: make([]core.Input, sh.batch)}
	t := time.Now()
	if sh.shards > 0 {
		addrs := make([]string, sh.shards)
		for i := range addrs {
			addrs[i] = d.addr
		}
		ep.rt, err = shard.Dial(shard.Config{
			Addrs: addrs, Cores: sh.cores, Window: sh.window,
			ProbeKernel: stream.KernelHash, FailFast: true,
		})
		ep.sess = ep.rt
	} else {
		ep.cl, err = server.Dial(d.addr, wire.OpenConfig{
			Engine: wire.EngineSoftUni, Cores: sh.cores, Window: sh.window,
			ProbeKernel: stream.KernelHash,
		})
		ep.sess = ep.cl
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("dial streamd: %w", err)
	}
	ep.dial = time.Since(t)
	ep.rx = newReceiver(sh, g, dur, tr)
	go ep.rx.run(ep.sess.Results())

	t = time.Now()
	for ep.sent < uint64(2*sh.window) {
		if err := ep.send(); err != nil {
			ep.close()
			d.stop()
			return nil, fmt.Errorf("window fill: %w", err)
		}
	}
	ep.fill = time.Since(t)
	return ep, nil
}

func (ep *endpoint) setup() time.Duration { return ep.d.listening + ep.dial + ep.fill }

// send generates and ships the next batch.
func (ep *endpoint) send() error {
	ep.g.fill(ep.buf, ep.sent)
	err := ep.sess.SendBatch(ep.buf)
	ep.batches++
	if err != nil {
		return err
	}
	ep.sent += uint64(len(ep.buf))
	return nil
}

// close drains the session (Close returns once the last result has been
// delivered) and waits for the receiver.
func (ep *endpoint) close() {
	if ep.rt != nil {
		st, err := ep.rt.Close()
		ep.closeErr = err
		ep.rtStats = st
	} else {
		_, err := ep.cl.Close()
		ep.closeErr = err
	}
	<-ep.rx.done
}

// verify runs the reference check over everything sent and returns the
// mismatches and the operations attempted (batches plus results expected).
func (ep *endpoint) verify() (mismatches, attempted uint64, first string) {
	mismatches, first = ep.rx.chk.verify(ep.sent)
	attempted = ep.batches + ep.rx.chk.results
	if ep.closeErr != nil {
		mismatches++
		if first == "" {
			first = "close: " + ep.closeErr.Error()
		}
	}
	return mismatches, attempted, first
}

// phase is one timed stretch of sending.
type phase struct {
	start, end   int64 // first send, last send return
	tuples       uint64
	blocked      time.Duration // inside SendBatch
	sendCalls    uint64
	lag          *sliced
	snapPauses   []time.Duration
	snapTuples   []int
	snapCkptMs   []float64
	snapCkptB    []float64
	clientCPU    time.Duration
	marks        []mark // tuples sent, at each second of the phase
	ckptMismatch uint64
	firstErr     string
}

// markSecond appends a mark for every second boundary the phase has
// crossed since the last one.
func (ep *endpoint) markSecond(ph *phase, at int64) {
	for markDue(ph.marks, at-ph.start) {
		srv, err1 := procCPU(ep.d.pid())
		cli, err2 := procCPU("self")
		if err1 != nil || err2 != nil {
			return
		}
		ph.marks = append(ph.marks, mark{at: at, n: ph.tuples, server: srv, client: cli})
	}
}

// sendFor drives the session for the given duration: as fast as credits
// allow in a closed loop, or on a fixed schedule in an open loop, where
// each batch is due at start + k·batch/rate and timed from its due time.
// traced batches also record spans.
func (ep *endpoint) sendFor(dur time.Duration, tr *spanLog) *phase {
	sh := ep.sh
	ph := &phase{lag: newSliced(dur)}
	ph.start = now()
	deadline := ph.start + int64(dur)
	interval := 0.0
	if sh.rate > 0 {
		interval = float64(sh.batch) / sh.rate * 1e9
	}
	var nextSnap uint64
	if sh.snapEvery > 0 {
		nextSnap = sh.snapEvery
	}
	for k := 0; ; k++ {
		ep.markSecond(ph, now())
		var due int64
		if interval > 0 {
			due = ph.start + int64(float64(k)*interval)
			if due >= deadline {
				break
			}
			if wait := due - now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
		} else if now() >= deadline {
			break
		}
		b := ep.sent / uint64(sh.batch)
		call := now()
		if interval == 0 {
			due = call
		}
		ep.rx.stamp(b, due)
		err := ep.send()
		ret := now()
		ph.blocked += time.Duration(ret - call)
		ph.sendCalls++
		ph.lag.add(ret-ph.start, time.Duration(ret-due))
		if tr != nil {
			tr.send(b, due, call, ret)
		}
		if err != nil {
			if ph.firstErr == "" {
				ph.firstErr = err.Error()
			}
			break
		}
		ph.tuples += uint64(sh.batch)
		if nextSnap > 0 && ph.tuples >= nextSnap {
			nextSnap += sh.snapEvery
			ep.snapshot(ph)
		}
	}
	ph.end = now()
	if interval > 0 && ph.end < deadline {
		// The open loop's last batch was due before the deadline; the
		// phase still lasts dur, so its last second is measured whole.
		time.Sleep(time.Duration(deadline - ph.end))
	}
	ep.markSecond(ph, now())
	return ph
}

// snapshot takes one coordinated Router.SnapshotState, then scrapes
// streamd and cross-checks that every shard persisted it.
func (ep *endpoint) snapshot(ph *phase) {
	t := time.Now()
	tuples, _, _, err := ep.rt.SnapshotState()
	ph.snapPauses = append(ph.snapPauses, time.Since(t))
	if err != nil {
		ph.ckptMismatch++
		if ph.firstErr == "" {
			ph.firstErr = "snapshot: " + err.Error()
		}
		return
	}
	ep.snapshots++
	ph.snapTuples = append(ph.snapTuples, len(tuples))
	m, err := ep.d.scrape()
	want := float64(ep.snapshots * ep.sh.shards)
	if err != nil || m["streamd_checkpoints_written_total"].sum != want {
		ph.ckptMismatch++
		if ph.firstErr == "" {
			ph.firstErr = fmt.Sprintf("after snapshot %d: streamd_checkpoints_written_total %v, want %v (%v)",
				ep.snapshots, m["streamd_checkpoints_written_total"].sum, want, err)
		}
		return
	}
	ep.ckptWritten = m["streamd_checkpoints_written_total"].sum
	ph.snapCkptMs = append(ph.snapCkptMs, m["streamd_checkpoint_last_duration_seconds"].sum*1e3)
	ph.snapCkptB = append(ph.snapCkptB, m["streamd_checkpoint_last_bytes"].sum)
}

// sampler scrapes streamd's /metrics on a fixed period during a traced
// run and keeps the peaks of the gauges the per-layer ledger reports.
type sampler struct {
	d    *daemon
	stop chan struct{}
	wg   sync.WaitGroup

	backlogMax, heapMax, tenantWindowMax float64
}

func startSampler(d *daemon) *sampler {
	s := &sampler{d: d, stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			m, err := d.scrape()
			if err != nil {
				continue
			}
			s.backlogMax = max(s.backlogMax, m["streamd_session_backlog"].max)
			s.heapMax = max(s.heapMax, m["streamd_heap_alloc_bytes"].sum)
			s.tenantWindowMax = max(s.tenantWindowMax, m["streamd_tenant_window_bytes"].sum)
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
}
