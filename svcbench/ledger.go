package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"accelstream/internal/admission"
	"accelstream/internal/core"
	"accelstream/internal/server"
	"accelstream/internal/shard"
	"accelstream/internal/softjoin"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// ledgerTuples is how many inputs each ledger slice times, after an
// untimed fill of both windows.
const ledgerTuples = 1 << 19

// ledger is the per-layer half of a traced run: the workload's first
// inputs replayed through successively larger in-process slices of the
// serving path — probe kernel, softjoin.UniFlow, wire frames over an
// in-memory pipe, a loopback session, the shard router. Each slice times
// the same inputs; the difference between adjacent slices is the cost of
// the layer the larger one adds.
type ledger struct {
	o       runOpts
	inputs  []core.Input
	fillN   int
	batches [][]core.Input
	want    digest // reference digest of all results
	wantN   uint64
	sample  []stream.Result // reference results for the result-frame codecs

	metrics           map[string]metric
	detail            map[string]any
	attempted, failed uint64
	tr                *spanLog
}

func runLedger(o runOpts, tr *spanLog) (*ledger, error) {
	g := o.gen()
	l := &ledger{o: o, fillN: 2 * o.sh.window, metrics: map[string]metric{}, detail: map[string]any{}, tr: tr}
	total := l.fillN + ledgerTuples
	l.inputs = make([]core.Input, total)
	g.fill(l.inputs, 0)
	for i := 0; i < total; i += o.sh.batch {
		l.batches = append(l.batches, l.inputs[i:i+o.sh.batch])
	}
	ref := newRefJoin(g, uint64(o.sh.window))
	ref.out, ref.outCap = &l.sample, 1<<16
	for i := 0; i < total; i++ {
		l.wantN += ref.push(uint64(i), &l.want)
	}

	kernel := l.kernel()
	uni, err := l.uniflow(o.sh.cores*max(o.sh.shards, 1), "softjoin")
	if err != nil {
		return nil, err
	}
	if _, err := l.uniflow(1, "softjoin_1core"); err != nil {
		return nil, err
	}
	l.wireCodecs()
	wireNs, err := l.wirePipe()
	if err != nil {
		return nil, err
	}
	sessNs, err := l.session()
	if err != nil {
		return nil, err
	}
	routerNs, err := l.router()
	if err != nil {
		return nil, err
	}
	chain := []struct {
		name string
		ns   float64
	}{{"kernel", kernel}, {"uniflow", uni}, {"wire", wireNs}, {"session", sessNs}, {"router", routerNs}}
	for i, s := range chain {
		l.put("ledger."+s.name+"_ns_per_tuple", "ns", s.ns)
		if i > 0 {
			l.put("ledger."+s.name+"_self_ns_per_tuple", "ns", s.ns-chain[i-1].ns)
		}
	}
	return l, nil
}

func (l *ledger) put(name, unit string, v float64) { l.metrics[name] = metric{v, unit} }

// span records one slice's timed stretch in the span log.
func (l *ledger) span(name string, start, end int64) {
	l.tr.add(span{Name: "slice:" + name, Parent: "ledger", Start: start, End: end, N: ledgerTuples})
}

// check compares a slice's delivered results with the reference.
func (l *ledger) check(slice string, n uint64, d digest) {
	l.attempted += uint64(len(l.batches)) + l.wantN
	if n != l.wantN || d != l.want {
		l.failed++
		l.detail[slice+"_mismatch"] = fmt.Sprintf("%d results, reference %d (digest equal %v)", n, l.wantN, d == l.want)
	}
}

// kernel replays the inputs single-threaded through the stream package's
// windows and hash indexes: once storing only, once probing and storing.
func (l *ledger) kernel() float64 {
	insertOnly, _, _ := l.kernelPass(false)
	full, examined, matches := l.kernelPass(true)
	n := float64(ledgerTuples)
	l.put("stream.insert_ns_per_tuple", "ns", float64(insertOnly)/n)
	l.put("stream.probe_ns_per_tuple", "ns", float64(full-insertOnly)/n)
	l.put("stream.entries_examined_per_probe", "entries", float64(examined)/n)
	ratio := 0.0
	if examined > 0 {
		ratio = float64(matches) / float64(examined)
	}
	l.put("stream.match_ratio", "ratio", ratio)
	return float64(full) / n
}

func (l *ledger) kernelPass(probe bool) (elapsed time.Duration, examined, matches uint64) {
	w := l.o.sh.window
	win := [2]*stream.SlidingWindow{stream.NewSlidingWindow(w), stream.NewSlidingWindow(w)}
	idx := [2]*stream.KeyIndex{stream.NewKeyIndex(win[0]), stream.NewKeyIndex(win[1])}
	var buf []stream.Tuple
	var t0 int64
	for i := range l.inputs {
		if i == l.fillN {
			t0 = now()
		}
		in := &l.inputs[i]
		own := int(in.Side) - int(stream.SideR)
		if probe {
			var n int
			buf, n = idx[1-own].AppendMatches(in.Tuple.Key, buf[:0])
			if i >= l.fillN {
				examined += uint64(n)
				matches += uint64(len(buf))
			}
		}
		win[own].Insert(in.Tuple)
		idx[own].NoteInsert(in.Tuple.Key)
	}
	t1 := now()
	if probe {
		l.span("kernel", t0, t1)
	}
	return time.Duration(t1 - t0), examined, matches
}

// resultSink counts and digests a slice's results and, when lag is set,
// times each from the moment the batch of its later input was handed over.
type resultSink struct {
	n        uint64
	d        digest
	batch    uint64
	handed   []atomic.Int64 // per batch, now() when the push returned
	fillB    uint64
	lag      hist
	lastRecv int64
}

func newSink(l *ledger, timeLag bool) *resultSink {
	s := &resultSink{batch: uint64(l.o.sh.batch), fillB: uint64(l.fillN / l.o.sh.batch)}
	if timeLag {
		s.handed = make([]atomic.Int64, len(l.batches))
	}
	return s
}

func (s *resultSink) add(r *stream.Result) {
	s.n++
	s.d.add(r.PairID())
	if s.handed != nil {
		later := indexOf(stream.SideR, r.R.Seq)
		if si := indexOf(stream.SideS, r.S.Seq); si > later {
			later = si
		}
		b := later / s.batch
		at := now()
		if b >= s.fillB && b < uint64(len(s.handed)) {
			if h := s.handed[b].Load(); h != 0 {
				s.lag.add(time.Duration(at - h))
			}
		}
	}
}

func (s *resultSink) drain(ch <-chan stream.Result, done chan<- struct{}) {
	for r := range ch {
		s.add(&r)
		s.lastRecv = now()
	}
	close(done)
}

// uniflow drives softjoin.UniFlow directly: PushBatch from this goroutine,
// one goroutine draining Results.
func (l *ledger) uniflow(cores int, prefix string) (float64, error) {
	uf, err := softjoin.NewUniFlow(softjoin.Config{NumCores: cores, WindowSize: l.o.sh.window, ProbeKernel: stream.KernelHash})
	if err != nil {
		return 0, err
	}
	if err := uf.Start(); err != nil {
		return 0, err
	}
	sink := newSink(l, true)
	done := make(chan struct{})
	go sink.drain(uf.Results(), done)
	var ms0, ms1 runtime.MemStats
	var t0 int64
	var pushNs time.Duration
	fillB := l.fillN / l.o.sh.batch
	for b, batch := range l.batches {
		if b == fillB {
			runtime.ReadMemStats(&ms0)
			t0 = now()
		}
		t := now()
		uf.PushBatch(batch)
		ret := now()
		if b >= fillB {
			pushNs += time.Duration(ret - t)
		}
		sink.handed[b].Store(ret)
	}
	err = uf.Close()
	<-done
	t1 := max(now(), sink.lastRecv)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return 0, fmt.Errorf("uniflow close: %w", err)
	}
	l.check(prefix, sink.n, sink.d)
	secs := float64(t1-t0) / 1e9
	n := float64(ledgerTuples)
	timedB := float64(len(l.batches) - fillB)
	if prefix == "softjoin_1core" {
		l.put("softjoin.tuples_per_s_1core", "tuples/s", n/secs)
		return float64(t1-t0) / n, nil
	}
	l.span("uniflow", t0, t1)
	l.put("softjoin.tuples_per_s", "tuples/s", n/secs)
	l.put("softjoin.push_ns_per_tuple", "ns", float64(pushNs)/n)
	l.put("softjoin.comparisons_per_tuple", "comparisons", float64(uf.Comparisons())/float64(len(l.inputs)))
	l.put("softjoin.results_per_s", "results/s", float64(sink.n)*(n/float64(len(l.inputs)))/secs)
	l.put("softjoin.result_lag_p50_us", "us", sink.lag.quantile(0.5)/1e3)
	l.put("softjoin.result_lag_p99_us", "us", sink.lag.quantile(0.99)/1e3)
	l.put("softjoin.allocs_per_batch", "allocs", float64(ms1.Mallocs-ms0.Mallocs)/timedB)
	return float64(t1-t0) / n, nil
}

// countWriter counts the bytes written through it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// wireCodecs times the frame codecs alone, single-threaded: batches as the
// client encodes and the session decodes them, results as the session
// frames them (up to 1024 per frame) and the client decodes them. Inputs
// to the decode passes are encoded beforehand, outside the counted passes.
func (l *ledger) wireCodecs() {
	timed := l.batches[l.fillN/l.o.sh.batch:]
	n := float64(ledgerTuples)
	var allocs, calls uint64
	// pass runs one codec pass of frames calls and returns its time; its
	// allocations count toward wire.allocs_per_frame.
	pass := func(frames int, f func()) float64 {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t := now()
		f()
		el := float64(now() - t)
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs
		calls += uint64(frames)
		return el
	}

	var cw countWriter
	w := wire.NewWriter(&cw)
	el := pass(len(timed), func() {
		for i, b := range timed {
			_ = w.WriteBatch(uint64(i), b)
		}
	})
	l.put("wire.batch_encode_ns_per_tuple", "ns", el/n)
	l.put("wire.bytes_per_tuple", "bytes", float64(cw.n)/n)

	var enc bytes.Buffer
	enc.Grow(int(cw.n))
	w = wire.NewWriter(&enc)
	for i, b := range timed {
		_ = w.WriteBatch(uint64(i), b)
	}
	r := wire.NewReader(bytes.NewReader(enc.Bytes()))
	var dst []core.Input
	el = pass(len(timed), func() {
		for range timed {
			f, err := r.ReadFrame()
			if err == nil {
				_, dst, err = wire.DecodeBatchInto(f.Payload, 0, dst)
			}
			if err != nil {
				l.failed++
				l.detail["wire_batch_decode"] = err.Error()
				break
			}
		}
	})
	l.put("wire.batch_decode_ns_per_tuple", "ns", el/n)

	// Result frames: the reference results, cycled to at least 2^18.
	if len(l.sample) > 0 {
		const frameMax = 1024
		var all []stream.Result
		for len(all) < 1<<18 {
			all = append(all, l.sample...)
		}
		nf := (len(all) + frameMax - 1) / frameMax
		nr := float64(len(all))
		cw = countWriter{}
		w = wire.NewWriter(&cw)
		el = pass(nf, func() {
			for i := 0; i < len(all); i += frameMax {
				_ = w.WriteResults(all[i:min(i+frameMax, len(all))])
			}
		})
		l.put("wire.result_encode_ns_per_result", "ns", el/nr)
		l.put("wire.bytes_per_result", "bytes", float64(cw.n)/nr)

		enc.Reset()
		enc.Grow(int(cw.n))
		w = wire.NewWriter(&enc)
		for i := 0; i < len(all); i += frameMax {
			_ = w.WriteResults(all[i:min(i+frameMax, len(all))])
		}
		rr := wire.NewReader(bytes.NewReader(enc.Bytes()))
		el = pass(nf, func() {
			for i := 0; i < nf; i++ {
				f, err := rr.ReadFrame()
				if err == nil {
					_, err = wire.DecodeResults(f.Payload)
				}
				if err != nil {
					l.failed++
					l.detail["wire_result_decode"] = err.Error()
					break
				}
			}
		})
		l.put("wire.result_decode_ns_per_result", "ns", el/nr)
	}
	l.put("wire.allocs_per_frame", "allocs", float64(allocs)/float64(calls))
}

// wirePipe is the uniflow slice with both directions carried as wire
// frames over in-memory pipes: batches encoded by this goroutine, decoded
// into PushBatch; results coalesced into frames (as many as are ready, up
// to 1024) and decoded on the far side.
func (l *ledger) wirePipe() (float64, error) {
	uf, err := softjoin.NewUniFlow(softjoin.Config{NumCores: l.o.sh.cores * max(l.o.sh.shards, 1), WindowSize: l.o.sh.window, ProbeKernel: stream.KernelHash})
	if err != nil {
		return 0, err
	}
	if err := uf.Start(); err != nil {
		return 0, err
	}
	inC, inS := net.Pipe()
	outS, outC := net.Pipe()
	var wg sync.WaitGroup
	// Sized to the sends: the decoder makes at most 2, the framer, the
	// client side and the producer 1 each, so no send ever blocks.
	errs := make(chan error, 5)
	wg.Add(3)
	go func() { // server side: decode batches into the engine
		defer wg.Done()
		defer inS.Close() // unblocks the producer if decoding stops early
		rd := wire.NewReader(inS)
		var dst []core.Input
		for {
			f, err := rd.ReadFrame()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					errs <- err
				}
				break
			}
			_, dst, err = wire.DecodeBatchInto(f.Payload, 0, dst)
			if err != nil {
				errs <- err
				break
			}
			uf.PushBatch(dst)
		}
		if err := uf.Close(); err != nil {
			errs <- err
		}
	}()
	go func() { // server side: frame results
		defer wg.Done()
		defer outS.Close()
		w := wire.NewWriter(outS)
		ch := uf.Results()
		frame := make([]stream.Result, 0, 1024)
		for r := range ch {
			frame = append(frame, r)
			if len(frame) == cap(frame) || len(ch) == 0 {
				if err := w.WriteResults(frame); err != nil {
					errs <- err
					for range ch {
					}
					return
				}
				frame = frame[:0]
			}
		}
		if len(frame) > 0 {
			if err := w.WriteResults(frame); err != nil {
				errs <- err
			}
		}
	}()
	sink := newSink(l, false)
	done := make(chan struct{})
	go func() { // client side: decode result frames
		defer wg.Done()
		defer close(done)
		rd := wire.NewReader(outC)
		for {
			f, err := rd.ReadFrame()
			if err != nil {
				return
			}
			rs, err := wire.DecodeResults(f.Payload)
			if err != nil {
				errs <- err
				outC.Close()
				return
			}
			for i := range rs {
				sink.add(&rs[i])
			}
		}
	}()
	w := wire.NewWriter(inC)
	fillB := l.fillN / l.o.sh.batch
	var t0 int64
	for b, batch := range l.batches {
		if b == fillB {
			t0 = now()
		}
		if err := w.WriteBatch(uint64(b), batch); err != nil {
			errs <- err
			break
		}
	}
	inC.Close()
	<-done
	t1 := now()
	wg.Wait()
	close(errs)
	for err := range errs {
		return 0, fmt.Errorf("wire slice: %w", err)
	}
	l.check("wire", sink.n, sink.d)
	l.span("wire", t0, t1)
	return float64(t1-t0) / ledgerTuples, nil
}

// inProcServer starts a server on a loopback listener in this process.
func inProcServer(cfg server.Config) (*server.Server, string, func(), error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	served := make(chan struct{})
	go func() {
		_ = srv.Serve(ln)
		close(served)
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-served
	}
	return srv, ln.Addr().String(), stop, nil
}

func (l *ledger) serverConfig() server.Config {
	cfg := server.Config{ProbeKernel: stream.KernelHash}
	if l.o.sh.rateLimit > 0 {
		cfg.Quotas = admission.Config{Server: admission.Quota{RatePerSec: l.o.sh.rateLimit * l.o.sh.rate}}
	}
	return cfg
}

// drive sends every batch through s, timing from the first batch after
// the fill to the last result, and returns the slice's time and its
// SendBatch total. filled, when set, runs once the fill has been sent,
// before the timed stretch starts.
func (l *ledger) drive(slice string, s session, filled, closeFn func() error) (t0, t1 int64, blocked time.Duration, err error) {
	sink := newSink(l, false)
	done := make(chan struct{})
	go sink.drain(s.Results(), done)
	fillB := l.fillN / l.o.sh.batch
	for b, batch := range l.batches {
		if b == fillB {
			if filled != nil {
				if err = filled(); err != nil {
					break
				}
			}
			t0 = now()
		}
		t := now()
		err = s.SendBatch(batch)
		if b >= fillB {
			blocked += time.Duration(now() - t)
		}
		if err != nil {
			break
		}
	}
	if cerr := closeFn(); err == nil {
		err = cerr
	}
	<-done
	t1 = max(now(), sink.lastRecv)
	if err == nil {
		l.check(slice, sink.n, sink.d)
	}
	return t0, t1, blocked, err
}

// session is the slice with a real loopback TCP session to an in-process
// server: credits, session read loop, admission, result frames.
func (l *ledger) session() (float64, error) {
	_, addr, stop, err := inProcServer(l.serverConfig())
	if err != nil {
		return 0, err
	}
	defer stop()
	cl, err := server.Dial(addr, wire.OpenConfig{
		Engine: wire.EngineSoftUni, Cores: l.o.sh.cores * max(l.o.sh.shards, 1),
		Window: l.o.sh.window, ProbeKernel: stream.KernelHash,
	})
	if err != nil {
		return 0, err
	}
	t0, t1, _, err := l.drive("session", cl, nil, func() error { _, err := cl.Close(); return err })
	if err != nil {
		return 0, fmt.Errorf("session slice: %w", err)
	}
	avg, max, _ := cl.BatchRTT()
	l.put("server.batch_rtt_avg_us", "us", float64(avg)/1e3)
	l.put("server.batch_rtt_max_us", "us", float64(max)/1e3)
	l.span("session", t0, t1)
	return float64(t1-t0) / ledgerTuples, nil
}

// router is the slice with the shard router in front: max(1, shards)
// sessions to one in-process server with durable checkpoints. One
// coordinated snapshot of the filled windows is taken before the timed
// stretch, so its quiesce and checkpoint writes stay out of the slice's
// time.
func (l *ledger) router() (float64, error) {
	cfg := l.serverConfig()
	cfg.CheckpointDir = filepath.Join(l.o.dir, "ledger-ckpt")
	cfg.CheckpointInterval = -1
	srv, addr, stop, err := inProcServer(cfg)
	if err != nil {
		return 0, err
	}
	defer stop()
	n := max(l.o.sh.shards, 1)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = addr
	}
	rt, err := shard.Dial(shard.Config{Addrs: addrs, Cores: l.o.sh.cores, Window: l.o.sh.window, ProbeKernel: stream.KernelHash, FailFast: true})
	if err != nil {
		return 0, err
	}
	var stats shard.Stats
	var cs server.CheckpointStats
	var pause time.Duration
	var snapTuples int
	snapshot := func() error {
		t := time.Now()
		tuples, _, _, err := rt.SnapshotState()
		pause = time.Since(t)
		snapTuples = len(tuples)
		cs = srv.ProcessStats().Checkpoints
		return err
	}
	closeFn := func() error {
		st, err := rt.Close()
		stats = st
		return err
	}
	t0, t1, blocked, err := l.drive("router", rt, snapshot, closeFn)
	if err != nil {
		return 0, fmt.Errorf("router slice: %w", err)
	}
	var skewV []uint64
	for _, s := range rt.Shards() {
		skewV = append(skewV, s.Results)
	}
	timedB := float64(len(l.batches) - l.fillN/l.o.sh.batch)
	l.put("shard.send_ns_per_batch", "ns", float64(blocked)/timedB)
	l.put("shard.send_block_share", "ratio", blocked.Seconds()/(float64(t1-t0)/1e9))
	l.put("shard.results_skew", "ratio", skew(skewV))
	putSnapshots(l.put, []time.Duration{pause}, []int{snapTuples})
	l.put("shard.dropped_batches", "count", float64(stats.BatchesDropped))
	l.put("shard.redials", "count", float64(stats.Redials))
	l.put("checkpoint.write_ms", "ms", float64(cs.LastDuration)/1e6)
	l.put("checkpoint.bytes", "bytes", float64(cs.LastBytes))
	l.put("checkpoint.written", "count", float64(cs.Written))
	l.span("router", t0, t1)
	return float64(t1-t0) / ledgerTuples, nil
}
