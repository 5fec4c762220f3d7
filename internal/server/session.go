package server

import (
	"crypto/sha256"
	"crypto/subtle"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"accelstream/internal/admission"
	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// SessionMetrics is a point-in-time snapshot of one session.
type SessionMetrics struct {
	// ID is the server-assigned session identifier.
	ID uint64
	// Engine is the engine kind the session runs.
	Engine wire.EngineKind
	// Remote is the client address.
	Remote string
	// TuplesIn / BatchesIn count ingested input.
	TuplesIn  uint64
	BatchesIn uint64
	// ResultsOut counts join results (matches) streamed back.
	ResultsOut uint64
	// ResultFrames counts Results frames written; with ResultsOut it
	// forms a histogram-style sum/count pair whose ratio is the mean
	// coalesced frame size.
	ResultFrames uint64
	// Backlog is the engine's undelivered-result queue depth.
	Backlog int
	// AvgBatchLatency / MaxBatchLatency measure frame-decode to
	// engine-accept time (the interval the batch's credit is withheld).
	AvgBatchLatency time.Duration
	MaxBatchLatency time.Duration
	// Kernel is the concrete probe kernel the session's engine runs
	// ("hash" or "scan"); empty for engines without probe kernels.
	Kernel string
	// Tenant is the tenant identity the session is accounted under.
	Tenant string
	// Open reports whether the session is still live.
	Open bool
}

// session is one client connection and its engine.
type session struct {
	srv  *Server
	id   uint64
	conn net.Conn

	wmu sync.Mutex // serializes frame writes (reader acks vs writer results)
	w   *wire.Writer
	r   *wire.Reader

	eng    Engine
	engCfg wire.OpenConfig
	opened atomic.Bool
	live   atomic.Bool

	// lease is the session's hold on its tenant's admission quotas,
	// acquired during the handshake (before the engine is built) and
	// released at teardown. Written before opened publishes it.
	lease *admission.Lease

	tuplesIn     atomic.Uint64
	batchesIn    atomic.Uint64
	resultsOut   atomic.Uint64
	resultFrames atomic.Uint64
	latNanos     atomic.Uint64
	latMax       atomic.Uint64

	// lastCkpt is when this session last cut an automatic checkpoint;
	// touched only by the read-loop goroutine.
	lastCkpt time.Time

	// closing is latched (via closeOnce) when the session is being torn
	// down; throttle withholds select against it so shutdown never waits
	// out a rate debt.
	closing   chan struct{}
	closeOnce sync.Once

	// retireOnce guards Server.retire: graceful teardown retires before
	// the Closed frame, and run's exit retires again as a no-op.
	retireOnce sync.Once
}

func newSession(srv *Server, id uint64, conn net.Conn) *session {
	s := &session{
		srv:     srv,
		id:      id,
		conn:    conn,
		w:       wire.NewWriter(conn),
		r:       wire.NewReader(conn),
		closing: make(chan struct{}),
	}
	s.live.Store(true)
	return s
}

// writeErrorFrame best-effort emits an Error frame on a raw connection
// (used for rejects before a session exists).
func writeErrorFrame(w io.Writer, msg string) {
	wire.NewWriter(w).WriteError(msg)
}

// sendLocked serializes one frame write under the session write lock.
func (s *session) send(f func(*wire.Writer) error) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return f(s.w)
}

// metrics snapshots the session counters.
func (s *session) metrics() SessionMetrics {
	m := SessionMetrics{
		ID:              s.id,
		Remote:          s.conn.RemoteAddr().String(),
		TuplesIn:        s.tuplesIn.Load(),
		BatchesIn:       s.batchesIn.Load(),
		ResultsOut:      s.resultsOut.Load(),
		ResultFrames:    s.resultFrames.Load(),
		MaxBatchLatency: time.Duration(s.latMax.Load()),
		Open:            s.live.Load(),
	}
	if m.BatchesIn > 0 {
		m.AvgBatchLatency = time.Duration(s.latNanos.Load() / m.BatchesIn)
	}
	// engCfg and eng are written once during the handshake; the opened
	// flag publishes them, so read them only after observing it.
	if s.opened.Load() {
		m.Engine = s.engCfg.Engine
		m.Tenant = s.lease.Tenant()
		if kr, ok := s.eng.(kernelReporter); ok {
			m.Kernel = kr.Kernel().String()
		}
		if m.Open {
			m.Backlog = s.eng.Backlog()
		}
	}
	return m
}

// abort force-closes the connection; the reader unblocks with an error
// and the normal teardown path runs. The closing signal also interrupts
// a throttle withhold in progress, so a deeply in-debt session cannot
// stall a drain for the remainder of its rate debt.
func (s *session) abort() {
	s.signalClose()
	s.conn.Close()
}

// signalClose latches the session's close signal.
func (s *session) signalClose() {
	s.closeOnce.Do(func() { close(s.closing) })
}

// maxCreditWithhold caps any single throttle withhold. Rate debt beyond
// the cap is not forgiven — it stays in the bucket and the next batches
// keep paying it down — but bounding each individual sleep keeps the read
// loop responsive (a multi-second uninterrupted sleep would also hold the
// batch credit hostage long past any client timeout).
const maxCreditWithhold = 5 * time.Second

// throttleWait blocks for the rate-shaping debt d (capped), or until the
// session is told to close, whichever comes first. A plain time.Sleep
// here was uninterruptible: a tenant deep in debt could stall graceful
// drain / SIGTERM teardown for the full debt duration.
func (s *session) throttleWait(d time.Duration) {
	if d > maxCreditWithhold {
		d = maxCreditWithhold
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.closing:
	}
}

// fail sends a best-effort Error frame and records the cause.
func (s *session) fail(msg string) {
	s.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	s.send(func(w *wire.Writer) error { return w.WriteError(msg) })
}

// run owns the session from handshake to teardown.
func (s *session) run() {
	defer s.conn.Close()
	// The admission lease is acquired mid-handshake; retiring releases it
	// on every exit path (including handshake failures after the gate).
	defer s.srv.retire(s)

	if err := s.handshake(); err != nil {
		s.srv.logf("session %d: handshake failed: %v", s.id, err)
		return
	}
	s.srv.logf("session %d: open from %s (%v, %d cores, window %d, tenant %s)",
		s.id, s.conn.RemoteAddr(), s.engCfg.Engine, s.engCfg.Cores, s.engCfg.Window, s.lease.Tenant())

	// Writer: stream engine results back, coalescing whatever is ready
	// into one Results frame per write.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.pumpResults()
	}()

	mode := s.readLoop()

	// Stop the engine. Close flushes in-flight work, after which the
	// results channel closes and the writer finishes streaming.
	if err := s.eng.Close(); err != nil {
		s.srv.logf("session %d: engine close: %v", s.id, err)
	}
	<-writerDone

	// Persist the terminal window state (the SIGTERM-drain / crash-restart
	// snapshot) before any closing frames: the engine is drained and every
	// result has been handed to the connection.
	s.finalCheckpoint(mode)

	if mode == closeExport {
		// All results are flushed; the drained window image follows, then
		// the Closed frame confirms the hand-off completed. A failed export
		// downgrades the teardown to an abort (no Closed frame), so the
		// coordinator never mistakes a truncated export for a complete one.
		s.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		info, err := s.shipState(false, (*wire.Writer).WriteRebalanceCommit)
		if err != nil {
			s.fail(err.Error())
			s.srv.logf("session %d: state export: %v", s.id, err)
			mode = closeAbort
		} else {
			s.srv.logf("session %d: exported %d R + %d S window tuples at seqs (%d, %d)",
				s.id, info.TuplesR, info.TuplesS, info.SeqR, info.SeqS)
		}
	}
	if mode != closeAbort {
		// The books close before the Closed frame goes out: a client that
		// sees its close acknowledged finds the session retired.
		s.srv.retire(s)
		st := wire.Stats{
			TuplesIn:   s.tuplesIn.Load(),
			BatchesIn:  s.batchesIn.Load(),
			ResultsOut: s.resultsOut.Load(),
		}
		s.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if err := s.send(func(w *wire.Writer) error { return w.WriteClosed(st) }); err != nil {
			s.srv.logf("session %d: writing closed frame: %v", s.id, err)
		}
	}
	m := s.metrics()
	s.srv.logf("session %d: closed (graceful=%v): %d tuples in / %d batches, %d results out, avg batch latency %v",
		s.id, mode != closeAbort, m.TuplesIn, m.BatchesIn, m.ResultsOut, m.AvgBatchLatency)
}

// sessionWindowBytes is the window-memory cost one session is accounted
// for by the admission controller: two sliding windows of Window tuples,
// 16 bytes each (core.Input's key+value pair).
func sessionWindowBytes(cfg wire.OpenConfig) int64 {
	return 2 * int64(cfg.Window) * 16
}

// reject answers a failed handshake in the session's own protocol
// version: v2 sessions get a typed OpenAck rejection (code plus
// retry-after hint), v1 sessions the legacy Error frame.
func (s *session) reject(version uint8, code wire.RejectCode, retryAfter time.Duration, v1msg string) {
	if version != wire.ProtocolV2 {
		s.fail(v1msg)
		return
	}
	s.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	s.send(func(w *wire.Writer) error {
		return w.WriteOpenAck(wire.OpenAck{Version: wire.ProtocolV2, Reject: code, RetryAfter: retryAfter})
	})
}

// tokensMatch compares a presented auth token against the configured one
// in constant time. Both sides are hashed first, so neither the compare
// duration nor an early length check leaks anything about the secret.
func tokensMatch(got, want string) bool {
	gh := sha256.Sum256([]byte(got))
	wh := sha256.Sum256([]byte(want))
	return subtle.ConstantTimeCompare(gh[:], wh[:]) == 1
}

// handshake reads and validates the Open frame, authenticates the session
// when the server requires a token, and starts the engine. Every failure
// path classifies itself into the sessions_rejected_total reason set.
func (s *session) handshake() error {
	s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.HandshakeTimeout))
	f, err := s.r.ReadFrame()
	if err != nil {
		// On a TLS listener the handshake runs lazily under this same
		// read, so a plaintext or mis-configured client surfaces here
		// with the TLS handshake incomplete.
		switch {
		case isTimeout(err):
			s.srv.countReject(rejectTimeout)
		case isIncompleteTLS(s.conn):
			s.srv.countReject(rejectTLS)
		default:
			s.srv.countReject(rejectIO)
		}
		return err
	}
	if f.Type != wire.FrameOpen {
		s.srv.countReject(rejectProtocol)
		s.fail("expected open frame")
		return fmt.Errorf("first frame is %v, want open", f.Type)
	}
	cfg, err := wire.DecodeOpen(f.Payload)
	if err != nil {
		s.srv.countReject(rejectBadOpen)
		s.fail(err.Error())
		return err
	}
	if want := s.srv.cfg.AuthToken; want != "" {
		if cfg.AuthToken == "" {
			s.srv.countReject(rejectNoToken)
			s.reject(cfg.Version, wire.RejectUnauthorized, 0, wire.UnauthorizedPrefix+": auth token required")
			return fmt.Errorf("session sent no auth token")
		}
		if !tokensMatch(cfg.AuthToken, want) {
			s.srv.countReject(rejectBadToken)
			s.reject(cfg.Version, wire.RejectUnauthorized, 0, wire.UnauthorizedPrefix+": bad auth token")
			return fmt.Errorf("session sent a bad auth token")
		}
	}
	// Admission gate: resolve the tenant identity and charge the session
	// against its quotas before any engine memory is committed. Over-limit
	// opens fail fast here with a typed reject code and retry hint.
	tenant := admission.DeriveTenant(cfg.Tenant, cfg.AuthToken)
	lease, rej := s.srv.adm.Admit(tenant, sessionWindowBytes(cfg))
	if rej != nil {
		s.srv.countReject(rej.Code.String())
		s.reject(cfg.Version, rej.Code, rej.RetryAfter, rej.Error())
		return fmt.Errorf("tenant %q: %v", tenant, rej)
	}
	s.lease = lease
	// Server-wide probe-kernel default: sessions that left the kernel on
	// auto inherit the operator's `-probe-kernel` choice. Only soft-uni
	// engines have probe kernels, and explicit session choices win.
	if cfg.Engine == wire.EngineSoftUni && cfg.ProbeKernel == stream.KernelAuto {
		cfg.ProbeKernel = s.srv.cfg.ProbeKernel
	}
	build := buildEngine
	if s.srv.cfg.NewEngine != nil {
		build = func(cfg wire.OpenConfig) (Engine, error) {
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			return s.srv.cfg.NewEngine(cfg)
		}
	}
	// Restore path: when a loaded checkpoint matches this session's shape,
	// build the engine with the snapshot's arrival counters so the client
	// replays only the post-snapshot suffix of the streams.
	restored := s.srv.takeRestored(cfg)
	if restored != nil {
		cfg.BaseSeqR = restored.Meta.SeqR
		cfg.BaseSeqS = restored.Meta.SeqS
	}
	eng, err := build(cfg)
	if err != nil {
		s.srv.countReject(rejectEngine)
		s.fail(err.Error())
		return err
	}
	if err := eng.Start(); err != nil {
		s.srv.countReject(rejectEngine)
		s.fail(err.Error())
		return err
	}
	if restored != nil {
		imp, ok := eng.(StateImporter)
		if !ok {
			err = fmt.Errorf("engine %v cannot import restored state", cfg.Engine)
		} else {
			err = imp.ImportState(restored.Tuples)
		}
		if err != nil {
			eng.Close()
			s.srv.countReject(rejectEngine)
			s.fail(err.Error())
			return fmt.Errorf("restoring checkpoint: %w", err)
		}
		s.srv.ckptRestores.Add(1)
		s.srv.ckptRestoreTuples.Add(uint64(len(restored.Tuples)))
		s.srv.logf("session %d: restored checkpoint at seqs (%d, %d), %d window tuples",
			s.id, restored.Meta.SeqR, restored.Meta.SeqS, len(restored.Tuples))
	}
	s.eng = eng
	s.engCfg = cfg
	s.opened.Store(true)
	// The ack answers in the session's own protocol version: v2 opens get
	// the TLV ack (able to carry typed rejects on later redials), v1 opens
	// the legacy positional encoding.
	ack := wire.OpenAck{Version: cfg.Version, Credits: s.srv.cfg.InitialCredits, Session: s.id}
	if restored != nil {
		ack.Resumed = true
		ack.ResumeSeqR = restored.Meta.SeqR
		ack.ResumeSeqS = restored.Meta.SeqS
	}
	return s.send(func(w *wire.Writer) error { return w.WriteOpenAck(ack) })
}

// closeMode is how a session's read loop ended, which selects the
// teardown path.
type closeMode int

const (
	// closeAbort: connection or protocol failure — tear down silently.
	closeAbort closeMode = iota
	// closeGraceful: FrameClose — drain and send the Closed frame.
	closeGraceful
	// closeExport: FrameRebalancePrepare — drain, stream the window state,
	// then send the Closed frame.
	closeExport
)

// readLoop ingests frames until Close (graceful), RebalancePrepare
// (export), or a connection/protocol error (abort).
func (s *session) readLoop() closeMode {
	// One decode buffer for the session's whole life: DecodeBatchInto
	// reuses its storage, and the Engine contract says PushBatch does not
	// retain the slice, so steady-state frame decoding never allocates.
	var decodeBuf []core.Input
	// imported accumulates the client-pushed state-chunk counts until the
	// client's RebalanceCommit closes the import.
	var imported wire.RebalanceInfo
	importDone := false
	for {
		if s.srv.cfg.IdleTimeout > 0 {
			s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.IdleTimeout))
		} else {
			s.conn.SetReadDeadline(time.Time{})
		}
		f, err := s.r.ReadFrame()
		if err != nil {
			if errors.Is(err, io.EOF) {
				s.srv.logf("session %d: client disconnected", s.id)
			} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.fail("idle timeout")
				s.srv.logf("session %d: idle timeout", s.id)
			} else {
				s.srv.logf("session %d: read: %v", s.id, err)
			}
			return closeAbort
		}
		switch f.Type {
		case wire.FrameBatch:
			start := time.Now()
			_, batch, err := wire.DecodeBatchInto(f.Payload, s.srv.cfg.MaxBatch, decodeBuf)
			decodeBuf = batch
			if err != nil {
				s.fail(err.Error())
				s.srv.logf("session %d: bad batch: %v", s.id, err)
				return closeAbort
			}
			// PushBatch blocks while the engine (or the result path
			// back to this client) is saturated; the credit for this
			// batch is withheld for exactly that long, which is the
			// backpressure signal the client observes. The withheld
			// interval is visible process-wide as credits_outstanding.
			s.srv.creditsHeld.Add(1)
			if err := s.eng.PushBatch(batch); err != nil {
				s.srv.creditsHeld.Add(-1)
				s.fail(err.Error())
				s.srv.logf("session %d: engine push: %v", s.id, err)
				return closeAbort
			}
			elapsed := time.Since(start)
			s.tuplesIn.Add(uint64(len(batch)))
			s.batchesIn.Add(1)
			s.latNanos.Add(uint64(elapsed.Nanoseconds()))
			for {
				prev := s.latMax.Load()
				if uint64(elapsed.Nanoseconds()) <= prev || s.latMax.CompareAndSwap(prev, uint64(elapsed.Nanoseconds())) {
					break
				}
			}
			// Rate shaping: charge the batch against the tenant's (and the
			// server's) token bucket and withhold this batch's credit for
			// the debt. The batch itself was already accepted — shaping
			// delays credits, it never drops data — and the sleep happens
			// while creditsHeld still counts the batch, so the backpressure
			// gauge reflects throttling too.
			if d := s.lease.Throttle(len(batch)); d > 0 {
				s.throttleWait(d)
			}
			err = s.send(func(w *wire.Writer) error { return w.WriteCredit(1) })
			s.srv.creditsHeld.Add(-1)
			if err != nil {
				s.srv.logf("session %d: writing credit: %v", s.id, err)
				return closeAbort
			}
			// Each batch boundary is a punctuation boundary — the cheapest
			// place to cut an interval-driven durable snapshot.
			s.maybeAutoCheckpoint()
		case wire.FrameCheckpoint:
			// Client-requested snapshot. Unlike RebalancePrepare this is
			// non-terminal: the engine quiesces, the snapshot (and every
			// result the included input produced) is flushed, and the
			// session resumes streaming. On a checkpoint-less server the
			// request degrades to a barrier acknowledgement: the state is
			// still collected and summarized, just not persisted.
			if _, err := s.shipState(true, (*wire.Writer).WriteCheckpointDone); err != nil {
				s.fail(err.Error())
				s.srv.logf("session %d: checkpoint: %v", s.id, err)
				return closeAbort
			}
		case wire.FrameClose:
			return closeGraceful
		case wire.FrameRebalancePrepare:
			if _, ok := s.eng.(Snapshotter); !ok {
				s.fail(fmt.Sprintf("engine %v does not support state export", s.engCfg.Engine))
				s.srv.logf("session %d: rebalance-prepare on a non-exportable engine", s.id)
				return closeAbort
			}
			return closeExport
		case wire.FrameStateChunk:
			// Import path: a rebalance coordinator seeds a fresh session's
			// window before streaming resumes. Only before the first batch —
			// afterwards the engine's arrival counters have moved past the
			// punctuation boundary the state was sliced at.
			imp, ok := s.eng.(StateImporter)
			if !ok {
				s.fail(fmt.Sprintf("engine %v does not support state import", s.engCfg.Engine))
				return closeAbort
			}
			if s.batchesIn.Load() != 0 || importDone {
				s.fail("state chunk after streaming began")
				s.srv.logf("session %d: late state chunk", s.id)
				return closeAbort
			}
			tuples, err := wire.DecodeStateChunk(f.Payload, nil)
			if err != nil {
				s.fail(err.Error())
				s.srv.logf("session %d: bad state chunk: %v", s.id, err)
				return closeAbort
			}
			if err := imp.ImportState(tuples); err != nil {
				s.fail(err.Error())
				s.srv.logf("session %d: state import: %v", s.id, err)
				return closeAbort
			}
			for i := range tuples {
				if tuples[i].Side == stream.SideR {
					imported.TuplesR++
				} else {
					imported.TuplesS++
				}
			}
		case wire.FrameRebalanceCommit:
			// The client ends its state transfer; echo what this session
			// actually installed (counts observed, base counters configured)
			// so the coordinator can verify the hand-off before resuming.
			want, err := wire.DecodeRebalanceCommit(f.Payload)
			if err != nil {
				s.fail(err.Error())
				return closeAbort
			}
			imported.SeqR, imported.SeqS = s.engCfg.BaseSeqR, s.engCfg.BaseSeqS
			if importDone || want != imported {
				s.fail(fmt.Sprintf("rebalance commit mismatch: sent %+v, installed %+v", want, imported))
				s.srv.logf("session %d: rebalance commit mismatch: sent %+v, installed %+v", s.id, want, imported)
				return closeAbort
			}
			importDone = true
			if err := s.send(func(w *wire.Writer) error { return w.WriteRebalanceCommit(imported) }); err != nil {
				s.srv.logf("session %d: writing rebalance commit: %v", s.id, err)
				return closeAbort
			}
			s.srv.logf("session %d: imported %d R + %d S window tuples at base seqs (%d, %d)",
				s.id, imported.TuplesR, imported.TuplesS, imported.SeqR, imported.SeqS)
		case wire.FrameError:
			s.srv.logf("session %d: client error: %s", s.id, wire.DecodeError(f.Payload))
			return closeAbort
		default:
			s.fail(fmt.Sprintf("unexpected %v frame", f.Type))
			s.srv.logf("session %d: unexpected %v frame", s.id, f.Type)
			return closeAbort
		}
	}
}

// isIncompleteTLS reports whether conn is a TLS connection whose handshake
// never completed — the signature of a plaintext (or TLS-misconfigured)
// client hitting a TLS listener.
func isIncompleteTLS(conn net.Conn) bool {
	tc, ok := conn.(*tls.Conn)
	return ok && !tc.ConnectionState().HandshakeComplete
}

// isTimeout reports whether err is a network timeout (deadline expiry).
func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

const maxResultsPerFrame = 1024

// resultFramePool shares coalescing buffers across every session, so an
// idle session does not pin a full frame's worth of results and a busy one
// recycles a warm buffer per frame.
var resultFramePool = sync.Pool{
	New: func() any {
		s := make([]stream.Result, 0, maxResultsPerFrame)
		return &s
	},
}

// pumpResults drains the engine's result channel into Results frames,
// coalescing ready results up to maxResultsPerFrame per write into a
// pooled buffer. On a write failure it keeps draining (discarding) so
// engine Close can complete.
func (s *session) pumpResults() {
	results := s.eng.Results()
	writeOK := true
	for r := range results {
		bufp := resultFramePool.Get().(*[]stream.Result)
		batch := append((*bufp)[:0], r)
		// Coalesce whatever else is immediately available.
	coalesce:
		for len(batch) < maxResultsPerFrame {
			select {
			case r2, ok := <-results:
				if !ok {
					break coalesce
				}
				batch = append(batch, r2)
			default:
				break coalesce
			}
		}
		if writeOK {
			if err := s.send(func(w *wire.Writer) error { return w.WriteResults(batch) }); err != nil {
				s.srv.logf("session %d: writing results: %v", s.id, err)
				writeOK = false
			}
		}
		// Counted after the write: the checkpoint durability barrier
		// (flushResults) reads resultsOut as "handed to the connection".
		// Still counted when the write failed or was skipped, so the
		// barrier terminates on a dead connection.
		s.resultsOut.Add(uint64(len(batch)))
		s.resultFrames.Add(1)
		*bufp = batch[:0]
		resultFramePool.Put(bufp)
	}
}
