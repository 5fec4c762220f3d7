package server

import (
	"fmt"
	"runtime"
	"time"

	"accelstream/internal/checkpoint"
	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// This file wires the durable-checkpoint subsystem (internal/checkpoint)
// into the session lifecycle:
//
//   - initCheckpoints (New): open the store and load the newest valid
//     snapshot before the listener accepts anything.
//   - takeRestored (handshake): hand the loaded snapshot to the first
//     session whose engine shape matches, exactly once; the session
//     resumes the engine's BaseSeqR/S from it, imports the window, and
//     tells the client via the OpenAck resume tail.
//   - cutSnapshot (every window image): quiesce the engine at a
//     punctuation boundary and wait until every result the snapshotted
//     input produced has been handed to the connection (so a restored
//     client never misses results it was never sent). checkpointNow (the
//     automatic interval / final teardown) then persists the image;
//     shipState (FrameCheckpoint / FrameRebalancePrepare) streams it to
//     the client, persisting it first for a Checkpoint.
//
// The result-flush barrier is what makes a snapshot safe to resume from:
// a snapshot only becomes durable after every result implied by its
// input has been written to the socket, so the suffix a client replays
// after restore is the only part of the result stream it can see twice
// (dedupable by Result.PairID) and nothing is ever lost.

// initCheckpoints opens the checkpoint store and loads the newest valid
// snapshot, if Config.CheckpointDir is set.
func (s *Server) initCheckpoints() error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	st, err := checkpoint.NewStore(s.cfg.CheckpointDir, s.cfg.CheckpointRetain, s.cfg.Logf)
	if err != nil {
		return err
	}
	s.ckpt = st
	snap, ok, err := st.LatestValid()
	if err != nil {
		return err
	}
	if ok {
		s.restored = &snap
		s.ckptLastNanos.Store(snap.Meta.UnixNanos)
		s.logf("checkpoint: loaded snapshot at seqs (%d, %d), %d window tuples, cut %s ago",
			snap.Meta.SeqR, snap.Meta.SeqS, len(snap.Tuples),
			time.Since(time.Unix(0, snap.Meta.UnixNanos)).Round(time.Millisecond))
	}
	return nil
}

// takeRestored consumes the loaded snapshot for a session whose Open
// config matches its shape: same engine kind, window, ordering, and
// shard role, and a client that is not already resuming its own base
// sequence numbers (a shard router redial carries non-zero bases and
// must not be hijacked). Returns nil when there is nothing to restore.
func (s *Server) takeRestored(cfg wire.OpenConfig) *checkpoint.Snapshot {
	if s.ckpt == nil {
		return nil
	}
	s.restoredMu.Lock()
	defer s.restoredMu.Unlock()
	snap := s.restored
	if snap == nil {
		return nil
	}
	if cfg.Engine != wire.EngineSoftUni ||
		snap.Meta.Engine != byte(cfg.Engine) ||
		snap.Meta.Window != cfg.Window ||
		snap.Meta.Ordered != cfg.Ordered ||
		snap.Meta.ShardCount != max(cfg.ShardCount, 1) ||
		snap.Meta.ShardIndex != cfg.ShardIndex ||
		cfg.BaseSeqR != 0 || cfg.BaseSeqS != 0 {
		return nil
	}
	s.restored = nil // consumed: a second session starts fresh
	return snap
}

// flushResults spin-waits until the writer has handed at least target
// results to the connection. Callers quiesce the engine first, so target
// is exact and the pump is guaranteed to reach it (it keeps draining
// even when the socket write fails).
func (s *session) flushResults(target uint64) {
	for s.resultsOut.Load() < target {
		runtime.Gosched()
	}
}

// cutSnapshot quiesces the engine at the current punctuation boundary
// and returns its window image and summary (per-side tuple totals and
// arrival counters). It is the one way a session captures window state:
// checkpoints cut it from the live engine, rebalance exports from the
// closed, drained one. Must run on the session's read-loop goroutine (or
// after it has exited): the quiesce requires the single producer to be
// paused.
func (s *session) cutSnapshot() ([]core.Input, wire.RebalanceInfo, error) {
	snap, ok := s.eng.(Snapshotter)
	if !ok {
		return nil, wire.RebalanceInfo{}, fmt.Errorf("engine %v does not support snapshots", s.engCfg.Engine)
	}
	tuples, seqR, seqS, err := snap.SnapshotState()
	if err != nil {
		s.srv.ckptErrors.Add(1)
		return nil, wire.RebalanceInfo{}, err
	}
	// Durability barrier: every result the snapshotted input produced must
	// reach the connection before the snapshot can be trusted — a client
	// that resumes from it replays only the post-snapshot suffix and would
	// otherwise silently lose results.
	s.flushResults(snap.ResultsEmitted())

	info := wire.RebalanceInfo{SeqR: seqR, SeqS: seqS}
	for i := range tuples {
		if tuples[i].Side == stream.SideR {
			info.TuplesR++
		} else {
			info.TuplesS++
		}
	}
	return tuples, info, nil
}

// persistSnapshot writes a cut snapshot to the store. sync selects a
// synchronous write (client-requested checkpoints and the final teardown
// snapshot, where the acknowledgement must imply durability); the
// automatic interval path writes in the background behind a
// single-flight gate so ingest never stalls on fsync.
func (s *session) persistSnapshot(tuples []core.Input, info wire.RebalanceInfo, sync bool) {
	file := checkpoint.Snapshot{
		Meta: checkpoint.Meta{
			Engine:     byte(s.engCfg.Engine),
			Cores:      s.engCfg.Cores,
			Window:     s.engCfg.Window,
			Ordered:    s.engCfg.Ordered,
			ShardCount: max(s.engCfg.ShardCount, 1),
			ShardIndex: s.engCfg.ShardIndex,
			SeqR:       info.SeqR,
			SeqS:       info.SeqS,
			TuplesR:    info.TuplesR,
			TuplesS:    info.TuplesS,
			UnixNanos:  time.Now().UnixNano(),
			Session:    s.id,
		},
		Tuples: tuples,
	}
	if sync {
		s.srv.writeSnapshot(file)
		return
	}
	// Background write: the tuple slice is freshly collected by
	// SnapshotState, so the engine never touches it again.
	if !s.srv.ckptWriting.CompareAndSwap(false, true) {
		s.srv.ckptSkipped.Add(1)
		return
	}
	go func() {
		defer s.srv.ckptWriting.Store(false)
		s.srv.writeSnapshot(file)
	}()
}

// checkpointNow cuts and persists a snapshot (the automatic-interval and
// final-teardown paths).
func (s *session) checkpointNow(sync bool) (wire.RebalanceInfo, error) {
	tuples, info, err := s.cutSnapshot()
	if err != nil {
		return wire.RebalanceInfo{}, err
	}
	s.persistSnapshot(tuples, info, sync)
	return info, nil
}

// shipState cuts the window image and streams it to the client as
// StateChunk frames, closed by done carrying the summary: CheckpointDone
// answers a client Checkpoint frame (persist set: the image is also
// written durably when this server has a checkpoint store), and
// RebalanceCommit ends a rebalance export. A shard router assembling a
// coordinated all-shard snapshot, or a rebalance coordinator, consumes
// the frames.
func (s *session) shipState(persist bool, done func(*wire.Writer, wire.RebalanceInfo) error) (wire.RebalanceInfo, error) {
	tuples, info, err := s.cutSnapshot()
	if err != nil {
		return wire.RebalanceInfo{}, err
	}
	if persist && s.srv.ckpt != nil {
		s.persistSnapshot(tuples, info, true)
	}
	err = s.send(func(w *wire.Writer) error {
		if err := w.WriteState(tuples); err != nil {
			return err
		}
		return done(w, info)
	})
	if err != nil {
		return wire.RebalanceInfo{}, fmt.Errorf("writing window state: %w", err)
	}
	return info, nil
}

// writeSnapshot persists one snapshot and updates the metrics.
func (s *Server) writeSnapshot(file checkpoint.Snapshot) {
	start := time.Now()
	n, err := s.ckpt.Write(file)
	if err != nil {
		s.ckptErrors.Add(1)
		s.logf("checkpoint: write failed: %v", err)
		return
	}
	s.ckptTotal.Add(1)
	s.ckptLastNanos.Store(file.Meta.UnixNanos)
	s.ckptLastBytes.Store(uint64(n))
	s.ckptLastDur.Store(time.Since(start).Nanoseconds())
	s.logf("checkpoint: wrote %d bytes at seqs (%d, %d), %d window tuples, in %v",
		n, file.Meta.SeqR, file.Meta.SeqS, len(file.Tuples), time.Since(start).Round(time.Microsecond))
}

// maybeAutoCheckpoint cuts a background snapshot when the configured
// interval has elapsed since the last one this session took. Called from
// the read loop after each batch, so every automatic snapshot sits at a
// batch (punctuation) boundary.
func (s *session) maybeAutoCheckpoint() {
	if s.srv.ckpt == nil || s.srv.cfg.CheckpointInterval <= 0 {
		return
	}
	if _, ok := s.eng.(Snapshotter); !ok {
		return
	}
	now := time.Now()
	if !s.lastCkpt.IsZero() && now.Sub(s.lastCkpt) < s.srv.cfg.CheckpointInterval {
		return
	}
	s.lastCkpt = now
	if _, err := s.checkpointNow(false); err != nil {
		s.srv.logf("session %d: auto checkpoint: %v", s.id, err)
	}
}

// finalCheckpoint writes one last synchronous snapshot at session
// teardown — the engine is closed and drained, so SnapshotState returns
// immediately with the terminal state. This is what a SIGTERM drain
// persists. Skipped when the session exported its state to a rebalance
// coordinator (the window now lives elsewhere) or ingested nothing.
func (s *session) finalCheckpoint(mode closeMode) {
	if s.srv.ckpt == nil || mode == closeExport || s.tuplesIn.Load() == 0 {
		return
	}
	if _, ok := s.eng.(Snapshotter); !ok {
		return
	}
	if _, err := s.checkpointNow(true); err != nil {
		s.srv.logf("session %d: final checkpoint: %v", s.id, err)
	}
}
