package server

import (
	"fmt"
	"sync/atomic"

	"accelstream/internal/core"
	"accelstream/internal/hwjoin"
	"accelstream/internal/softjoin"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// Engine is the server-side abstraction over the join engines a session
// can run: the software uni-flow (SplitJoin) and bi-flow (handshake join)
// engines, and the cycle-level simulated uni-flow design for small
// windows. PushBatch assigns arrival sequence numbers in wire order and
// blocks under engine backpressure; it must NOT retain the batch slice
// after returning — the session decodes every frame into one persistent
// buffer and reuses it immediately (copy the batch if the implementation
// needs it beyond the call).
//
// ResultBatches is the engine's result stream, one channel operation per
// batch of results. The session owns each batch it receives: it writes the
// batch to the connection as Results frames and then calls Release, so the
// engine must not touch a batch after sending it (the mirror of the
// no-retain rule for input). The channel is closed after Close once all
// in-flight work has drained. ResultsEmitted counts the results sent on
// that channel so far, counted after each hand-off: the session derives
// its undelivered backlog from it, and its snapshot flush barrier relies
// on the count being exact once SnapshotState returns.
//
// Config.NewEngine lets an embedder substitute its own implementation
// (the shard router daemon serves a whole cluster behind this interface).
type Engine interface {
	Start() error
	PushBatch(batch []core.Input) error
	ResultBatches() <-chan *stream.ResultBatch
	ResultsEmitted() uint64
	Close() error
}

// StateImporter is the optional engine capability behind the rebalance
// import path: ImportState installs a window-state slice into a freshly
// opened engine before its first batch. A session accepts FrameStateChunk
// only when its engine implements this.
type StateImporter interface {
	ImportState(tuples []core.Input) error
}

// Snapshotter is the optional engine capability behind every window-state
// image a session cuts: durable checkpoints and rebalance exports alike.
// SnapshotState quiesces the engine at a punctuation boundary, returns
// the resident window state (ascending per-side sequence order, R before
// S) with the per-side arrival counters at the boundary, and leaves a
// live engine running; on a closed engine it returns the drained,
// terminal state at once. At that boundary Engine.ResultsEmitted is
// exact, so a session can wait until every pre-snapshot result has
// reached the connection before shipping or persisting the image. A
// session honors FrameCheckpoint, FrameRebalancePrepare and the automatic
// checkpoint interval only when its engine implements this.
type Snapshotter interface {
	SnapshotState() (tuples []core.Input, seqR, seqS uint64, err error)
}

// buildEngine instantiates the engine a session requested.
func buildEngine(cfg wire.OpenConfig) (Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch cfg.Engine {
	case wire.EngineSoftUni:
		e, err := softjoin.NewUniFlow(softjoin.Config{
			NumCores:       cfg.Cores,
			WindowSize:     cfg.Window,
			OrderedResults: cfg.Ordered,
			ShardCount:     cfg.ShardCount,
			ShardIndex:     cfg.ShardIndex,
			BaseSeqR:       cfg.BaseSeqR,
			BaseSeqS:       cfg.BaseSeqS,
			ProbeKernel:    cfg.ProbeKernel,
		})
		if err != nil {
			return nil, err
		}
		return &uniEngine{e}, nil
	case wire.EngineSoftBi:
		e, err := softjoin.NewBiFlow(softjoin.Config{
			NumCores:   cfg.Cores,
			WindowSize: cfg.Window,
		})
		if err != nil {
			return nil, err
		}
		return &biEngine{e}, nil
	case wire.EngineSimUni:
		return newSimEngine(cfg.Cores, cfg.Window)
	default:
		return nil, fmt.Errorf("server: unsupported engine %v", cfg.Engine)
	}
}

// kernelReporter is the optional engine capability behind the probe-kernel
// metrics: the concrete (resolved) kernel the engine's cores run.
type kernelReporter interface {
	Kernel() stream.ProbeKernel
}

// uniEngine adapts softjoin.UniFlow. ResultBatches, ResultsEmitted and
// Kernel are promoted from the embedded engine, so uniEngine also
// satisfies kernelReporter.
type uniEngine struct{ *softjoin.UniFlow }

func (e *uniEngine) PushBatch(batch []core.Input) error {
	e.UniFlow.PushBatch(batch)
	return nil
}

// biEngine adapts softjoin.BiFlow, whose ingest API is per tuple.
type biEngine struct{ *softjoin.BiFlow }

func (e *biEngine) PushBatch(batch []core.Input) error {
	for i := range batch {
		e.BiFlow.Push(batch[i].Side, batch[i].Tuple)
	}
	return nil
}

func (e *biEngine) ResultsEmitted() uint64 { return e.Collected() }

// simEngine adapts the cycle-level simulated uni-flow FPGA design to the
// streaming interface: each pushed batch is queued onto the simulated
// ingress bus, the design is stepped to quiescence, and the sink's newly
// drained results are forwarded as one batch. Processing is synchronous
// in the caller (one bus word per simulated cycle), which is why the wire
// protocol caps the simulated engine's window size.
type simEngine struct {
	design   *hwjoin.UniFlowDesign
	queue    []hwjoin.Flit
	results  chan *stream.ResultBatch
	emitted  atomic.Uint64 // sink results forwarded; also read by metrics scrapes
	seqR     uint64
	seqS     uint64
	closed   bool
	cycleCap uint64 // per-tuple quiescence budget
}

func newSimEngine(cores, window int) (*simEngine, error) {
	e := &simEngine{
		// One batch per drain: buffering one lets the next pushed batch
		// simulate while the session writes the previous one.
		results: make(chan *stream.ResultBatch, 1),
	}
	d, err := hwjoin.BuildUniFlow(hwjoin.UniFlowConfig{
		NumCores:   cores,
		WindowSize: window,
	}, true, e.next)
	if err != nil {
		return nil, err
	}
	e.design = d
	// Worst case a tuple occupies the bus for one full sub-window scan
	// plus the network pipeline depths; a generous multiple keeps the
	// budget a safety net rather than a limiter.
	e.cycleCap = uint64(8*d.SubWindowSize() + 64)
	return e, nil
}

// next feeds the design's Source from the queued batch; an empty queue
// reports exhaustion, which PushBatch clears via Reopen.
func (e *simEngine) next() (hwjoin.Flit, bool) {
	if len(e.queue) == 0 {
		return hwjoin.Flit{}, false
	}
	f := e.queue[0]
	e.queue = e.queue[1:]
	return f, true
}

func (e *simEngine) Start() error { return nil }

func (e *simEngine) PushBatch(batch []core.Input) error {
	if e.closed {
		return fmt.Errorf("server: simulated engine already closed")
	}
	for i := range batch {
		t := batch[i].Tuple
		if batch[i].Side == stream.SideR {
			t.Seq = e.seqR
			e.seqR++
		} else {
			t.Seq = e.seqS
			e.seqS++
		}
		e.queue = append(e.queue, hwjoin.TupleFlit(batch[i].Side, t))
	}
	return e.drain(uint64(len(batch))*e.cycleCap + 4096)
}

// drain steps the simulation until quiescent and forwards the new results
// as one batch.
func (e *simEngine) drain(budget uint64) error {
	e.design.Source().Reopen()
	if _, err := e.design.RunToQuiescence(budget); err != nil {
		return fmt.Errorf("server: simulated engine did not quiesce: %w", err)
	}
	fresh := e.design.Sink().Results()[e.emitted.Load():]
	if len(fresh) == 0 {
		return nil
	}
	b := stream.GetResultBatch()
	b.Items = append(b.Items, fresh...)
	e.results <- b // blocks: engine backpressure
	e.emitted.Add(uint64(len(fresh)))
	return nil
}

func (e *simEngine) ResultBatches() <-chan *stream.ResultBatch { return e.results }

func (e *simEngine) ResultsEmitted() uint64 { return e.emitted.Load() }

func (e *simEngine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	err := e.drain(e.cycleCap * 16)
	close(e.results)
	return err
}
