package softjoin

import (
	"fmt"
	"sync"
	"sync/atomic"

	"accelstream/internal/stream"
)

// BiFlow is a software handshake-join chain: join-core goroutines connected
// left-to-right for S tuples and right-to-left for R tuples (Figure 8a).
// Each core entry-scans an arriving tuple against its resident segment of
// the opposite stream, stores it, and evicts its oldest tuple toward the
// next core once the segment is over-full. Tuples falling off the chain
// ends have expired out of the window.
//
// The software chain uses buffered channels for neighbour hand-offs, so —
// exactly as the paper notes for handshake join — tuples can be in flight
// between cores and the result set follows handshake join's relaxed window
// semantics rather than strict arrival-order semantics.
type BiFlow struct {
	cfg       Config
	subWindow int
	cores     []*biSoftCore
	// results is the engine's result stream: every core sends each tuple's
	// match vector onto it as one batch.
	results   chan *stream.ResultBatch
	perResult stream.Unbatcher

	wg      sync.WaitGroup
	started bool
	closed  bool

	seqR, seqS uint64
	injected   atomic.Uint64
	collected  atomic.Uint64
	expiredR   atomic.Uint64
	expiredS   atomic.Uint64
}

type biSoftCore struct {
	eng       *BiFlow
	position  int
	subWindow int
	cond      stream.JoinCondition

	inS  chan stream.Tuple // from the left
	inR  chan stream.Tuple // from the right
	outS chan stream.Tuple // to the right (nil at the right end: expiry)
	outR chan stream.Tuple // to the left (nil at the left end: expiry)

	segR *stream.SlidingWindow
	segS *stream.SlidingWindow

	expireR func() // called instead of sending when outR is nil
	expireS func()

	processed atomic.Uint64
	compared  atomic.Uint64
}

// NewBiFlow builds (but does not start) the chain.
func NewBiFlow(cfg Config) (*BiFlow, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.sharded() || cfg.BaseSeqR != 0 || cfg.BaseSeqS != 0 {
		return nil, fmt.Errorf("softjoin: sharded storage and sequence offsets require the uni-flow engine")
	}
	depth := cfg.ChannelDepth * cfg.BatchSize
	if depth < 1 {
		depth = 1
	}
	e := &BiFlow{
		cfg:       cfg,
		subWindow: cfg.subWindowSize(),
		// One vector per matching tuple: the result stream buffers as many
		// tuples' vectors as a neighbour link buffers tuples.
		results: make(chan *stream.ResultBatch, depth),
	}
	for i := 0; i < cfg.NumCores; i++ {
		e.cores = append(e.cores, &biSoftCore{
			eng:       e,
			position:  i,
			subWindow: e.subWindow,
			cond:      cfg.Condition,
			inS:       make(chan stream.Tuple, depth),
			inR:       make(chan stream.Tuple, depth),
			segR:      stream.NewSlidingWindow(e.subWindow + 1),
			segS:      stream.NewSlidingWindow(e.subWindow + 1),
		})
	}
	// Wire neighbours: core i's S eviction feeds core i+1, R eviction feeds
	// core i-1; the chain ends expire.
	for i, c := range e.cores {
		if i+1 < len(e.cores) {
			c.outS = e.cores[i+1].inS
		} else {
			c.expireS = func() { e.expiredS.Add(1) }
		}
		if i > 0 {
			c.outR = e.cores[i-1].inR
		} else {
			c.expireR = func() { e.expiredR.Add(1) }
		}
	}
	return e, nil
}

// Preload fills the chain's segments as if the tuples had flowed through
// (newest S at the left end, newest R at the right end). Must precede Start.
func (e *BiFlow) Preload(r, s []stream.Tuple) error {
	if e.started {
		return fmt.Errorf("softjoin: Preload must precede Start")
	}
	n := e.cfg.NumCores
	w := e.subWindow
	if len(r) > e.cfg.WindowSize {
		r = r[len(r)-e.cfg.WindowSize:]
	}
	if len(s) > e.cfg.WindowSize {
		s = s[len(s)-e.cfg.WindowSize:]
	}
	for p := 0; p < n; p++ {
		lo := p * w
		if lo < len(s) {
			hi := lo + w
			if hi > len(s) {
				hi = len(s)
			}
			for _, t := range s[lo:hi] {
				e.cores[n-1-p].segS.Insert(t)
			}
		}
		if lo < len(r) {
			hi := lo + w
			if hi > len(r) {
				hi = len(r)
			}
			for _, t := range r[lo:hi] {
				e.cores[p].segR.Insert(t)
			}
		}
	}
	e.seqR = uint64(len(r))
	e.seqS = uint64(len(s))
	return nil
}

// Start launches the chain.
func (e *BiFlow) Start() error {
	if e.started {
		return fmt.Errorf("softjoin: engine already started")
	}
	e.started = true
	for _, c := range e.cores {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			c.run()
		}()
	}
	return nil
}

// run is one chain core: receive from either direction, entry-scan, store,
// and forward evictions. Pending evictions are sent opportunistically via
// the nil-channel select idiom, so a core never blocks on a send while
// refusing to receive — the chain cannot deadlock.
func (c *biSoftCore) run() {
	var pendingS, pendingR []stream.Tuple
	inS, inR := c.inS, c.inR
	sDone, rDone := false, false
	for {
		// Expiry ends are drained immediately.
		if c.outS == nil {
			for range pendingS {
				c.expireS()
			}
			pendingS = pendingS[:0]
		}
		if c.outR == nil {
			for range pendingR {
				c.expireR()
			}
			pendingR = pendingR[:0]
		}

		// Each direction's end-of-stream propagates independently down the
		// chain; waiting for both before closing either would deadlock the
		// two opposite-direction pipelines against each other.
		if !sDone && inS == nil && len(pendingS) == 0 {
			sDone = true
			if c.outS != nil {
				close(c.outS)
			}
		}
		if !rDone && inR == nil && len(pendingR) == 0 {
			rDone = true
			if c.outR != nil {
				close(c.outR)
			}
		}
		if sDone && rDone {
			return
		}

		var sendS, sendR chan stream.Tuple
		var sVal, rVal stream.Tuple
		if len(pendingS) > 0 {
			sendS = c.outS
			sVal = pendingS[0]
		}
		if len(pendingR) > 0 {
			sendR = c.outR
			rVal = pendingR[0]
		}

		select {
		case t, ok := <-inS:
			if !ok {
				inS = nil
				continue
			}
			pendingS = c.process(t, stream.SideS, pendingS)
		case t, ok := <-inR:
			if !ok {
				inR = nil
				continue
			}
			pendingR = c.process(t, stream.SideR, pendingR)
		case sendS <- sVal:
			pendingS = pendingS[1:]
		case sendR <- rVal:
			pendingR = pendingR[1:]
		}
	}
}

// process entry-scans a tuple against the opposite segment, stores it, and
// queues the displaced oldest tuple (if any) for forwarding. Matches for
// the tuple accumulate in a pooled batch sent onto the result stream with
// one send — a tuple with no matches sends nothing at all.
func (c *biSoftCore) process(t stream.Tuple, side stream.Side, pending []stream.Tuple) []stream.Tuple {
	var own, other *stream.SlidingWindow
	if side == stream.SideR {
		own, other = c.segR, c.segS
	} else {
		own, other = c.segS, c.segR
	}
	var vec *stream.ResultBatch
	var scanned uint64
	other.Scan(func(stored stream.Tuple) bool {
		scanned++
		if c.cond.Match(t, stored) {
			if vec == nil {
				vec = stream.GetResultBatch()
			}
			if side == stream.SideR {
				vec.Items = append(vec.Items, stream.Result{R: t, S: stored})
			} else {
				vec.Items = append(vec.Items, stream.Result{R: stored, S: t})
			}
		}
		return true
	})
	c.compared.Add(scanned)
	if vec != nil {
		n := len(vec.Items)
		c.eng.results <- vec
		// Counted after the hand-off: Collected never runs ahead of the stream.
		c.eng.collected.Add(uint64(n))
	}
	own.Insert(t)
	if own.Len() > c.subWindow {
		if oldest, ok := own.RemoveOldest(); ok {
			pending = append(pending, oldest)
		}
	}
	c.processed.Add(1)
	return pending
}

// Push submits one tuple: S tuples enter the left end, R tuples the right
// end. Single-producer; blocks under backpressure.
func (e *BiFlow) Push(side stream.Side, t stream.Tuple) {
	switch side {
	case stream.SideR:
		t.Seq = e.seqR
		e.seqR++
		e.cores[len(e.cores)-1].inR <- t
	case stream.SideS:
		t.Seq = e.seqS
		e.seqS++
		e.cores[0].inS <- t
	default:
		return
	}
	e.injected.Add(1)
}

// ResultBatches returns the engine's result stream: one pooled batch per
// matching tuple, which the consumer releases when done with it. The
// channel is closed after Close once the chain has drained.
func (e *BiFlow) ResultBatches() <-chan *stream.ResultBatch { return e.results }

// Results returns the result stream one result at a time. Use it instead
// of ResultBatches, not alongside.
func (e *BiFlow) Results() <-chan stream.Result { return e.perResult.Results(e.results) }

// Close stops ingest and waits for the chain to drain. The result stream
// must be consumed concurrently.
func (e *BiFlow) Close() error {
	if !e.started {
		return fmt.Errorf("softjoin: engine not started")
	}
	if e.closed {
		return nil
	}
	e.closed = true
	close(e.cores[0].inS)
	close(e.cores[len(e.cores)-1].inR)
	e.wg.Wait()
	close(e.results)
	return nil
}

// Injected returns how many tuples were submitted.
func (e *BiFlow) Injected() uint64 { return e.injected.Load() }

// Collected returns how many results have been handed to the result
// stream.
func (e *BiFlow) Collected() uint64 { return e.collected.Load() }

// Expired returns the per-stream counts of tuples that fell off the chain.
func (e *BiFlow) Expired() (r, s uint64) { return e.expiredR.Load(), e.expiredS.Load() }

// Comparisons returns the total number of window comparisons performed.
func (e *BiFlow) Comparisons() uint64 {
	var sum uint64
	for _, c := range e.cores {
		sum += c.compared.Load()
	}
	return sum
}
