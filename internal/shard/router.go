package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"accelstream/internal/autoscale"
	"accelstream/internal/core"
	"accelstream/internal/rebalance"
	"accelstream/internal/server"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// Router is one logical join session fanned out over N shard endpoints.
// SendBatch broadcasts every batch to all shards (the probe path); each
// shard's engine stores only its residue class (the store path), so the
// merged result stream is the disjoint union of the shards' outputs and
// matches the single-engine oracle without deduplication.
//
// SendBatch is single-producer; Results must be drained concurrently
// until the channel closes (after Close), exactly like server.Client.
type Router struct {
	cfg    Config
	shards []*shardConn
	merged chan stream.Result

	// seqR/seqS are the global per-side arrival counters: every batch is
	// enqueued with the counter values at its front, which become the
	// BaseSeq offsets if a shard session must be re-opened at that batch.
	seqR, seqS uint64 // single-producer, touched only by SendBatch

	tuplesIn   atomic.Uint64
	resultsOut atomic.Uint64

	// batchPool recycles broadcast batches once the last shard sender has
	// released them; live is SendBatch's scratch list of up shards
	// (single-producer, like seqR/seqS).
	batchPool sync.Pool
	live      []*shardConn

	sendWG  sync.WaitGroup
	drainWG sync.WaitGroup

	// sendMu serializes the broadcast path against generation changes:
	// SendBatch holds it per batch, Rebalance for the whole pause-and-swap,
	// and Close while retiring the current generation's queues.
	sendMu sync.Mutex

	// Rebalance observability (Prometheus-style counters).
	rebalances      atomic.Uint64 // completed rebalances
	rebalanceAborts atomic.Uint64 // aborted rebalances (old layout restored)
	rebalanceNanos  atomic.Uint64 // cumulative rebalance wall time
	rebalanceMoved  atomic.Uint64 // cumulative window tuples migrated

	// auto is the optional closed-loop autoscaler (Config.Autoscale); pool
	// is its full ordered address pool, Addrs followed by Standby. Both
	// are set once in Dial.
	auto *autoscale.Controller
	pool []string

	mu      sync.Mutex
	failErr error
	closed  bool
	// retired accumulates the counters of shard generations replaced by a
	// rebalance, so totals survive the swap.
	retired struct {
		redials uint64
		dropped uint64
		results uint64
		down    int
	}
}

// shardConn is one shard endpoint: a FIFO batch queue consumed by a
// dedicated sender goroutine that owns the client (and its redials).
// modulus and window are fixed per generation — a rebalance replaces the
// whole shardConn set rather than mutating a live one.
type shardConn struct {
	r       *Router
	index   int
	addr    string
	modulus int // shard count of this generation
	window  int // per-shard window slice of this generation

	queue  chan *shardBatch
	client *server.Client // owned by the sender goroutine after Dial
	// pub mirrors client for concurrent readers (per-shard metrics read
	// credit occupancy without entering the sender goroutine).
	pub atomic.Pointer[server.Client]

	up      atomic.Bool
	down    atomic.Bool
	redials atomic.Uint64
	dropped atomic.Uint64
	results atomic.Uint64

	// drain mirrors the current client's drain goroutine state; a
	// coordinated snapshot's flush barrier reads it to learn when every
	// result the client has received was forwarded into the merged stream.
	drain atomic.Pointer[drainState]

	closeErr error // written by the sender, read after sendWG.Wait
}

// drainState is one drain goroutine's progress: results forwarded into
// the merged channel from one client session.
type drainState struct {
	client    *server.Client
	forwarded atomic.Uint64
}

// shardBatch is one broadcast unit: the shared tuple slice plus the
// global arrival counters at its front (the resume point). refs counts
// the shard senders still holding it; the last to release recycles the
// batch into the router's pool, so the steady-state broadcast path reuses
// one copy buffer per in-flight batch instead of allocating per send.
type shardBatch struct {
	inputs []core.Input
	baseR  uint64
	baseS  uint64
	refs   atomic.Int32
	// stop, when non-nil, marks a pause sentinel instead of a batch: the
	// sender closes it and exits WITHOUT tearing down its client, handing
	// session ownership to the rebalance coordinator.
	stop chan struct{}
}

func (r *Router) getBatch() *shardBatch {
	if b, ok := r.batchPool.Get().(*shardBatch); ok {
		b.inputs = b.inputs[:0]
		return b
	}
	return new(shardBatch)
}

// release drops one sender's reference; the last one recycles the batch.
func (b *shardBatch) release(r *Router) {
	if b.refs.Add(-1) == 0 {
		r.batchPool.Put(b)
	}
}

// Dial connects to every shard endpoint and starts the router. All
// shards must connect for Dial to succeed; fault tolerance begins after
// the session is up.
func Dial(cfg Config) (*Router, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Router{cfg: cfg, merged: make(chan stream.Result, 4096)}
	// Build (and thereby validate) the autoscale controller before any
	// connection is opened, so a bad policy fails the Dial outright.
	if cfg.Autoscale != nil {
		if err := r.setupAutoscale(*cfg.Autoscale); err != nil {
			return nil, err
		}
	}
	// A restored deployment resumes the global arrival counters at the
	// checkpoint's: every shard session opens with the same offsets.
	r.seqR, r.seqS = cfg.BaseSeqR, cfg.BaseSeqS
	for i, addr := range cfg.Addrs {
		sc := r.newShardConn(i, addr, len(cfg.Addrs))
		c, err := server.DialWith(addr, sc.openConfig(cfg.BaseSeqR, cfg.BaseSeqS), r.dialOptions())
		if err != nil {
			for _, prev := range r.shards {
				prev.client.Close()
			}
			return nil, fmt.Errorf("shard: dialing shard %d (%s): %w", i, addr, err)
		}
		sc.client = c
		sc.pub.Store(c)
		sc.up.Store(true)
		r.shards = append(r.shards, sc)
	}
	for _, sc := range r.shards {
		r.spawnDrain(sc, sc.client)
		r.spawnSender(sc)
	}
	if r.auto != nil {
		if err := r.auto.Start(); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// setupAutoscale validates the policy against the deployment's resize
// constraints and builds the controller (not yet started). Every shard
// count the policy could drive to must keep the merged stream
// oracle-equal: the global window has to divide evenly and preserve the
// effective window at each reachable size.
func (r *Router) setupAutoscale(pol autoscale.Policy) error {
	pol = pol.WithDefaults()
	if err := pol.Validate(); err != nil {
		return err
	}
	r.pool = append(append([]string(nil), r.cfg.Addrs...), r.cfg.Standby...)
	max := len(r.pool)
	if pol.MaxShards > 0 && pol.MaxShards < max {
		max = pol.MaxShards
	}
	if pol.MinShards > len(r.pool) {
		return fmt.Errorf("shard: autoscale min_shards %d exceeds the %d-address pool (Addrs+Standby)",
			pol.MinShards, len(r.pool))
	}
	baseEff := rebalance.EffectiveWindow(r.cfg.Window, len(r.cfg.Addrs), r.cfg.Cores)
	for n := pol.MinShards; n <= max; n++ {
		if r.cfg.Window%n != 0 {
			return fmt.Errorf("shard: autoscale could target %d shards but Window %d does not divide evenly", n, r.cfg.Window)
		}
		if eff := rebalance.EffectiveWindow(r.cfg.Window, n, r.cfg.Cores); eff != baseEff {
			return fmt.Errorf("shard: autoscale could target %d shards but the effective window changes %d -> %d (per-shard slice must divide by %d cores)",
				len(r.cfg.Addrs), baseEff, eff, r.cfg.Cores)
		}
	}
	auto, err := autoscale.New(pol, routerSource{r}, &routerActuator{r: r}, autoscale.WithLogf(r.cfg.Logf))
	if err != nil {
		return err
	}
	r.auto = auto
	return nil
}

// routerSource adapts the router to autoscale.Source.
type routerSource struct{ r *Router }

func (s routerSource) Sample() autoscale.Sample { return s.r.Signals() }

// Signals snapshots the router's live autoscale inputs — the structured
// counterpart of the text /metrics exposition, so the policy never
// scrapes its own Prometheus output (autoscale sources wrap it).
func (r *Router) Signals() autoscale.Sample {
	shards := r.snapshotShards()
	s := autoscale.Sample{
		Shards:       len(shards),
		TuplesIn:     r.tuplesIn.Load(),
		ShardSignals: make([]autoscale.ShardSignal, len(shards)),
	}
	for i, sc := range shards {
		sig := autoscale.ShardSignal{
			Index:    sc.index,
			Up:       sc.up.Load(),
			QueueLen: len(sc.queue),
			QueueCap: cap(sc.queue),
		}
		if c := sc.pub.Load(); c != nil {
			sig.CreditsOutstanding = c.CreditsOutstanding()
			sig.CreditCapacity = c.Credits()
		}
		s.ShardSignals[i] = sig
	}
	// The router has no admission view of its own (Throttled stays 0; the
	// streamshard registry layers that in). Occupancy here is the global
	// window's fill fraction: cumulative ingest against the 2W tuples the
	// two sliding windows retain once warm.
	if w := uint64(2 * r.cfg.Window); w > 0 {
		occ := float64(s.TuplesIn) / float64(w)
		if occ > 1 {
			occ = 1
		}
		s.WindowOccupancy = occ
	}
	return s
}

// routerActuator drives ShardRouter.Rebalance from autoscale decisions:
// target N runs on the first N pool addresses.
type routerActuator struct{ r *Router }

func (a *routerActuator) Scale(target int) error {
	if target < 1 || target > len(a.r.pool) {
		return fmt.Errorf("shard: autoscale target %d outside the %d-address pool", target, len(a.r.pool))
	}
	_, err := a.r.Rebalance(a.r.pool[:target])
	return err
}

func (a *routerActuator) Limit() int { return len(a.r.pool) }

// AutoscaleReport returns the autoscale controller's state; ok is false
// when the router was dialed without Config.Autoscale.
func (r *Router) AutoscaleReport() (autoscale.Report, bool) {
	if r.auto == nil {
		return autoscale.Report{}, false
	}
	return r.auto.Report(), true
}

// newShardConn builds one endpoint of a modulus-shard generation.
func (r *Router) newShardConn(index int, addr string, modulus int) *shardConn {
	return &shardConn{
		r:       r,
		index:   index,
		addr:    addr,
		modulus: modulus,
		window:  r.cfg.Window / modulus,
		queue:   make(chan *shardBatch, r.cfg.QueueDepth),
	}
}

// spawnSender starts the shard's dedicated sender goroutine.
func (r *Router) spawnSender(sc *shardConn) {
	r.sendWG.Add(1)
	go func() {
		defer r.sendWG.Done()
		sc.run()
	}()
}

// openConfig is the shard's session config: its slice of the global
// window and its residue class, with per-side arrival offsets for resume.
func (sc *shardConn) openConfig(baseR, baseS uint64) wire.OpenConfig {
	return wire.OpenConfig{
		Engine:      wire.EngineSoftUni,
		Cores:       sc.r.cfg.Cores,
		Window:      sc.window,
		ShardCount:  sc.modulus,
		ShardIndex:  sc.index,
		BaseSeqR:    baseR,
		BaseSeqS:    baseS,
		ProbeKernel: sc.r.cfg.ProbeKernel,
	}
}

// dialOptions is how every shard session — first dial, redial, and
// rebalance-installed session alike — reaches its endpoint: same TLS
// configuration, same auth token, same tenant identity, same connect
// timeout. Rebalance passes these through to internal/rebalance, so a
// generation swap cannot shed the deployment's tenant accounting.
func (r *Router) dialOptions() server.DialOptions {
	return server.DialOptions{
		TLS:       r.cfg.TLS,
		AuthToken: r.cfg.AuthToken,
		Tenant:    r.cfg.Tenant,
		Timeout:   r.cfg.DialTimeout,
	}
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// spawnDrain merges one client session's results into the router stream.
// Each (re)dialed client gets its own drain goroutine; it exits when the
// client's result channel closes.
func (r *Router) spawnDrain(sc *shardConn, c *server.Client) {
	ds := &drainState{client: c}
	sc.drain.Store(ds)
	r.drainWG.Add(1)
	go func() {
		defer r.drainWG.Done()
		for res := range c.Results() {
			r.merged <- res
			// Counted after the hand-off, forwarded last: when the snapshot
			// flush barrier sees forwarded == the client's received count,
			// every result is in the merged channel and already counted.
			sc.results.Add(1)
			r.resultsOut.Add(1)
			ds.forwarded.Add(1)
		}
	}()
}

// SendBatch broadcasts one batch of side-tagged tuples to every live
// shard. It blocks while the slowest live shard's queue is full (engine
// backpressure propagated through the per-shard credit windows). The
// caller may reuse the slice once SendBatch returns.
func (r *Router) SendBatch(batch []core.Input) error {
	if len(batch) == 0 {
		return nil
	}
	// sendMu orders this batch against a concurrent Rebalance: the batch
	// lands entirely in one shard generation or entirely in the next.
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	r.mu.Lock()
	closed, failErr := r.closed, r.failErr
	r.mu.Unlock()
	if closed {
		return fmt.Errorf("shard: router closed")
	}
	if failErr != nil {
		return failErr
	}
	// One shared pooled copy serves every shard: senders only read it, and
	// the servers stamp sequence numbers on their own decoded copies.
	b := r.getBatch()
	b.inputs = append(b.inputs, batch...)
	b.baseR, b.baseS = r.seqR, r.seqS
	for i := range b.inputs {
		if b.inputs[i].Side == stream.SideR {
			r.seqR++
		} else {
			r.seqS++
		}
	}
	// Pick the recipients first so the reference count is final before the
	// first sender can possibly release the batch.
	live := r.live[:0]
	for _, sc := range r.shards {
		if sc.down.Load() {
			sc.dropped.Add(1)
			continue
		}
		live = append(live, sc)
	}
	r.live = live
	r.tuplesIn.Add(uint64(len(b.inputs)))
	if len(live) == 0 {
		r.batchPool.Put(b)
		return nil
	}
	b.refs.Store(int32(len(live)))
	for _, sc := range live {
		sc.queue <- b
	}
	return nil
}

// run is the shard's sender loop: FIFO over the queue, redialing a
// dropped session at the next batch boundary.
func (sc *shardConn) run() {
	for b := range sc.queue {
		if b.stop != nil {
			// Pause sentinel: exit without teardown — the rebalance
			// coordinator now owns this shard's client (if any).
			close(b.stop)
			return
		}
		if sc.down.Load() {
			sc.dropped.Add(1)
			b.release(sc.r)
			continue
		}
		if sc.client == nil && !sc.redial(b.baseR, b.baseS) {
			sc.dropped.Add(1)
			b.release(sc.r)
			continue
		}
		err := sc.client.SendBatch(b.inputs)
		b.release(sc.r) // SendBatch serializes in-call; the slice is free
		if err != nil {
			// The batch is lost for this shard only: the dead session's
			// window slice is gone, and this batch was neither stored nor
			// probed here. Every match that loses has its stored tuple in
			// this shard's residue class — the other shards' slices are
			// intact and still probed by every later arrival. The next
			// batch redials with its own arrival offsets, re-aligning the
			// residue class from that point on.
			sc.r.logf("shard %d (%s): send failed, dropping session: %v", sc.index, sc.addr, err)
			sc.teardown(false)
			sc.dropped.Add(1)
		}
	}
	sc.teardown(true)
}

// teardown closes the current client session, if any. Graceful teardown
// errors are kept for Close; a drop-path teardown expects the connection
// to be dead and ignores the close error.
func (sc *shardConn) teardown(graceful bool) {
	if sc.client == nil {
		return
	}
	_, err := sc.client.Close()
	if graceful && err != nil && sc.closeErr == nil {
		sc.closeErr = err
	}
	sc.client = nil
	sc.pub.Store(nil)
	sc.up.Store(false)
}

// redial re-opens the shard session with the given arrival offsets,
// backing off between attempts; exhausting the policy marks the shard
// permanently down.
func (sc *shardConn) redial(baseR, baseS uint64) bool {
	pol := sc.r.cfg.Redial
	if pol.Attempts < 0 {
		sc.markDown()
		return false
	}
	delay := pol.BaseDelay
	for attempt := 1; attempt <= pol.Attempts; attempt++ {
		c, err := server.DialWith(sc.addr, sc.openConfig(baseR, baseS), sc.r.dialOptions())
		if err == nil {
			sc.client = c
			sc.pub.Store(c)
			sc.up.Store(true)
			sc.redials.Add(1)
			sc.r.spawnDrain(sc, c)
			sc.r.logf("shard %d (%s): reconnected on attempt %d, resuming at R=%d S=%d",
				sc.index, sc.addr, attempt, baseR, baseS)
			return true
		}
		sc.r.logf("shard %d (%s): redial attempt %d/%d failed: %v",
			sc.index, sc.addr, attempt, pol.Attempts, err)
		if errors.Is(err, server.ErrUnauthorized) {
			// The shard rejected our credentials; backing off and retrying
			// with the same token cannot succeed.
			break
		}
		var hint time.Duration
		var adm *server.AdmissionError
		if errors.As(err, &adm) {
			hint = adm.RetryAfter
		}
		if attempt < pol.Attempts {
			sleep, next := nextRedialDelay(delay, hint, pol.MaxDelay)
			time.Sleep(sleep)
			delay = next
		}
	}
	sc.markDown()
	return false
}

// nextRedialDelay computes one backoff step: how long to sleep before the
// next attempt, and the policy delay the schedule resumes from afterwards.
// An admission retry-after hint stretches only this sleep (redialing
// sooner is guaranteed to be rejected again) — it must not become the base
// the exponential doubling compounds from, or one hint inflates every
// later attempt far past both the policy and the hint.
func nextRedialDelay(delay, hint, maxDelay time.Duration) (sleep, next time.Duration) {
	sleep = delay
	if hint > sleep {
		sleep = hint
	}
	next = delay * 2
	if next > maxDelay {
		next = maxDelay
	}
	return sleep, next
}

// markDown records permanent shard loss. Under FailFast the router
// refuses further batches; otherwise it degrades to the survivors.
func (sc *shardConn) markDown() {
	sc.down.Store(true)
	sc.r.logf("shard %d (%s): permanently down; its window slice is lost", sc.index, sc.addr)
	if sc.r.cfg.FailFast {
		sc.r.mu.Lock()
		if sc.r.failErr == nil {
			sc.r.failErr = fmt.Errorf("shard: shard %d (%s) permanently down", sc.index, sc.addr)
		}
		sc.r.mu.Unlock()
	}
}

// Results returns the merged result stream. It closes after Close has
// drained every shard.
func (r *Router) Results() <-chan stream.Result { return r.merged }

// snapshotShards reads the current shard generation under the lock; the
// returned slice is immutable (a rebalance replaces it wholesale).
func (r *Router) snapshotShards() []*shardConn {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shards
}

// Backlog reports queued-but-undelivered work: merged results not yet
// consumed plus broadcast batches not yet sent.
func (r *Router) Backlog() int {
	n := len(r.merged)
	for _, sc := range r.snapshotShards() {
		n += len(sc.queue)
	}
	return n
}

// Shards snapshots every shard connection's state.
func (r *Router) Shards() []State {
	shards := r.snapshotShards()
	out := make([]State, len(shards))
	for i, sc := range shards {
		out[i] = State{
			Index:          sc.index,
			Addr:           sc.addr,
			Up:             sc.up.Load(),
			Down:           sc.down.Load(),
			Redials:        sc.redials.Load(),
			BatchesDropped: sc.dropped.Load(),
			Results:        sc.results.Load(),
		}
		if c := sc.pub.Load(); c != nil {
			out[i].CreditsOutstanding = c.CreditsOutstanding()
		}
	}
	return out
}

// Rebalance re-slices the deployment onto a new shard set while the
// logical session keeps running: broadcasting pauses at a punctuation
// boundary, every live shard session is terminally drained and its window
// slice exported, the pooled state is re-partitioned by the new modulus
// and installed on freshly dialed sessions (internal/rebalance does the
// heavy lifting), and the router swaps generations and resumes. The global
// window and arrival counters are preserved, so the merged result stream
// stays oracle-equal across the transition.
//
// On failure the old layout is restored from the exported state and the
// error returned; the router remains usable either way (a shard whose
// slice could not be restored degrades exactly like a crashed shard).
// Rebalance may be called concurrently with SendBatch — the batch producer
// simply blocks for the duration of the pause.
func (r *Router) Rebalance(newAddrs []string) (rebalance.Report, error) {
	if len(newAddrs) == 0 {
		return rebalance.Report{}, fmt.Errorf("shard: rebalance needs at least one shard")
	}
	if r.cfg.Window%len(newAddrs) != 0 {
		return rebalance.Report{}, fmt.Errorf("shard: Window %d does not divide evenly across %d shards",
			r.cfg.Window, len(newAddrs))
	}
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return rebalance.Report{}, fmt.Errorf("shard: router closed")
	}
	oldShards := r.shards
	r.mu.Unlock()

	// Refuse a resize that would change the effective window (the engine
	// rounds each core's sub-window up, so a slice that does not divide
	// by the core count stores slightly more than window/shards): the
	// merged results would silently stop being oracle-equal. Checked
	// under sendMu, before the pause, so rejection disturbs nothing.
	oldEff := rebalance.EffectiveWindow(r.cfg.Window, len(oldShards), r.cfg.Cores)
	newEff := rebalance.EffectiveWindow(r.cfg.Window, len(newAddrs), r.cfg.Cores)
	if oldEff != newEff {
		return rebalance.Report{}, fmt.Errorf(
			"shard: resizing %d -> %d shards would change the effective window %d -> %d (per-shard slice must divide by %d cores)",
			len(oldShards), len(newAddrs), oldEff, newEff, r.cfg.Cores)
	}

	// Pause: a stop sentinel through each queue flushes the queued batches
	// ahead of it (FIFO), then parks the sender without tearing down its
	// session. After the last stop closes, no batch is in flight anywhere.
	r.pauseSenders(oldShards)

	oldClients := make([]*server.Client, len(oldShards))
	oldAddrs := make([]string, len(oldShards))
	for i, sc := range oldShards {
		oldAddrs[i] = sc.addr
		oldClients[i] = sc.client // nil for a dropped or downed shard
	}

	newClients, rep, err := rebalance.Run(rebalance.Config{
		OldClients:  oldClients,
		OldAddrs:    oldAddrs,
		NewAddrs:    newAddrs,
		Window:      r.cfg.Window,
		Cores:       r.cfg.Cores,
		SeqR:        r.seqR, // stable: sendMu held, senders parked
		SeqS:        r.seqS,
		DialOptions: r.dialOptions(),
		Logf:        r.cfg.Logf,
	})
	addrs := newAddrs
	if rep.Aborted || newClients == nil {
		addrs = oldAddrs
		r.rebalanceAborts.Add(1)
	} else {
		r.rebalances.Add(1)
	}
	r.rebalanceNanos.Add(uint64(rep.Duration.Nanoseconds()))
	r.rebalanceMoved.Add(rep.TuplesMigrated)
	if newClients == nil {
		// Catastrophic: every session is gone. Rebuild the old topology
		// with empty connections; the next batch redials each shard with
		// fresh arrival offsets (window state lost, as on a full crash).
		newClients = make([]*server.Client, len(oldAddrs))
	}

	// Swap generations: fresh shardConns under the new modulus, counters
	// of the retired generation folded into the cumulative totals.
	gen := make([]*shardConn, len(addrs))
	for j, addr := range addrs {
		sc := r.newShardConn(j, addr, len(addrs))
		if c := newClients[j]; c != nil {
			sc.client = c
			sc.pub.Store(c)
			sc.up.Store(true)
			r.spawnDrain(sc, c)
		}
		gen[j] = sc
	}
	r.mu.Lock()
	for _, sc := range oldShards {
		r.retired.redials += sc.redials.Load()
		r.retired.dropped += sc.dropped.Load()
		r.retired.results += sc.results.Load()
		if sc.down.Load() {
			r.retired.down++
		}
	}
	r.shards = gen
	r.cfg.Addrs = addrs
	r.mu.Unlock()
	for _, sc := range gen {
		r.spawnSender(sc)
	}
	return rep, err
}

// pauseSenders parks every sender goroutine at a punctuation boundary: a
// stop sentinel through each queue flushes the queued batches ahead of it
// (FIFO), then the sender exits without tearing down its session. The
// caller must hold sendMu and respawn the senders (or swap generations)
// before releasing it.
func (r *Router) pauseSenders(shards []*shardConn) {
	stops := make([]chan struct{}, len(shards))
	for i, sc := range shards {
		stops[i] = make(chan struct{})
		sc.queue <- &shardBatch{stop: stops[i]}
	}
	for _, st := range stops {
		<-st
	}
}

// SnapshotState cuts a coordinated all-shard snapshot of the deployment's
// global window at a punctuation boundary, implementing the server
// Snapshotter capability so a whole shard cluster checkpoints behind one
// streamshard session. Broadcasting pauses exactly as for a rebalance
// (stop sentinels through the per-shard queues), every shard session cuts
// a live checkpoint concurrently, the per-shard flush barriers guarantee
// each shard's pre-snapshot results have been forwarded into the merged
// stream, and the union of the residue-class slices — sorted back into
// ascending per-side sequence order — is returned with the global arrival
// counters. The router resumes streaming on return.
//
// Every shard must be up: a snapshot missing a residue class would
// restore a window with holes. Results must be drained concurrently
// (exactly as with SendBatch) or the flush barriers cannot complete.
func (r *Router) SnapshotState() ([]core.Input, uint64, uint64, error) {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	r.mu.Lock()
	closed := r.closed
	shards := r.shards
	r.mu.Unlock()
	if closed {
		return nil, 0, 0, fmt.Errorf("shard: router closed")
	}

	r.pauseSenders(shards)
	defer func() {
		for _, sc := range shards {
			r.spawnSender(sc)
		}
	}()

	// Senders are parked, so reading sc.client is safe now.
	for _, sc := range shards {
		if sc.client == nil || sc.down.Load() {
			return nil, 0, 0, fmt.Errorf("shard: snapshot needs every shard up; shard %d (%s) is down", sc.index, sc.addr)
		}
	}

	type shardSnap struct {
		tuples []core.Input
		info   wire.RebalanceInfo
		err    error
	}
	snaps := make([]shardSnap, len(shards))
	var wg sync.WaitGroup
	for i, sc := range shards {
		wg.Add(1)
		go func(i int, sc *shardConn) {
			defer wg.Done()
			tuples, info, err := sc.client.Checkpoint()
			if err == nil {
				// Each shard counts the same global arrivals; a divergent
				// counter means a residue class desynchronized.
				if info.SeqR != r.seqR || info.SeqS != r.seqS {
					err = fmt.Errorf("shard %d (%s): snapshot at seqs (%d, %d), router at (%d, %d)",
						sc.index, sc.addr, info.SeqR, info.SeqS, r.seqR, r.seqS)
				}
			}
			snaps[i] = shardSnap{tuples: tuples, info: info, err: err}
		}(i, sc)
	}
	wg.Wait()
	for _, sn := range snaps {
		if sn.err != nil {
			return nil, 0, 0, fmt.Errorf("shard: coordinated snapshot: %w", sn.err)
		}
	}

	// Flush barrier: every result a shard delivered before its
	// CheckpointDone must be forwarded into the merged stream before the
	// snapshot is handed to the caller, so the caller's own result-flush
	// barrier covers the full pre-snapshot output.
	for _, sc := range shards {
		ds := sc.drain.Load()
		if ds == nil || ds.client != sc.client {
			return nil, 0, 0, fmt.Errorf("shard: shard %d (%s) has no active drain", sc.index, sc.addr)
		}
		target := sc.client.ResultsReceived()
		for ds.forwarded.Load() < target {
			runtime.Gosched()
		}
	}

	// Pool the residue-class slices back into one global window image:
	// re-slicing under modulus 1 orders it the way every image is ordered
	// (all of R, then all of S, ascending sequence within each side).
	var pooled []core.Input
	for _, sn := range snaps {
		pooled = append(pooled, sn.tuples...)
	}
	return rebalance.Reslice(pooled, 1)[0], r.seqR, r.seqS, nil
}

// ResultsEmitted returns how many results have been forwarded into the
// merged stream — the Snapshotter flush target: at the boundary
// SnapshotState establishes, the count is exact for the input so far.
func (r *Router) ResultsEmitted() uint64 { return r.resultsOut.Load() }

// ImportState installs a previously snapshotted global window into the
// freshly dialed deployment, before any batch has been broadcast: the
// tuples are re-sliced by residue class under the current modulus and
// installed on every shard session concurrently. The router must have
// been dialed with Config.BaseSeqR/BaseSeqS set to the snapshot's arrival
// counters, so each shard session verifies the slice against the same
// base offsets. This is the restore path a streamshard daemon runs when
// its server hands it a recovered checkpoint at session open.
func (r *Router) ImportState(tuples []core.Input) error {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	if r.tuplesIn.Load() != 0 {
		return fmt.Errorf("shard: ImportState must precede the first batch")
	}
	r.mu.Lock()
	closed := r.closed
	shards := r.shards
	r.mu.Unlock()
	if closed {
		return fmt.Errorf("shard: router closed")
	}

	r.pauseSenders(shards)
	defer func() {
		for _, sc := range shards {
			r.spawnSender(sc)
		}
	}()
	for _, sc := range shards {
		if sc.client == nil || sc.down.Load() {
			return fmt.Errorf("shard: restore needs every shard up; shard %d (%s) is down", sc.index, sc.addr)
		}
	}

	slices := rebalance.Reslice(tuples, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sc := range shards {
		wg.Add(1)
		go func(i int, sc *shardConn) {
			defer wg.Done()
			errs[i] = sc.client.ImportState(slices[i])
		}(i, sc)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard: restoring shard %d (%s): %w", shards[i].index, shards[i].addr, err)
		}
	}
	r.logf("restored %d window tuples across %d shards at seqs (%d, %d)",
		len(tuples), len(shards), r.seqR, r.seqS)
	return nil
}

// RebalanceMetrics reports cumulative rebalance counters: completed and
// aborted runs, window tuples migrated, and total wall time spent
// rebalancing.
func (r *Router) RebalanceMetrics() (completed, aborted, migrated uint64, total time.Duration) {
	return r.rebalances.Load(), r.rebalanceAborts.Load(), r.rebalanceMoved.Load(),
		time.Duration(r.rebalanceNanos.Load())
}

// Close drains the session: queued batches are flushed to their shards,
// every shard session is closed gracefully, and the merged channel is
// closed once the last in-flight result has been delivered. Results must
// be consumed concurrently or the drain cannot complete.
func (r *Router) Close() (Stats, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return r.stats(), nil
	}
	r.closed = true
	r.mu.Unlock()
	// Stop the autoscaler before retiring the senders: closed is already
	// set, so an in-flight decision's Rebalance fails cleanly, and after
	// Stop returns no further decision can race the teardown.
	if r.auto != nil {
		r.auto.Stop()
	}
	// sendMu orders the queue close against an in-flight Rebalance, so the
	// generation being retired is the one whose senders we wait for.
	r.sendMu.Lock()
	shards := r.snapshotShards()
	for _, sc := range shards {
		close(sc.queue)
	}
	r.sendWG.Wait()
	r.sendMu.Unlock()
	r.drainWG.Wait()
	close(r.merged)
	var err error
	for _, sc := range shards {
		if sc.closeErr != nil {
			err = fmt.Errorf("shard: shard %d (%s): close: %w", sc.index, sc.addr, sc.closeErr)
			break
		}
	}
	return r.stats(), err
}

func (r *Router) stats() Stats {
	st := Stats{
		TuplesIn:   r.tuplesIn.Load(),
		ResultsOut: r.resultsOut.Load(),
	}
	r.mu.Lock()
	shards := r.shards
	st.ShardsDown = r.retired.down
	st.BatchesDropped = r.retired.dropped
	st.Redials = r.retired.redials
	r.mu.Unlock()
	for _, sc := range shards {
		if sc.down.Load() {
			st.ShardsDown++
		}
		st.BatchesDropped += sc.dropped.Load()
		st.Redials += sc.redials.Load()
	}
	return st
}
