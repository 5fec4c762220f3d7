package server

import (
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// ErrConnectionLost reports that the session's connection failed before
// the server's Closed frame arrived: results already delivered are valid,
// but in-flight batches and undelivered results are gone. Surfaced
// (wrapped) by SendBatch, Err, and Close; test with errors.Is. The shard
// router keys its redial logic off this error.
var ErrConnectionLost = errors.New("server: connection lost")

// ErrUnauthorized reports that the server rejected the session's auth
// token (missing or mismatched) during the handshake. Returned (wrapped)
// by Dial; test with errors.Is. There is no point retrying with the same
// credentials, so the shard router does not redial through it.
var ErrUnauthorized = errors.New("server: unauthorized")

// ErrAdmissionDenied reports that the server's admission controller
// turned the session away: a tenant or server-wide quota (sessions,
// window memory, or ingest rate) was exhausted. Returned (wrapped) by
// Dial; test with errors.Is, and use errors.As against *AdmissionError
// for the typed reject code and retry-after hint. Unlike ErrUnauthorized,
// retrying after the hint can succeed — quota frees as sessions close.
var ErrAdmissionDenied = errors.New("server: admission denied")

// AdmissionError is the typed admission rejection carried by a v2
// handshake's OpenAck. It wraps ErrAdmissionDenied.
type AdmissionError struct {
	// Code says which quota rejected the open (RejectQuotaSessions,
	// RejectQuotaMemory, or RejectRateLimited).
	Code wire.RejectCode
	// RetryAfter is the server's hint for when a retry may succeed.
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *AdmissionError) Error() string {
	return fmt.Sprintf("server: admission denied: %s (retry after %v)", e.Code, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrAdmissionDenied) hold.
func (e *AdmissionError) Unwrap() error { return ErrAdmissionDenied }

// Client is one session against a network-attached stream-join server.
// SendBatch may be called from one producer goroutine while another
// goroutine drains Results; Close flushes the session and returns the
// server's final statistics.
type Client struct {
	conn net.Conn

	wmu sync.Mutex
	w   *wire.Writer

	credits    chan struct{}
	results    chan stream.Result
	readerDone chan struct{}

	mu        sync.Mutex
	err       error
	stats     wire.Stats
	closeSent bool
	batchSeq  uint64

	// State-transfer plumbing: the base arrival counters this session was
	// opened with, and the window image the server streams back. Incoming
	// StateChunk frames accumulate into state for whichever of Checkpoint
	// and ExportState is in flight (they never overlap: ExportState is
	// terminal and Checkpoint refuses a closing session). The summary
	// lands in ckptCh (CheckpointDone) or exportInfo plus commitCh
	// (RebalanceCommit, which also echoes an ImportState).
	baseSeqR, baseSeqS uint64
	state              []core.Input
	exportInfo         wire.RebalanceInfo
	exportCommit       bool
	commitCh           chan wire.RebalanceInfo
	ckptActive         bool
	ckptCh             chan wire.RebalanceInfo

	// resumeAck preserves the server's OpenAck: a resumed session carries
	// the checkpoint's arrival counters for the client to replay from.
	resumeAck wire.OpenAck

	// resultsRecv counts results delivered into the Results channel; a
	// shard router's coordinated snapshot uses it as its flush target.
	resultsRecv atomic.Uint64

	// Credit round-trip instrumentation: send times are queued FIFO and
	// matched to returning credits (the server acks batches in order).
	rttMu    sync.Mutex
	sendTime []time.Time
	rttSum   time.Duration
	rttMax   time.Duration
	rttCount uint64
}

// DialTimeout is the default connection + handshake deadline used by
// Dial; override with DialOptions.Timeout.
const DialTimeout = 10 * time.Second

// DialOptions configures how a session is dialed, beyond the engine
// configuration carried in the Open frame. The zero value dials plaintext
// TCP with no token and the default timeout.
type DialOptions struct {
	// TLS, when set, dials the server over TLS with this configuration
	// (the TLS handshake shares the connect timeout). Against a plaintext
	// server the handshake fails fast instead of hanging.
	TLS *tls.Config
	// AuthToken, when non-empty, rides the Open frame for the server's
	// session-auth check; a rejection surfaces as ErrUnauthorized.
	AuthToken string
	// Tenant, when non-empty, names the tenant identity the server
	// accounts this session under (requires the v2 handshake). It wins
	// over any OpenConfig.Tenant already set; left empty, the server
	// derives a tenant from the auth token, or uses the shared default.
	Tenant string
	// ProbeKernel, when not KernelAuto, selects the soft-uni probe kernel
	// for this session, winning over any OpenConfig.ProbeKernel already
	// set (and over the server-wide default, which only applies to auto).
	ProbeKernel stream.ProbeKernel
	// Timeout bounds connecting plus the session handshake (TLS and Open
	// frame both); 0 means DialTimeout. A black-holed endpoint therefore
	// fails within the deadline instead of hanging indefinitely.
	Timeout time.Duration
}

// Dial connects to a stream-join server and opens a session with the
// given engine configuration, over plaintext TCP with default options.
func Dial(addr string, cfg wire.OpenConfig) (*Client, error) {
	return DialWith(addr, cfg, DialOptions{})
}

// DialWith connects to a stream-join server and opens a session with the
// given engine configuration and dial options.
func DialWith(addr string, cfg wire.OpenConfig, opts DialOptions) (*Client, error) {
	// Explicit dial options win over whatever the OpenConfig carries; the
	// server's own defaults apply only to fields left at zero end to end.
	if opts.AuthToken != "" {
		cfg.AuthToken = opts.AuthToken
	}
	if opts.Tenant != "" {
		cfg.Tenant = opts.Tenant
	}
	if opts.ProbeKernel != stream.KernelAuto {
		cfg.ProbeKernel = opts.ProbeKernel
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = DialTimeout
	}
	dialer := &net.Dialer{Timeout: timeout}
	var conn net.Conn
	var err error
	if opts.TLS != nil {
		// tls.DialWithDialer runs the TLS handshake inside the dialer's
		// timeout, so a plaintext or stalled server cannot wedge the dial.
		conn, err = tls.DialWithDialer(dialer, "tcp", addr, opts.TLS)
	} else {
		conn, err = dialer.Dial("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:       conn,
		w:          wire.NewWriter(conn),
		results:    make(chan stream.Result, 4096),
		readerDone: make(chan struct{}),
		baseSeqR:   cfg.BaseSeqR,
		baseSeqS:   cfg.BaseSeqS,
		commitCh:   make(chan wire.RebalanceInfo, 1),
		ckptCh:     make(chan wire.RebalanceInfo, 1),
	}
	conn.SetDeadline(time.Now().Add(timeout))
	if err := c.w.WriteOpen(cfg); err != nil {
		conn.Close()
		return nil, err
	}
	r := wire.NewReader(conn)
	f, err := r.ReadFrame()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: reading open-ack: %w", err)
	}
	switch f.Type {
	case wire.FrameOpenAck:
	case wire.FrameError:
		msg := wire.DecodeError(f.Payload)
		conn.Close()
		if wire.IsUnauthorized(msg) {
			// ErrUnauthorized already says "unauthorized"; keep only the
			// server's detail after the wire prefix.
			detail := strings.TrimPrefix(msg, wire.UnauthorizedPrefix)
			detail = strings.TrimPrefix(detail, ": ")
			if detail == "" {
				return nil, ErrUnauthorized
			}
			return nil, fmt.Errorf("%w: %s", ErrUnauthorized, detail)
		}
		return nil, fmt.Errorf("server: session rejected: %s", msg)
	default:
		conn.Close()
		return nil, fmt.Errorf("server: unexpected %v frame during handshake", f.Type)
	}
	ack, err := wire.DecodeOpenAck(f.Payload)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if ack.Reject != wire.RejectNone {
		// A v2 server answers handshake denials with a typed reject ack
		// instead of the v1 Error frame.
		conn.Close()
		if ack.Reject == wire.RejectUnauthorized {
			return nil, ErrUnauthorized
		}
		return nil, &AdmissionError{Code: ack.Reject, RetryAfter: ack.RetryAfter}
	}
	c.resumeAck = ack
	if ack.Resumed {
		// The server restored a checkpoint into this session's engine: its
		// arrival counters resume at the snapshot's, and the client should
		// replay only the post-snapshot suffix of the streams.
		c.baseSeqR, c.baseSeqS = ack.ResumeSeqR, ack.ResumeSeqS
	}
	conn.SetDeadline(time.Time{})
	c.credits = make(chan struct{}, ack.Credits)
	for i := 0; i < ack.Credits; i++ {
		c.credits <- struct{}{}
	}
	go c.readLoop(r)
	return c, nil
}

// Credits returns the credit-window capacity granted by the server.
func (c *Client) Credits() int { return cap(c.credits) }

// CreditsOutstanding returns how many batch credits are currently held by
// the server (batches sent but not yet acknowledged) — the per-session
// backpressure signal the shard router exports per shard.
func (c *Client) CreditsOutstanding() int {
	if c.credits == nil {
		return 0
	}
	return cap(c.credits) - len(c.credits)
}

// Err returns the first fatal session error, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *Client) setErr(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// SendBatch ships one batch of side-tagged tuples. It blocks while the
// session's batch credits are exhausted — i.e. while the server-side
// engine (or the result path back to this client) is saturated — so
// engine backpressure propagates to the producer.
func (c *Client) SendBatch(batch []core.Input) error {
	if len(batch) == 0 {
		return nil
	}
	select {
	case <-c.credits:
	case <-c.readerDone:
		if err := c.Err(); err != nil {
			return err
		}
		return fmt.Errorf("server: session closed")
	}
	c.rttMu.Lock()
	c.sendTime = append(c.sendTime, time.Now())
	c.rttMu.Unlock()
	c.wmu.Lock()
	c.batchSeq++
	err := c.w.WriteBatch(c.batchSeq, batch)
	c.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrConnectionLost, err)
		c.setErr(err)
		return err
	}
	return nil
}

// Results returns the stream of join results. The channel closes when the
// session ends (after Close's drain completes, or on a fatal error).
func (c *Client) Results() <-chan stream.Result { return c.results }

// Close gracefully drains the session: it sends the Close frame, waits
// for the server to flush all in-flight work and report its final
// statistics, then releases the connection. Results must be consumed
// concurrently or the drain cannot complete.
func (c *Client) Close() (wire.Stats, error) {
	c.mu.Lock()
	alreadySent := c.closeSent
	c.closeSent = true
	c.mu.Unlock()
	if !alreadySent {
		c.wmu.Lock()
		err := c.w.WriteClose()
		c.wmu.Unlock()
		if err != nil {
			c.setErr(fmt.Errorf("%w: %v", ErrConnectionLost, err))
			c.conn.Close()
		}
	}
	<-c.readerDone
	c.conn.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats, c.err
}

// ImportState installs sliding-window state into the freshly opened
// session, before any batch has been sent: the tuples are streamed as
// StateChunk frames, closed with a RebalanceCommit carrying the per-side
// counts and this session's base arrival counters, and the call blocks
// until the server echoes the commit confirming the state is installed.
// Tuples must be in ascending per-side sequence order within this
// session's residue class (the form Client.ExportState emits, sliced).
func (c *Client) ImportState(tuples []core.Input) error {
	info := wire.RebalanceInfo{SeqR: c.baseSeqR, SeqS: c.baseSeqS}
	for i := range tuples {
		if tuples[i].Side == stream.SideR {
			info.TuplesR++
		} else {
			info.TuplesS++
		}
	}
	c.wmu.Lock()
	err := c.w.WriteState(tuples)
	if err == nil {
		err = c.w.WriteRebalanceCommit(info)
	}
	c.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrConnectionLost, err)
		c.setErr(err)
		return err
	}
	select {
	case echo := <-c.commitCh:
		if echo != info {
			return fmt.Errorf("server: state import mismatch: sent %+v, server installed %+v", info, echo)
		}
		return nil
	case <-c.readerDone:
		if err := c.Err(); err != nil {
			return err
		}
		return fmt.Errorf("server: session closed during state import")
	}
}

// ExportState terminally drains the session and takes over its window
// state: it sends the RebalancePrepare frame, after which the server
// flushes all in-flight work (Results must be consumed concurrently,
// exactly as with Close), streams its resident window as StateChunk
// frames, and confirms with a RebalanceCommit and the final Closed frame.
// The returned tuples are side-tagged with arrival sequence numbers, in
// ascending per-side order; the RebalanceInfo carries the per-side counts
// and the arrival counters at the punctuation boundary. Peers predating
// the rebalance protocol answer with an Error frame, surfaced here as an
// error — the caller treats that as "rebalance unsupported" and aborts.
func (c *Client) ExportState() ([]core.Input, wire.RebalanceInfo, error) {
	c.mu.Lock()
	alreadySent := c.closeSent
	c.closeSent = true
	c.mu.Unlock()
	if alreadySent {
		return nil, wire.RebalanceInfo{}, fmt.Errorf("server: session already closing")
	}
	c.wmu.Lock()
	err := c.w.WriteRebalancePrepare()
	c.wmu.Unlock()
	if err != nil {
		c.setErr(fmt.Errorf("%w: %v", ErrConnectionLost, err))
		c.conn.Close()
	}
	<-c.readerDone
	c.conn.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, wire.RebalanceInfo{}, c.err
	}
	if !c.exportCommit {
		return nil, wire.RebalanceInfo{}, fmt.Errorf("%w: export ended without a rebalance commit", ErrConnectionLost)
	}
	return takeState(c.state, c.exportInfo, "export")
}

// takeState checks a received window image against the summary frame
// that closed it.
func takeState(tuples []core.Input, info wire.RebalanceInfo, what string) ([]core.Input, wire.RebalanceInfo, error) {
	if got := uint64(len(tuples)); got != info.TuplesR+info.TuplesS {
		return nil, wire.RebalanceInfo{}, fmt.Errorf("server: %s announced %d tuples, carried %d",
			what, info.TuplesR+info.TuplesS, got)
	}
	return tuples, info, nil
}

// Resumed reports whether the server restored a durable checkpoint into
// this session's engine at open, and if so the per-side arrival counters
// the engine resumed at — the positions the client should replay the
// streams from.
func (c *Client) Resumed() (seqR, seqS uint64, ok bool) {
	return c.resumeAck.ResumeSeqR, c.resumeAck.ResumeSeqS, c.resumeAck.Resumed
}

// ResultsReceived returns how many results have been delivered into the
// Results channel. After Checkpoint returns, this count is exact for the
// pre-checkpoint input: results frames are ordered before the
// CheckpointDone frame on the wire, so a consumer that drains Results
// can use the count as a flush barrier.
func (c *Client) ResultsReceived() uint64 { return c.resultsRecv.Load() }

// Checkpoint asks the server to cut a durable snapshot of this session's
// engine at the punctuation boundary defined by the frames sent so far,
// without closing the session. It blocks until the server acknowledges:
// by then every result the pre-checkpoint input produces has been
// delivered into Results (keep draining it concurrently, exactly as with
// Close), and the snapshot — when the server runs with a checkpoint
// directory — is durable on its disk. The returned tuples are the
// engine's resident window at the boundary (the server streams them back
// so a shard router can assemble a coordinated all-shard snapshot), and
// the RebalanceInfo carries the per-side counts and arrival counters.
// Must not overlap with ImportState, ExportState, or another Checkpoint.
func (c *Client) Checkpoint() ([]core.Input, wire.RebalanceInfo, error) {
	c.mu.Lock()
	if c.closeSent {
		c.mu.Unlock()
		return nil, wire.RebalanceInfo{}, fmt.Errorf("server: session already closing")
	}
	if c.ckptActive {
		c.mu.Unlock()
		return nil, wire.RebalanceInfo{}, fmt.Errorf("server: checkpoint already in flight")
	}
	c.ckptActive = true
	c.state = nil
	c.mu.Unlock()
	c.wmu.Lock()
	err := c.w.WriteCheckpoint()
	c.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrConnectionLost, err)
		c.setErr(err)
		return nil, wire.RebalanceInfo{}, err
	}
	select {
	case info := <-c.ckptCh:
		c.mu.Lock()
		tuples := c.state
		c.state = nil
		c.ckptActive = false
		c.mu.Unlock()
		return takeState(tuples, info, "checkpoint")
	case <-c.readerDone:
		if err := c.Err(); err != nil {
			return nil, wire.RebalanceInfo{}, err
		}
		return nil, wire.RebalanceInfo{}, fmt.Errorf("server: session closed during checkpoint")
	}
}

// BatchRTT reports the observed credit round-trip time — send of a Batch
// frame to return of its credit, which includes network transit and the
// engine's ingest time — as (average, max, samples).
func (c *Client) BatchRTT() (avg, max time.Duration, samples uint64) {
	c.rttMu.Lock()
	defer c.rttMu.Unlock()
	if c.rttCount > 0 {
		avg = c.rttSum / time.Duration(c.rttCount)
	}
	return avg, c.rttMax, c.rttCount
}

// readLoop is the client's single reader: results, credits, and the
// session-ending Closed/Error frames all arrive here.
func (c *Client) readLoop(r *wire.Reader) {
	defer close(c.readerDone)
	defer close(c.results)
	for {
		f, err := r.ReadFrame()
		if err != nil {
			c.setErr(fmt.Errorf("%w: %v", ErrConnectionLost, err))
			return
		}
		switch f.Type {
		case wire.FrameResults:
			results, err := wire.DecodeResults(f.Payload)
			if err != nil {
				c.setErr(err)
				return
			}
			for _, res := range results {
				c.results <- res
				// Counted after the hand-off: a coordinated-snapshot flush
				// barrier reads this as "delivered into the channel".
				c.resultsRecv.Add(1)
			}
		case wire.FrameCredit:
			n, err := wire.DecodeCredit(f.Payload)
			if err != nil {
				c.setErr(err)
				return
			}
			now := time.Now()
			c.rttMu.Lock()
			for i := 0; i < n && len(c.sendTime) > 0; i++ {
				rtt := now.Sub(c.sendTime[0])
				c.sendTime = c.sendTime[1:]
				c.rttSum += rtt
				c.rttCount++
				if rtt > c.rttMax {
					c.rttMax = rtt
				}
			}
			c.rttMu.Unlock()
			for i := 0; i < n; i++ {
				select {
				case c.credits <- struct{}{}:
				default:
				}
			}
		case wire.FrameStateChunk:
			c.mu.Lock()
			c.state, err = wire.DecodeStateChunk(f.Payload, c.state)
			c.mu.Unlock()
			if err != nil {
				c.setErr(err)
				return
			}
		case wire.FrameRebalanceCommit:
			info, err := wire.DecodeRebalanceCommit(f.Payload)
			if err != nil {
				c.setErr(err)
				return
			}
			c.mu.Lock()
			c.exportInfo = info
			c.exportCommit = true
			c.mu.Unlock()
			select {
			case c.commitCh <- info:
			default:
			}
		case wire.FrameCheckpointDone:
			info, err := wire.DecodeCheckpointDone(f.Payload)
			if err != nil {
				c.setErr(err)
				return
			}
			select {
			case c.ckptCh <- info:
			default:
			}
		case wire.FrameClosed:
			st, err := wire.DecodeClosed(f.Payload)
			if err != nil {
				c.setErr(err)
				return
			}
			c.mu.Lock()
			c.stats = st
			c.mu.Unlock()
			return
		case wire.FrameError:
			c.setErr(fmt.Errorf("server: %s", wire.DecodeError(f.Payload)))
			return
		default:
			c.setErr(fmt.Errorf("server: unexpected %v frame", f.Type))
			return
		}
	}
}
