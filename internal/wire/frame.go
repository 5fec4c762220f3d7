package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// Frame is one decoded-but-unparsed frame: the type plus the raw payload.
// Payload aliases the Reader's scratch buffer and is valid only until the
// next ReadFrame call; Decode* before reading again.
type Frame struct {
	Type    FrameType
	Payload []byte
}

// Writer encodes frames onto an io.Writer. It is not safe for concurrent
// use; callers that share one connection between goroutines must serialize
// writes themselves.
type Writer struct {
	bw  *bufio.Writer
	buf []byte // payload scratch, reused across frames

	// head/sum live on the Writer (not the stack) because they are passed
	// through the io.Writer interface, which would otherwise force a heap
	// escape — and an allocation — on every frame.
	head [1 + binary.MaxVarintLen64]byte
	sum  [4]byte
}

// NewWriter wraps w in a frame encoder.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// writeFrame emits one frame and flushes, so every frame is immediately
// visible to the peer (batching happens at the payload level, not by
// holding frames back).
func (w *Writer) writeFrame(t FrameType, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("wire: payload %d exceeds limit %d", len(payload), MaxPayload)
	}
	w.head[0] = byte(t)
	// Update-chaining computes the same IEEE CRC as a crc32.NewIEEE()
	// digest without allocating one per frame.
	crc := crc32.Update(0, crc32.IEEETable, w.head[:1])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	n := binary.PutUvarint(w.head[1:], uint64(len(payload)))
	if _, err := w.bw.Write(w.head[:1+n]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(w.sum[:], crc)
	if _, err := w.bw.Write(w.sum[:]); err != nil {
		return err
	}
	return w.bw.Flush()
}

// Wire widths of the hot-path elements: a batch tuple is a side byte plus
// key and val; a result is at least four u32s plus two one-byte uvarints
// and at most four u32s plus two maximal uvarints. The Max widths size the
// writer scratch so hot frames never re-grow it mid-append.
const (
	tupleWire     = 9
	resultWireMin = 18
	resultWireMax = 16 + 2*binary.MaxVarintLen64
)

// scratch returns the writer's payload scratch with at least the given
// capacity, growing it at most once per frame (and then keeping the larger
// backing array for every later frame).
func (w *Writer) scratch(n int) []byte {
	if cap(w.buf) < n {
		w.buf = make([]byte, 0, n)
	}
	return w.buf[:0]
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

// The field tags of the v2 (field-tagged) Open encoding. A v2 Open payload
// is the version uvarint followed by [tag:uvarint][len:uvarint][value]
// fields in any order; zero-valued fields are omitted and unknown tags are
// skipped, so the encoding grows without another protocol revision.
const (
	openTagEngine      = 1  // 1 byte: EngineKind
	openTagCores       = 2  // uvarint
	openTagWindow      = 3  // uvarint
	openTagFlags       = 4  // 1 byte: bit 0 = ordered
	openTagShardCount  = 5  // uvarint
	openTagShardIndex  = 6  // uvarint
	openTagBaseSeqR    = 7  // uvarint
	openTagBaseSeqS    = 8  // uvarint
	openTagAuthToken   = 9  // raw bytes
	openTagProbeKernel = 10 // 1 byte: stream.ProbeKernel
	openTagTenant      = 11 // raw bytes, ValidTenant-constrained
)

// The field tags of the v2 OpenAck encoding (same TLV grammar as the v2
// Open). A rejected ack carries only the reject fields; an accepting ack
// never carries them, so each decoded ack is canonical.
const (
	ackTagCredits    = 1 // uvarint
	ackTagSession    = 2 // uvarint
	ackTagResumed    = 3 // 1 byte: must be 1
	ackTagResumeSeqR = 4 // uvarint
	ackTagResumeSeqS = 5 // uvarint
	ackTagReject     = 6 // 1 byte: RejectCode
	ackTagRetryAfter = 7 // uvarint: milliseconds
)

// appendFieldUvarint appends one TLV field holding a uvarint value.
func appendFieldUvarint(b []byte, tag, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b = appendUvarint(b, tag)
	b = appendUvarint(b, uint64(n))
	return append(b, tmp[:n]...)
}

// appendFieldByte appends one TLV field holding a single byte.
func appendFieldByte(b []byte, tag uint64, v byte) []byte {
	b = appendUvarint(b, tag)
	b = appendUvarint(b, 1)
	return append(b, v)
}

// appendFieldString appends one TLV field holding raw string bytes.
func appendFieldString(b []byte, tag uint64, s string) []byte {
	b = appendUvarint(b, tag)
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// fieldUvarint parses a TLV value that must be exactly one uvarint.
func fieldUvarint(tag uint64, val []byte) (uint64, error) {
	v, n := binary.Uvarint(val)
	if n <= 0 || n != len(val) {
		return 0, fmt.Errorf("wire: malformed uvarint in field %d", tag)
	}
	return v, nil
}

// fieldByte parses a TLV value that must be exactly one byte.
func fieldByte(tag uint64, val []byte) (byte, error) {
	if len(val) != 1 {
		return 0, fmt.Errorf("wire: field %d wants 1 byte, got %d", tag, len(val))
	}
	return val[0], nil
}

// WriteOpen emits an Open frame in the encoding cfg.Version selects —
// the field-tagged v2 layout by default (Version zero or ProtocolV2), or
// the original positional v1 layout for servers predating the versioned
// handshake.
func (w *Writer) WriteOpen(cfg OpenConfig) error {
	switch cfg.Version {
	case 0, ProtocolV2:
		return w.writeOpenV2(cfg)
	case ProtocolV1:
		return w.writeOpenV1(cfg)
	default:
		return fmt.Errorf("wire: protocol version %d not supported (want %d or %d)", cfg.Version, ProtocolV1, ProtocolV2)
	}
}

// writeOpenV1 emits the original positional Open layout. The shard-role
// fields ride as a tail after the original fixed fields, so a PR-1 Open
// frame (no tail) still decodes — as an unsharded session — on a current
// server. The auth token is a second optional tail after the shard fields,
// and the probe-kernel byte a third after the token; each is written only
// when a later tail needs it or its value is non-default, so an
// unauthenticated auto-kernel Open stays byte-identical to the earlier
// encodings.
func (w *Writer) writeOpenV1(cfg OpenConfig) error {
	if cfg.Tenant != "" {
		return fmt.Errorf("wire: tenant identity requires the v2 open encoding")
	}
	b := w.buf[:0]
	b = appendUvarint(b, ProtocolV1)
	b = append(b, byte(cfg.Engine))
	b = appendUvarint(b, uint64(cfg.Cores))
	b = appendUvarint(b, uint64(cfg.Window))
	var flags byte
	if cfg.Ordered {
		flags |= 1
	}
	b = append(b, flags)
	b = appendUvarint(b, uint64(cfg.ShardCount))
	b = appendUvarint(b, uint64(cfg.ShardIndex))
	b = appendUvarint(b, cfg.BaseSeqR)
	b = appendUvarint(b, cfg.BaseSeqS)
	if cfg.AuthToken != "" || cfg.ProbeKernel != stream.KernelAuto {
		b = appendUvarint(b, uint64(len(cfg.AuthToken)))
		b = append(b, cfg.AuthToken...)
	}
	if cfg.ProbeKernel != stream.KernelAuto {
		b = append(b, byte(cfg.ProbeKernel))
	}
	w.buf = b
	return w.writeFrame(FrameOpen, b)
}

// writeOpenV2 emits the field-tagged Open layout: the version uvarint
// followed by TLV fields, zero-valued fields omitted.
func (w *Writer) writeOpenV2(cfg OpenConfig) error {
	b := w.buf[:0]
	b = appendUvarint(b, ProtocolV2)
	b = appendFieldByte(b, openTagEngine, byte(cfg.Engine))
	b = appendFieldUvarint(b, openTagCores, uint64(cfg.Cores))
	b = appendFieldUvarint(b, openTagWindow, uint64(cfg.Window))
	if cfg.Ordered {
		b = appendFieldByte(b, openTagFlags, 1)
	}
	if cfg.ShardCount != 0 {
		b = appendFieldUvarint(b, openTagShardCount, uint64(cfg.ShardCount))
	}
	if cfg.ShardIndex != 0 {
		b = appendFieldUvarint(b, openTagShardIndex, uint64(cfg.ShardIndex))
	}
	if cfg.BaseSeqR != 0 {
		b = appendFieldUvarint(b, openTagBaseSeqR, cfg.BaseSeqR)
	}
	if cfg.BaseSeqS != 0 {
		b = appendFieldUvarint(b, openTagBaseSeqS, cfg.BaseSeqS)
	}
	if cfg.AuthToken != "" {
		b = appendFieldString(b, openTagAuthToken, cfg.AuthToken)
	}
	if cfg.ProbeKernel != stream.KernelAuto {
		b = appendFieldByte(b, openTagProbeKernel, byte(cfg.ProbeKernel))
	}
	if cfg.Tenant != "" {
		b = appendFieldString(b, openTagTenant, cfg.Tenant)
	}
	w.buf = b
	return w.writeFrame(FrameOpen, b)
}

// WriteOpenAck emits an OpenAck frame in the encoding ack.Version selects.
// Version zero or ProtocolV1 is the original positional layout (the
// checkpoint-resume fields ride in an optional tail written only when
// Resumed is set, so a non-resumed ack stays byte-identical to the
// pre-checkpoint encoding); it cannot carry a typed rejection — v1
// sessions are rejected with an Error frame instead.
func (w *Writer) WriteOpenAck(ack OpenAck) error {
	switch ack.Version {
	case 0, ProtocolV1:
	case ProtocolV2:
		return w.writeOpenAckV2(ack)
	default:
		return fmt.Errorf("wire: open-ack version %d not supported (want %d or %d)", ack.Version, ProtocolV1, ProtocolV2)
	}
	if ack.Reject != RejectNone {
		return fmt.Errorf("wire: v1 open-ack cannot carry reject code %v", ack.Reject)
	}
	b := w.buf[:0]
	b = appendUvarint(b, uint64(ack.Credits))
	b = appendUvarint(b, ack.Session)
	if ack.Resumed {
		b = append(b, 1)
		b = appendUvarint(b, ack.ResumeSeqR)
		b = appendUvarint(b, ack.ResumeSeqS)
	}
	w.buf = b
	return w.writeFrame(FrameOpenAck, b)
}

// writeOpenAckV2 emits the field-tagged OpenAck layout. Its leading
// uvarint is 0 — a credit window no v1 ack can carry — so a decoder can
// tell the encodings apart without context; the version uvarint and the
// TLV fields follow. A rejected ack carries only the reject code and the
// optional retry-after hint.
func (w *Writer) writeOpenAckV2(ack OpenAck) error {
	b := w.buf[:0]
	b = appendUvarint(b, 0)
	b = appendUvarint(b, ProtocolV2)
	if ack.Reject != RejectNone {
		b = appendFieldByte(b, ackTagReject, byte(ack.Reject))
		if ack.RetryAfter > 0 {
			b = appendFieldUvarint(b, ackTagRetryAfter, uint64(ack.RetryAfter/time.Millisecond))
		}
	} else {
		b = appendFieldUvarint(b, ackTagCredits, uint64(ack.Credits))
		b = appendFieldUvarint(b, ackTagSession, ack.Session)
		if ack.Resumed {
			b = appendFieldByte(b, ackTagResumed, 1)
			b = appendFieldUvarint(b, ackTagResumeSeqR, ack.ResumeSeqR)
			b = appendFieldUvarint(b, ackTagResumeSeqS, ack.ResumeSeqS)
		}
	}
	w.buf = b
	return w.writeFrame(FrameOpenAck, b)
}

// WriteBatch emits a Batch frame: the batch sequence number, a uvarint
// tuple count, then the side-tagged wire words. Seq and Tag of the tuples
// are not carried: the server reassigns arrival sequence numbers in wire
// order, which equals the client's push order.
func (w *Writer) WriteBatch(seq uint64, inputs []core.Input) error {
	b := w.scratch(2*binary.MaxVarintLen64 + len(inputs)*tupleWire)
	b = appendUvarint(b, seq)
	b = appendUvarint(b, uint64(len(inputs)))
	for i := range inputs {
		b = append(b, byte(inputs[i].Side))
		b = appendU32(b, inputs[i].Tuple.Key)
		b = appendU32(b, inputs[i].Tuple.Val)
	}
	w.buf = b
	return w.writeFrame(FrameBatch, b)
}

// WriteResults emits a Results frame. Sequence numbers ride along so the
// client can verify exactly-once pairing.
func (w *Writer) WriteResults(results []stream.Result) error {
	b := w.scratch(binary.MaxVarintLen64 + len(results)*resultWireMax)
	b = appendUvarint(b, uint64(len(results)))
	for i := range results {
		r := &results[i]
		b = appendU32(b, r.R.Key)
		b = appendU32(b, r.R.Val)
		b = appendUvarint(b, r.R.Seq)
		b = appendU32(b, r.S.Key)
		b = appendU32(b, r.S.Val)
		b = appendUvarint(b, r.S.Seq)
	}
	w.buf = b
	return w.writeFrame(FrameResults, b)
}

// WriteCredit returns n batch credits to the client.
func (w *Writer) WriteCredit(n int) error {
	b := appendUvarint(w.buf[:0], uint64(n))
	w.buf = b
	return w.writeFrame(FrameCredit, b)
}

// WriteClose emits a Close (drain request) frame.
func (w *Writer) WriteClose() error {
	return w.writeFrame(FrameClose, nil)
}

// WriteClosed emits a Closed frame with the final session statistics.
func (w *Writer) WriteClosed(st Stats) error {
	b := w.buf[:0]
	b = appendUvarint(b, st.TuplesIn)
	b = appendUvarint(b, st.BatchesIn)
	b = appendUvarint(b, st.ResultsOut)
	w.buf = b
	return w.writeFrame(FrameClosed, b)
}

// WriteError emits an Error frame with a human-readable message.
func (w *Writer) WriteError(msg string) error {
	return w.writeFrame(FrameError, []byte(msg))
}

// stateTupleWireMax is the widest encoding of one state tuple: side byte,
// key, val, and a maximal sequence uvarint.
const stateTupleWireMax = tupleWire + binary.MaxVarintLen64

// WriteRebalancePrepare emits a RebalancePrepare (quiesce-and-export
// request) frame. It carries no payload: the punctuation boundary is the
// frame's position in the stream — every Batch frame written before it is
// reflected in the exported state, nothing after it is.
func (w *Writer) WriteRebalancePrepare() error {
	return w.writeFrame(FrameRebalancePrepare, nil)
}

// AppendStateChunk appends the state-chunk encoding of tuples to b: a
// uvarint tuple count, then per tuple its side byte, key and val as
// little-endian u32s, and its per-side arrival sequence number as a
// uvarint. Unlike Batch tuples, state tuples carry their sequence numbers:
// the residue class and window position of a migrated or restored tuple
// are both functions of its arrival index. This is the one window-state
// tuple codec: StateChunk frames carry it, and checkpoint files store
// their state sections in it, which is why it is little-endian where the
// rest of the wire protocol is big-endian.
func AppendStateChunk(b []byte, tuples []core.Input) []byte {
	b = appendUvarint(b, uint64(len(tuples)))
	for i := range tuples {
		b = append(b, byte(tuples[i].Side))
		b = binary.LittleEndian.AppendUint32(b, tuples[i].Tuple.Key)
		b = binary.LittleEndian.AppendUint32(b, tuples[i].Tuple.Val)
		b = appendUvarint(b, tuples[i].Tuple.Seq)
	}
	return b
}

// WriteStateChunk emits one StateChunk frame of at most MaxStateChunk
// tuples (see AppendStateChunk for the payload).
func (w *Writer) WriteStateChunk(tuples []core.Input) error {
	if len(tuples) > MaxStateChunk {
		return fmt.Errorf("wire: state chunk of %d tuples exceeds limit %d", len(tuples), MaxStateChunk)
	}
	w.buf = AppendStateChunk(w.scratch(binary.MaxVarintLen64+len(tuples)*stateTupleWireMax), tuples)
	return w.writeFrame(FrameStateChunk, w.buf)
}

// WriteState emits a whole window image as consecutive StateChunk frames
// of at most MaxStateChunk tuples each; an empty image writes no frame.
func (w *Writer) WriteState(tuples []core.Input) error {
	for len(tuples) > 0 {
		n := min(len(tuples), MaxStateChunk)
		if err := w.WriteStateChunk(tuples[:n]); err != nil {
			return err
		}
		tuples = tuples[n:]
	}
	return nil
}

// WriteRebalanceCommit emits a RebalanceCommit frame carrying the transfer
// summary.
func (w *Writer) WriteRebalanceCommit(info RebalanceInfo) error {
	b := w.buf[:0]
	b = appendUvarint(b, info.TuplesR)
	b = appendUvarint(b, info.TuplesS)
	b = appendUvarint(b, info.SeqR)
	b = appendUvarint(b, info.SeqS)
	w.buf = b
	return w.writeFrame(FrameRebalanceCommit, b)
}

// WriteCheckpoint emits a Checkpoint (snapshot request) frame. Like
// RebalancePrepare it carries no payload: the punctuation boundary is the
// frame's position in the stream.
func (w *Writer) WriteCheckpoint() error {
	return w.writeFrame(FrameCheckpoint, nil)
}

// WriteCheckpointDone emits a CheckpointDone frame carrying the snapshot
// summary (same encoding as RebalanceCommit).
func (w *Writer) WriteCheckpointDone(info RebalanceInfo) error {
	b := w.buf[:0]
	b = appendUvarint(b, info.TuplesR)
	b = appendUvarint(b, info.TuplesS)
	b = appendUvarint(b, info.SeqR)
	b = appendUvarint(b, info.SeqS)
	w.buf = b
	return w.writeFrame(FrameCheckpointDone, b)
}

// Reader decodes frames from an io.Reader. Not safe for concurrent use.
type Reader struct {
	br  *bufio.Reader
	buf []byte // payload scratch, reused across frames
}

// NewReader wraps r in a frame decoder.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r)}
}

// ReadFrame reads and CRC-validates the next frame. The returned payload
// aliases an internal buffer valid until the next call.
func (r *Reader) ReadFrame() (Frame, error) {
	t, err := r.br.ReadByte()
	if err != nil {
		return Frame{}, err
	}
	size, err := binary.ReadUvarint(r.br)
	if err != nil {
		return Frame{}, fmt.Errorf("wire: reading frame length: %w", err)
	}
	if size > MaxPayload {
		return Frame{}, fmt.Errorf("wire: frame payload %d exceeds limit %d", size, MaxPayload)
	}
	if cap(r.buf) < int(size) {
		r.buf = make([]byte, size)
	}
	payload := r.buf[:size]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return Frame{}, fmt.Errorf("wire: reading frame payload: %w", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r.br, sum[:]); err != nil {
		return Frame{}, fmt.Errorf("wire: reading frame checksum: %w", err)
	}
	tb := [1]byte{t}
	crc := crc32.Update(0, crc32.IEEETable, tb[:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if got, want := crc, binary.BigEndian.Uint32(sum[:]); got != want {
		return Frame{}, fmt.Errorf("wire: checksum mismatch on %v frame: computed %08x, carried %08x", FrameType(t), got, want)
	}
	return Frame{Type: FrameType(t), Payload: payload}, nil
}

// cursor is a tiny decode helper over a payload slice.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.err = fmt.Errorf("wire: truncated uvarint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) u32() uint32 {
	if c.err != nil {
		return 0
	}
	if c.off+4 > len(c.b) {
		c.err = fmt.Errorf("wire: truncated u32 at offset %d", c.off)
		return 0
	}
	v := binary.BigEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

// u32le reads a little-endian u32, the byte order of state tuples.
func (c *cursor) u32le() uint32 {
	if c.err != nil {
		return 0
	}
	if c.off+4 > len(c.b) {
		c.err = fmt.Errorf("wire: truncated u32 at offset %d", c.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		c.err = fmt.Errorf("wire: truncated byte at offset %d", c.off)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.b) {
		c.err = fmt.Errorf("wire: truncated %d-byte field at offset %d", n, c.off)
		return nil
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v
}

func (c *cursor) remaining() int {
	return len(c.b) - c.off
}

func (c *cursor) finish() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("wire: %d trailing bytes after payload", len(c.b)-c.off)
	}
	return nil
}

// DecodeOpen parses an Open payload of either protocol version,
// dispatching on the leading version uvarint, and sets cfg.Version to the
// version actually received so the server can answer in kind.
func DecodeOpen(payload []byte) (OpenConfig, error) {
	c := cursor{b: payload}
	version := c.uvarint()
	if c.err != nil {
		return OpenConfig{}, c.err
	}
	var cfg OpenConfig
	var err error
	switch version {
	case ProtocolV1:
		cfg, err = decodeOpenV1(&c)
	case ProtocolV2:
		cfg, err = decodeOpenV2(&c)
	default:
		return OpenConfig{}, fmt.Errorf("wire: protocol version %d not supported (want %d or %d)", version, ProtocolV1, ProtocolV2)
	}
	if err != nil {
		return OpenConfig{}, err
	}
	if err := cfg.Validate(); err != nil {
		return OpenConfig{}, err
	}
	return cfg, nil
}

// decodeOpenV1 parses the positional v1 Open layout. The shard-role tail
// is optional: a frame that ends after the flags byte decodes as an
// unsharded session (all tail fields zero), keeping PR-1 clients
// compatible. The auth-token tail after it is optional too (absence
// decodes as an empty token), as is the probe-kernel byte after that
// (absence decodes as KernelAuto).
func decodeOpenV1(c *cursor) (OpenConfig, error) {
	cfg := OpenConfig{Version: ProtocolV1}
	cfg.Engine = EngineKind(c.byte())
	cfg.Cores = int(c.uvarint())
	cfg.Window = int(c.uvarint())
	flags := c.byte()
	cfg.Ordered = flags&1 != 0
	if c.err == nil && c.remaining() > 0 {
		cfg.ShardCount = int(c.uvarint())
		cfg.ShardIndex = int(c.uvarint())
		cfg.BaseSeqR = c.uvarint()
		cfg.BaseSeqS = c.uvarint()
	}
	if c.err == nil && c.remaining() > 0 {
		n := c.uvarint()
		if c.err == nil && n > MaxAuthToken {
			return OpenConfig{}, fmt.Errorf("wire: auth token of %d bytes exceeds limit %d", n, MaxAuthToken)
		}
		cfg.AuthToken = string(c.bytes(int(n)))
	}
	if c.err == nil && c.remaining() > 0 {
		cfg.ProbeKernel = stream.ProbeKernel(c.byte())
	}
	if err := c.finish(); err != nil {
		return OpenConfig{}, err
	}
	return cfg, nil
}

// decodeOpenV2 parses the field-tagged v2 Open layout. Unknown tags are
// skipped so future fields do not break this decoder; duplicate tags are
// last-wins.
func decodeOpenV2(c *cursor) (OpenConfig, error) {
	cfg := OpenConfig{Version: ProtocolV2}
	for c.err == nil && c.remaining() > 0 {
		tag := c.uvarint()
		n := c.uvarint()
		val := c.bytes(int(n))
		if c.err != nil {
			break
		}
		var err error
		switch tag {
		case openTagEngine:
			var b byte
			if b, err = fieldByte(tag, val); err == nil {
				cfg.Engine = EngineKind(b)
			}
		case openTagCores:
			var v uint64
			if v, err = fieldUvarint(tag, val); err == nil {
				cfg.Cores = int(v)
			}
		case openTagWindow:
			var v uint64
			if v, err = fieldUvarint(tag, val); err == nil {
				cfg.Window = int(v)
			}
		case openTagFlags:
			var b byte
			if b, err = fieldByte(tag, val); err == nil {
				cfg.Ordered = b&1 != 0
			}
		case openTagShardCount:
			var v uint64
			if v, err = fieldUvarint(tag, val); err == nil {
				cfg.ShardCount = int(v)
			}
		case openTagShardIndex:
			var v uint64
			if v, err = fieldUvarint(tag, val); err == nil {
				cfg.ShardIndex = int(v)
			}
		case openTagBaseSeqR:
			cfg.BaseSeqR, err = fieldUvarint(tag, val)
		case openTagBaseSeqS:
			cfg.BaseSeqS, err = fieldUvarint(tag, val)
		case openTagAuthToken:
			if len(val) > MaxAuthToken {
				err = fmt.Errorf("wire: auth token of %d bytes exceeds limit %d", len(val), MaxAuthToken)
			} else {
				cfg.AuthToken = string(val)
			}
		case openTagProbeKernel:
			var b byte
			if b, err = fieldByte(tag, val); err == nil {
				cfg.ProbeKernel = stream.ProbeKernel(b)
			}
		case openTagTenant:
			// Charset and length are checked by Validate via ValidTenant.
			cfg.Tenant = string(val)
		default:
			// Unknown field: skip for forward compatibility.
		}
		if err != nil {
			return OpenConfig{}, err
		}
	}
	if c.err != nil {
		return OpenConfig{}, c.err
	}
	return cfg, nil
}

// DecodeOpenAck parses an OpenAck payload of either encoding. A leading
// credit uvarint of 0 — impossible in a v1 ack — marks the v2 layout; any
// other value is a v1 ack (decoded with Version 0, the v1 default, so
// pre-existing round trips are unchanged) with the optional
// checkpoint-resume tail.
func DecodeOpenAck(payload []byte) (OpenAck, error) {
	c := cursor{b: payload}
	first := c.uvarint()
	if c.err != nil {
		return OpenAck{}, c.err
	}
	if first == 0 {
		return decodeOpenAckV2(&c)
	}
	ack := OpenAck{Credits: int(first), Session: c.uvarint()}
	if c.err == nil && c.remaining() > 0 {
		flag := c.byte()
		if c.err == nil && flag != 1 {
			return OpenAck{}, fmt.Errorf("wire: invalid open-ack resume flag %d", flag)
		}
		ack.Resumed = true
		ack.ResumeSeqR = c.uvarint()
		ack.ResumeSeqS = c.uvarint()
	}
	if err := c.finish(); err != nil {
		return OpenAck{}, err
	}
	if ack.Credits <= 0 {
		return OpenAck{}, fmt.Errorf("wire: non-positive credit window %d", ack.Credits)
	}
	return ack, nil
}

// decodeOpenAckV2 parses the field-tagged OpenAck layout (after the
// leading 0 discriminator). The decoded ack is canonicalized: a rejected
// ack keeps only the reject code and retry-after hint, an accepting ack
// drops any stray retry-after, so decode→encode→decode is stable.
func decodeOpenAckV2(c *cursor) (OpenAck, error) {
	version := c.uvarint()
	if c.err != nil {
		return OpenAck{}, c.err
	}
	if version != ProtocolV2 {
		return OpenAck{}, fmt.Errorf("wire: open-ack version %d not supported (want %d)", version, ProtocolV2)
	}
	ack := OpenAck{Version: ProtocolV2}
	var retryMillis uint64
	for c.err == nil && c.remaining() > 0 {
		tag := c.uvarint()
		n := c.uvarint()
		val := c.bytes(int(n))
		if c.err != nil {
			break
		}
		var err error
		switch tag {
		case ackTagCredits:
			var v uint64
			if v, err = fieldUvarint(tag, val); err == nil {
				ack.Credits = int(v)
			}
		case ackTagSession:
			ack.Session, err = fieldUvarint(tag, val)
		case ackTagResumed:
			var b byte
			if b, err = fieldByte(tag, val); err == nil && b != 1 {
				err = fmt.Errorf("wire: invalid open-ack resume flag %d", b)
			}
			ack.Resumed = err == nil
		case ackTagResumeSeqR:
			ack.ResumeSeqR, err = fieldUvarint(tag, val)
		case ackTagResumeSeqS:
			ack.ResumeSeqS, err = fieldUvarint(tag, val)
		case ackTagReject:
			var b byte
			if b, err = fieldByte(tag, val); err == nil {
				ack.Reject = RejectCode(b)
			}
		case ackTagRetryAfter:
			retryMillis, err = fieldUvarint(tag, val)
		default:
			// Unknown field: skip for forward compatibility.
		}
		if err != nil {
			return OpenAck{}, err
		}
	}
	if c.err != nil {
		return OpenAck{}, c.err
	}
	if ack.Reject != RejectNone {
		return OpenAck{
			Version:    ProtocolV2,
			Reject:     ack.Reject,
			RetryAfter: time.Duration(retryMillis) * time.Millisecond,
		}, nil
	}
	if ack.Credits <= 0 {
		return OpenAck{}, fmt.Errorf("wire: non-positive credit window %d", ack.Credits)
	}
	return ack, nil
}

// DecodeBatch parses a Batch payload into a fresh input slice. maxTuples
// bounds the accepted batch size (0 means unbounded up to MaxPayload).
func DecodeBatch(payload []byte, maxTuples int) (seq uint64, inputs []core.Input, err error) {
	return DecodeBatchInto(payload, maxTuples, nil)
}

// DecodeBatchInto parses a Batch payload into dst's backing storage,
// growing it only when the batch exceeds dst's capacity. A caller that
// hands the returned slice back on the next call (as session.readLoop
// does, once the engine has copied the batch) decodes every steady-state
// frame with zero allocations. dst may be nil; its contents are
// overwritten. maxTuples bounds the accepted batch size (0 means
// unbounded up to MaxPayload).
func DecodeBatchInto(payload []byte, maxTuples int, dst []core.Input) (seq uint64, inputs []core.Input, err error) {
	c := cursor{b: payload}
	seq = c.uvarint()
	n := c.uvarint()
	if c.err == nil && maxTuples > 0 && n > uint64(maxTuples) {
		return 0, nil, fmt.Errorf("wire: batch of %d tuples exceeds limit %d", n, maxTuples)
	}
	if c.err == nil && n*tupleWire > uint64(len(payload)) {
		return 0, nil, fmt.Errorf("wire: batch count %d exceeds payload", n)
	}
	inputs = dst[:0]
	if uint64(cap(inputs)) < n {
		inputs = make([]core.Input, 0, n)
	}
	for i := uint64(0); i < n && c.err == nil; i++ {
		side := stream.Side(c.byte())
		key := c.u32()
		val := c.u32()
		if side != stream.SideR && side != stream.SideS {
			return 0, nil, fmt.Errorf("wire: invalid tuple side %d in batch", side)
		}
		inputs = append(inputs, core.Input{Side: side, Tuple: stream.Tuple{Key: key, Val: val}})
	}
	if err := c.finish(); err != nil {
		return 0, nil, err
	}
	return seq, inputs, nil
}

// DecodeResults parses a Results payload into a fresh result slice.
func DecodeResults(payload []byte) ([]stream.Result, error) {
	c := cursor{b: payload}
	n := c.uvarint()
	if c.err == nil && n*resultWireMin > uint64(len(payload)) {
		return nil, fmt.Errorf("wire: result count %d exceeds payload", n)
	}
	results := make([]stream.Result, 0, n)
	for i := uint64(0); i < n && c.err == nil; i++ {
		var r stream.Result
		r.R.Key = c.u32()
		r.R.Val = c.u32()
		r.R.Seq = c.uvarint()
		r.S.Key = c.u32()
		r.S.Val = c.u32()
		r.S.Seq = c.uvarint()
		results = append(results, r)
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return results, nil
}

// DecodeStateChunk parses a state-chunk payload (see AppendStateChunk),
// appending its tuples to dst. The count is bounded by MaxStateChunk and
// by the payload length before anything is allocated.
func DecodeStateChunk(payload []byte, dst []core.Input) ([]core.Input, error) {
	c := cursor{b: payload}
	n := c.uvarint()
	if c.err == nil && n > MaxStateChunk {
		return dst, fmt.Errorf("wire: state chunk of %d tuples exceeds limit %d", n, MaxStateChunk)
	}
	// Each tuple occupies at least tupleWire+1 bytes (one-byte seq uvarint).
	if c.err == nil && n*(tupleWire+1) > uint64(len(payload)) {
		return dst, fmt.Errorf("wire: state chunk count %d exceeds payload", n)
	}
	dst = slices.Grow(dst, int(n))
	for i := uint64(0); i < n && c.err == nil; i++ {
		side := stream.Side(c.byte())
		key := c.u32le()
		val := c.u32le()
		seq := c.uvarint()
		if side != stream.SideR && side != stream.SideS {
			return dst, fmt.Errorf("wire: invalid tuple side %d in state chunk", side)
		}
		dst = append(dst, core.Input{Side: side, Tuple: stream.Tuple{Key: key, Val: val, Seq: seq}})
	}
	return dst, c.finish()
}

// DecodeRebalanceCommit parses a RebalanceCommit payload.
func DecodeRebalanceCommit(payload []byte) (RebalanceInfo, error) {
	c := cursor{b: payload}
	info := RebalanceInfo{
		TuplesR: c.uvarint(),
		TuplesS: c.uvarint(),
		SeqR:    c.uvarint(),
		SeqS:    c.uvarint(),
	}
	if err := c.finish(); err != nil {
		return RebalanceInfo{}, err
	}
	return info, nil
}

// DecodeCheckpointDone parses a CheckpointDone payload (same encoding as
// RebalanceCommit).
func DecodeCheckpointDone(payload []byte) (RebalanceInfo, error) {
	return DecodeRebalanceCommit(payload)
}

// DecodeCredit parses a Credit payload.
func DecodeCredit(payload []byte) (int, error) {
	c := cursor{b: payload}
	n := c.uvarint()
	if err := c.finish(); err != nil {
		return 0, err
	}
	if n == 0 || n > 1<<20 {
		return 0, fmt.Errorf("wire: credit grant %d out of range", n)
	}
	return int(n), nil
}

// DecodeClosed parses a Closed payload.
func DecodeClosed(payload []byte) (Stats, error) {
	c := cursor{b: payload}
	st := Stats{TuplesIn: c.uvarint(), BatchesIn: c.uvarint(), ResultsOut: c.uvarint()}
	if err := c.finish(); err != nil {
		return Stats{}, err
	}
	return st, nil
}

// DecodeError parses an Error payload.
func DecodeError(payload []byte) string {
	return string(payload)
}
