// Package checkpoint implements durable window snapshots: a CRC-framed,
// versioned on-disk format holding a join engine's full sliding-window
// state together with the global sequence numbers that position it in the
// input streams, plus a Store that writes snapshots atomically
// (temp-file + rename), retains the last K, and restores the newest valid
// one after a crash.
//
// The paper's join nodes keep the entire window in volatile device memory
// (FPGA BRAM, GPU device RAM); a node loss forfeits the window and the
// operator degrades until it refills. A snapshot makes that state
// relocatable across process lifetimes the same way a rebalance makes it
// relocatable across nodes, and with the same image: the engine's
// SnapshotState (tuples tagged with global arrival sequence numbers plus
// the two arrival counters), so a restarted engine resumes counting where
// the snapshot stopped and clients replay only the post-snapshot suffix.
//
// File layout (little-endian, uvarints as in encoding/binary):
//
//	magic   "ACSCKPT1"                          8 bytes
//	section  [kind:1][len:uvarint][payload][crc32-IEEE:4]   repeated
//
// The CRC covers the kind byte and the payload (not the length). Sections
// appear in order: one manifest (kind 1), zero or more state chunks
// (kind 2, ≤ wire.MaxStateChunk tuples each, in the StateChunk payload
// encoding of wire.AppendStateChunk), one footer (kind 3) echoing the
// tuple totals and sequence numbers. A reader accepts a file only when
// every CRC matches, the manifest and footer agree, and the chunk tuple
// counts sum to the manifest totals — so torn, truncated, or bit-flipped
// files are rejected as a unit and the loader falls back to the previous
// snapshot.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// Magic identifies a checkpoint file; the trailing digit is the format
// generation (bump on incompatible layout changes).
const Magic = "ACSCKPT1"

// FormatVersion is carried in the manifest; readers reject newer versions.
const FormatVersion = 1

// Section kinds.
const (
	sectionManifest = 1
	sectionChunk    = 2
	sectionFooter   = 3
)

// maxWindow mirrors the wire-level window sanity bound (2^26) so a
// corrupted or adversarial manifest cannot make the decoder allocate an
// absurd buffer.
const maxWindow = 1 << 26

// maxSections bounds the section count a reader will walk, derived from
// the largest legal window: maxWindow tuples per side over minimum-size
// chunks, plus manifest and footer. Anything longer is corrupt.
const maxSections = 2*maxWindow/wire.MaxStateChunk + 16

// Meta describes the engine a snapshot was taken from and where in the
// global input streams it stops. Restore refuses a snapshot whose shape
// does not match the session asking for it.
type Meta struct {
	Engine     byte   // wire.EngineKind of the engine that produced it
	Cores      int    // engine parallelism (informational; restore may differ)
	Window     int    // total window size the snapshot was cut at
	Ordered    bool   // engine ran with ordered result emission
	ShardCount int    // 0 or 1 = unsharded; >1 = residue-class member
	ShardIndex int    // this node's residue class when sharded
	SeqR       uint64 // R tuples consumed by the engine at the snapshot point
	SeqS       uint64 // S tuples consumed at the snapshot point
	TuplesR    uint64 // R tuples resident in the window
	TuplesS    uint64 // S tuples resident in the window
	UnixNanos  int64  // wall-clock time the snapshot was cut (staleness gauge)
	Session    uint64 // server session id that produced it (diagnostics)
}

// Snapshot is a decoded checkpoint: the manifest plus every window tuple,
// R and S interleaved in ascending global sequence order per side.
type Snapshot struct {
	Meta   Meta
	Tuples []core.Input
}

// appendUvarint appends v as a uvarint.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// appendSection frames payload as a section of the given kind, computing
// the CRC over kind+payload, and appends it to dst.
func appendSection(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, kind)
	dst = appendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	sum := crc32.Update(crc32.ChecksumIEEE([]byte{kind}), crc32.IEEETable, payload)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], sum)
	return append(dst, crc[:]...)
}

// EncodeManifest encodes the manifest section payload (exported for the
// fuzz harness; Encode is the normal entry point). chunks is the number
// of state sections that will follow.
func EncodeManifest(m Meta, chunks int) []byte {
	b := make([]byte, 0, 96)
	b = appendUvarint(b, FormatVersion)
	b = append(b, m.Engine)
	b = appendUvarint(b, uint64(m.Cores))
	b = appendUvarint(b, uint64(m.Window))
	var flags byte
	if m.Ordered {
		flags |= 1
	}
	b = append(b, flags)
	b = appendUvarint(b, uint64(m.ShardCount))
	b = appendUvarint(b, uint64(m.ShardIndex))
	b = appendUvarint(b, m.SeqR)
	b = appendUvarint(b, m.SeqS)
	b = appendUvarint(b, m.TuplesR)
	b = appendUvarint(b, m.TuplesS)
	b = appendUvarint(b, uint64(chunks))
	b = appendUvarint(b, uint64(m.UnixNanos))
	b = appendUvarint(b, m.Session)
	return b
}

// DecodeManifest parses a manifest section payload (exported for the fuzz
// harness). chunks is the declared number of state sections.
func DecodeManifest(payload []byte) (m Meta, chunks int, err error) {
	c := cursor{b: payload}
	version := c.uvarint()
	if c.err == nil && version != FormatVersion {
		return Meta{}, 0, fmt.Errorf("checkpoint: unsupported format version %d", version)
	}
	m.Engine = c.byte()
	m.Cores = int(c.uvarint())
	m.Window = int(c.uvarint())
	flags := c.byte()
	m.Ordered = flags&1 != 0
	m.ShardCount = int(c.uvarint())
	m.ShardIndex = int(c.uvarint())
	m.SeqR = c.uvarint()
	m.SeqS = c.uvarint()
	m.TuplesR = c.uvarint()
	m.TuplesS = c.uvarint()
	nchunks := c.uvarint()
	m.UnixNanos = int64(c.uvarint())
	m.Session = c.uvarint()
	if err := c.finish(); err != nil {
		return Meta{}, 0, err
	}
	if m.Window <= 0 || m.Window > maxWindow {
		return Meta{}, 0, fmt.Errorf("checkpoint: window %d out of range", m.Window)
	}
	if m.Cores < 0 || m.Cores > 1<<16 {
		return Meta{}, 0, fmt.Errorf("checkpoint: cores %d out of range", m.Cores)
	}
	if m.ShardCount < 0 || m.ShardCount > 1<<16 || (m.ShardCount > 0 && m.ShardIndex >= m.ShardCount) {
		return Meta{}, 0, fmt.Errorf("checkpoint: shard %d/%d out of range", m.ShardIndex, m.ShardCount)
	}
	// The window bound is per side: a full engine holds Window tuples of
	// R and Window tuples of S.
	if m.TuplesR > uint64(m.Window) || m.TuplesS > uint64(m.Window) {
		return Meta{}, 0, fmt.Errorf("checkpoint: resident tuples (%d R, %d S) exceed per-side window %d", m.TuplesR, m.TuplesS, m.Window)
	}
	if m.TuplesR > m.SeqR || m.TuplesS > m.SeqS {
		return Meta{}, 0, fmt.Errorf("checkpoint: resident tuples exceed consumed seqs")
	}
	if nchunks > uint64(maxSections) {
		return Meta{}, 0, fmt.Errorf("checkpoint: chunk count %d out of range", nchunks)
	}
	return m, int(nchunks), nil
}

// encodeFooter builds the footer payload: redundant totals so truncation
// after the last chunk is still detected.
func encodeFooter(m Meta) []byte {
	b := make([]byte, 0, 40)
	b = appendUvarint(b, m.TuplesR)
	b = appendUvarint(b, m.TuplesS)
	b = appendUvarint(b, m.SeqR)
	b = appendUvarint(b, m.SeqS)
	return b
}

// decodeFooter parses a footer payload and checks it against the manifest.
func decodeFooter(payload []byte, m Meta) error {
	c := cursor{b: payload}
	tr := c.uvarint()
	ts := c.uvarint()
	sr := c.uvarint()
	ss := c.uvarint()
	if err := c.finish(); err != nil {
		return err
	}
	if tr != m.TuplesR || ts != m.TuplesS || sr != m.SeqR || ss != m.SeqS {
		return fmt.Errorf("checkpoint: footer totals disagree with manifest")
	}
	return nil
}

// Encode serialises a snapshot into the on-disk format.
func Encode(s Snapshot) ([]byte, error) {
	var nr, ns uint64
	for _, in := range s.Tuples {
		switch in.Side {
		case stream.SideR:
			nr++
		case stream.SideS:
			ns++
		default:
			return nil, fmt.Errorf("checkpoint: invalid tuple side %d", in.Side)
		}
	}
	m := s.Meta
	m.TuplesR, m.TuplesS = nr, ns
	chunks := (len(s.Tuples) + wire.MaxStateChunk - 1) / wire.MaxStateChunk
	// A state tuple encodes to 10–19 bytes; 11 covers sequence numbers
	// below 2^14 without regrowth.
	out := make([]byte, 0, len(Magic)+64+len(s.Tuples)*11+chunks*16)
	out = append(out, Magic...)
	out = appendSection(out, sectionManifest, EncodeManifest(m, chunks))
	var payload []byte
	for rest := s.Tuples; len(rest) > 0; {
		n := min(len(rest), wire.MaxStateChunk)
		payload = wire.AppendStateChunk(payload[:0], rest[:n])
		out = appendSection(out, sectionChunk, payload)
		rest = rest[n:]
	}
	out = appendSection(out, sectionFooter, encodeFooter(m))
	return out, nil
}

// Decode parses and fully validates a checkpoint file image. Any framing,
// CRC, bound, or cross-section consistency failure rejects the whole file.
func Decode(data []byte) (Snapshot, error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return Snapshot{}, fmt.Errorf("checkpoint: bad magic")
	}
	rest := data[len(Magic):]
	var (
		snap      Snapshot
		haveMan   bool
		haveFoot  bool
		wantChunk int
		gotChunk  int
		sections  int
	)
	for len(rest) > 0 {
		sections++
		if sections > maxSections {
			return Snapshot{}, fmt.Errorf("checkpoint: too many sections")
		}
		kind := rest[0]
		ln, n := binary.Uvarint(rest[1:])
		if n <= 0 || ln > uint64(len(rest)-1-n) {
			return Snapshot{}, fmt.Errorf("checkpoint: truncated section header")
		}
		body := rest[1+n : 1+n+int(ln)]
		tail := rest[1+n+int(ln):]
		if len(tail) < 4 {
			return Snapshot{}, fmt.Errorf("checkpoint: truncated section CRC")
		}
		want := binary.LittleEndian.Uint32(tail[:4])
		got := crc32.Update(crc32.ChecksumIEEE([]byte{kind}), crc32.IEEETable, body)
		if want != got {
			return Snapshot{}, fmt.Errorf("checkpoint: section CRC mismatch (kind %d)", kind)
		}
		rest = tail[4:]
		if haveFoot {
			return Snapshot{}, fmt.Errorf("checkpoint: data after footer")
		}
		switch kind {
		case sectionManifest:
			if haveMan {
				return Snapshot{}, fmt.Errorf("checkpoint: duplicate manifest")
			}
			var err error
			snap.Meta, wantChunk, err = DecodeManifest(body)
			if err != nil {
				return Snapshot{}, err
			}
			haveMan = true
			snap.Tuples = make([]core.Input, 0, snap.Meta.TuplesR+snap.Meta.TuplesS)
		case sectionChunk:
			if !haveMan {
				return Snapshot{}, fmt.Errorf("checkpoint: chunk before manifest")
			}
			gotChunk++
			if gotChunk > wantChunk {
				return Snapshot{}, fmt.Errorf("checkpoint: more chunks than manifest declares")
			}
			var err error
			snap.Tuples, err = wire.DecodeStateChunk(body, snap.Tuples)
			if err != nil {
				return Snapshot{}, fmt.Errorf("checkpoint: %w", err)
			}
			if uint64(len(snap.Tuples)) > snap.Meta.TuplesR+snap.Meta.TuplesS {
				return Snapshot{}, fmt.Errorf("checkpoint: more tuples than manifest declares")
			}
		case sectionFooter:
			if !haveMan {
				return Snapshot{}, fmt.Errorf("checkpoint: footer before manifest")
			}
			if err := decodeFooter(body, snap.Meta); err != nil {
				return Snapshot{}, err
			}
			haveFoot = true
		default:
			return Snapshot{}, fmt.Errorf("checkpoint: unknown section kind %d", kind)
		}
	}
	if !haveMan || !haveFoot {
		return Snapshot{}, fmt.Errorf("checkpoint: missing manifest or footer")
	}
	if gotChunk != wantChunk {
		return Snapshot{}, fmt.Errorf("checkpoint: manifest declares %d chunks, found %d", wantChunk, gotChunk)
	}
	var nr, ns uint64
	for _, in := range snap.Tuples {
		if in.Side == stream.SideR {
			nr++
		} else {
			ns++
		}
	}
	if nr != snap.Meta.TuplesR || ns != snap.Meta.TuplesS {
		return Snapshot{}, fmt.Errorf("checkpoint: tuple totals disagree with manifest")
	}
	return snap, nil
}

// cursor is a bounds-checked reader over a manifest or footer payload,
// mirroring the wire package's decoder idiom.
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
		c.err = fmt.Errorf("checkpoint: truncated uvarint")
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		c.err = fmt.Errorf("checkpoint: truncated byte")
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) finish() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("checkpoint: %d trailing bytes", len(c.b)-c.off)
	}
	return nil
}
