package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// goldenSnapshot is a fixed snapshot that touches every encoding width of
// the file format: both sides, more tuples than one state chunk holds,
// and sequence uvarints of 1, 2, 3 and 6 bytes. Keys and values vary in
// every byte so a byte-order change cannot go unnoticed.
func goldenSnapshot() Snapshot {
	const nR, nS = 5000, 3195 // 8195 tuples: two chunks
	s := Snapshot{Meta: Meta{
		Engine:     1,
		Cores:      4,
		Window:     8192,
		Ordered:    true,
		ShardCount: 1,
		SeqR:       5 * nR,
		SeqS:       1<<40 + nS,
		UnixNanos:  1_700_000_000_123_456_789,
		Session:    42,
	}}
	for i := uint64(0); i < nR; i++ {
		// Seqs 0..125 take one byte, 130..16380 two, 16385.. three.
		s.Tuples = append(s.Tuples, core.Input{Side: stream.SideR, Tuple: stream.Tuple{
			Key: uint32(i * 2654435761), Val: uint32(i) ^ 0xA5C3E1F0, Seq: 5 * i,
		}})
	}
	for i := uint64(0); i < nS; i++ {
		s.Tuples = append(s.Tuples, core.Input{Side: stream.SideS, Tuple: stream.Tuple{
			Key: uint32(i*40503 + 0x01020304), Val: ^uint32(i), Seq: 1<<40 + i,
		}})
	}
	s.Meta.TuplesR, s.Meta.TuplesS = nR, nS
	return s
}

// The golden encoding of goldenSnapshot: its length, its leading bytes
// (magic, manifest section, the first chunk's header and first three
// tuples), its trailing bytes (the last two S tuples, the second chunk's
// CRC and the footer section), and the SHA-256 of the whole file. Tuples
// are [side][key LE][val LE][seq uvarint].
const (
	goldenLen  = 104704
	goldenHead = "414353434b505431" + // magic
		"0120" + // manifest section, 32 bytes
		"0101048040010100a8c301fb98808080208827fb1802959a97ece39fe7cb172a" +
		"ce96e25a" + // manifest CRC
		"0283b106" + "8040" + // chunk section, 8192 tuples
		"01" + "00000000" + "f0e1c3a5" + "00" +
		"01" + "b179379e" + "f1e1c3a5" + "05" +
		"01" + "62f36e3c" + "f2e1c3a5" + "0a"
	goldenTail = "02" + "035fb708" + "86f3ffff" + "f99880808020" +
		"02" + "3afdb708" + "85f3ffff" + "fa9880808020" +
		"da5cb643" + // second chunk CRC
		"030d" + "8827fb18a8c301fb9880808020" + // footer section
		"8242013a" // footer CRC
	goldenSHA256 = "16636fd9576e441ee6f7249b8c7d3a5e52b40e355697abf19a7ba31c3542d6e4"
)

// TestGoldenBytes pins the on-disk checkpoint format: the encoding of a
// fixed snapshot must match the checked-in bytes exactly, and decode back
// to the snapshot. Any change here means files written by an older build
// no longer load.
func TestGoldenBytes(t *testing.T) {
	snap := goldenSnapshot()
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if len(data) != goldenLen {
		t.Fatalf("encoded length %d, golden %d", len(data), goldenLen)
	}
	if got := hex.EncodeToString(data[:len(goldenHead)/2]); got != goldenHead {
		t.Fatalf("leading bytes changed:\n got %s\nwant %s", got, goldenHead)
	}
	if got := hex.EncodeToString(data[len(data)-len(goldenTail)/2:]); got != goldenTail {
		t.Fatalf("trailing bytes changed:\n got %s\nwant %s", got, goldenTail)
	}
	if got := hex.EncodeToString(sum[:]); got != goldenSHA256 {
		t.Fatalf("file digest changed: got %s, want %s", got, goldenSHA256)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta != snap.Meta || len(back.Tuples) != len(snap.Tuples) {
		t.Fatalf("golden snapshot did not round-trip: %+v (%d tuples)", back.Meta, len(back.Tuples))
	}
	for i := range snap.Tuples {
		if back.Tuples[i] != snap.Tuples[i] {
			t.Fatalf("tuple %d: got %+v, want %+v", i, back.Tuples[i], snap.Tuples[i])
		}
	}
}
