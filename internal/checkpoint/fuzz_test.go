package checkpoint

import (
	"math/rand"
	"testing"

	"accelstream/internal/wire"
)

// The fuzz targets harden the snapshot-file decoders against arbitrary
// bytes — a checkpoint directory is operator-writable disk state, so the
// loader must treat every file as untrusted: whatever the bytes, a
// decoder either returns an error or a value that survives a
// re-encode/re-decode round trip, never panics, and never allocates past
// the declared format bounds. Seed corpora come from the same
// deterministic generator as the corruption/truncation property tests,
// plus single-byte-flipped variants, mirroring internal/wire/fuzz_test.go.

// seedWithFlips adds data plus every 16th single-byte-flipped variant
// (the corruption-test mutation, thinned to keep the corpus small).
func seedWithFlips(f *testing.F, data []byte) {
	f.Add(data)
	for pos := 0; pos < len(data); pos += 16 {
		flipped := append([]byte(nil), data...)
		flipped[pos] ^= 0x41
		f.Add(flipped)
	}
}

// FuzzDecode feeds arbitrary bytes to the whole-file decoder: any
// accepted snapshot must re-encode and re-decode to the same value.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 5, 64} {
		data, err := Encode(randSnapshot(rng, n))
		if err != nil {
			f.Fatal(err)
		}
		seedWithFlips(f, data)
	}
	// One multi-chunk file, seeded without flips: flipping a ~75KB seed
	// every 16 bytes would bloat the corpus for no added decoder coverage.
	multi, err := Encode(randSnapshot(rng, wire.MaxStateChunk+3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(multi)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			return
		}
		rt, err := Encode(snap)
		if err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		snap2, err := Decode(rt)
		if err != nil {
			t.Fatalf("re-decode of accepted snapshot failed: %v", err)
		}
		if snap2.Meta != snap.Meta || len(snap2.Tuples) != len(snap.Tuples) {
			t.Fatalf("snapshot round trip diverged: %+v (%d tuples) vs %+v (%d tuples)",
				snap.Meta, len(snap.Tuples), snap2.Meta, len(snap2.Tuples))
		}
	})
}

// FuzzDecodeManifest fuzzes the manifest section decoder in isolation:
// accepted manifests must respect the format bounds and round-trip.
func FuzzDecodeManifest(f *testing.F) {
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 3; i++ {
		snap := randSnapshot(rng, 20*i)
		seedWithFlips(f, EncodeManifest(snap.Meta, i))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, chunks, err := DecodeManifest(payload)
		if err != nil {
			return
		}
		if m.Window > maxWindow || chunks > maxSections {
			t.Fatalf("accepted manifest beyond format bounds: window %d, %d chunks", m.Window, chunks)
		}
		if m.TuplesR > uint64(m.Window) || m.TuplesS > uint64(m.Window) {
			t.Fatalf("accepted manifest with resident tuples beyond the per-side window: %+v", m)
		}
		m2, chunks2, err := DecodeManifest(EncodeManifest(m, chunks))
		if err != nil || m2 != m || chunks2 != chunks {
			t.Fatalf("manifest round trip diverged: %+v/%d vs %+v/%d, err=%v", m, chunks, m2, chunks2, err)
		}
	})
}

// FuzzDecodeChunk fuzzes the state-chunk decoder the checkpoint file's
// state sections and the wire's StateChunk frames share: accepted chunks
// must stay within the chunk bound and round-trip tuple-for-tuple.
func FuzzDecodeChunk(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 33} {
		seedWithFlips(f, wire.AppendStateChunk(nil, randSnapshot(rng, n).Tuples))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		tuples, err := wire.DecodeStateChunk(payload, nil)
		if err != nil {
			return
		}
		if len(tuples) > wire.MaxStateChunk {
			t.Fatalf("accepted chunk of %d tuples beyond MaxStateChunk", len(tuples))
		}
		tuples2, err := wire.DecodeStateChunk(wire.AppendStateChunk(nil, tuples), nil)
		if err != nil || len(tuples2) != len(tuples) {
			t.Fatalf("chunk round trip diverged: %d vs %d tuples, err=%v", len(tuples), len(tuples2), err)
		}
		for i := range tuples {
			if tuples[i] != tuples2[i] {
				t.Fatalf("chunk tuple %d diverged: %+v vs %+v", i, tuples[i], tuples2[i])
			}
		}
	})
}
