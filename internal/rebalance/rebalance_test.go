package rebalance

import (
	"math/rand"
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// randImage builds a pooled window image the way a coordinator sees it:
// R and S tuples with distinct per-side sequence numbers (a random subset
// of the arrivals, so residue classes are uneven), in shuffled order.
func randImage(rng *rand.Rand) []core.Input {
	var out []core.Input
	for _, side := range []stream.Side{stream.SideR, stream.SideS} {
		seq := uint64(rng.Intn(1000))
		for n := rng.Intn(300); n > 0; n-- {
			seq += 1 + uint64(rng.Intn(4))
			out = append(out, core.Input{Side: side, Tuple: stream.Tuple{
				Key: rng.Uint32() % 50, Val: rng.Uint32(), Seq: seq,
			}})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// checkImageOrder fails unless tuples are all of R, then all of S, with
// strictly ascending sequence numbers within each side.
func checkImageOrder(t *testing.T, tuples []core.Input) {
	t.Helper()
	for i := 1; i < len(tuples); i++ {
		a, b := tuples[i-1], tuples[i]
		if a.Side == stream.SideS && b.Side == stream.SideR {
			t.Fatalf("tuple %d: R after S", i)
		}
		if a.Side == b.Side && a.Tuple.Seq >= b.Tuple.Seq {
			t.Fatalf("tuple %d: %v seq %d follows %d", i, b.Side, b.Tuple.Seq, a.Tuple.Seq)
		}
	}
}

// TestReslicePartitionsByResidue checks, over random images and every
// modulus 1..8, that the slices together hold exactly the input multiset,
// that slice j holds only sequence numbers ≡ j (mod M), and that each
// slice is in the order ImportState requires.
func TestReslicePartitionsByResidue(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		image := randImage(rng)
		for m := 1; m <= 8; m++ {
			want := make(map[core.Input]int, len(image))
			for _, in := range image {
				want[in]++
			}
			slices := Reslice(append([]core.Input(nil), image...), m)
			if len(slices) != m {
				t.Fatalf("modulus %d: %d slices", m, len(slices))
			}
			for j, slice := range slices {
				checkImageOrder(t, slice)
				for _, in := range slice {
					if in.Tuple.Seq%uint64(m) != uint64(j) {
						t.Fatalf("modulus %d: seq %d in slice %d", m, in.Tuple.Seq, j)
					}
					if want[in] == 0 {
						t.Fatalf("modulus %d: slice %d holds %+v beyond the input", m, j, in)
					}
					want[in]--
				}
			}
			for in, n := range want {
				if n != 0 {
					t.Fatalf("modulus %d: %+v missing from the slices", m, in)
				}
			}
		}
	}
}

// TestResliceModulusOneIsGlobalOrder: a single slice is the whole image in
// global order, all of R then all of S by ascending sequence — the order
// the shard router's coordinated snapshot returns and a checkpoint stores.
func TestResliceModulusOneIsGlobalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		image := randImage(rng)
		got := Reslice(append([]core.Input(nil), image...), 1)[0]
		if len(got) != len(image) {
			t.Fatalf("%d tuples, want %d", len(got), len(image))
		}
		checkImageOrder(t, got)
	}
	if got := Reslice(nil, 1); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty image: got %v", got)
	}
}

// TestEffectiveWindow pins the per-core rounding of each shard's slice
// and the cases where the rounding cannot apply and the window is kept.
func TestEffectiveWindow(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		window, shards, cores int
		want                  int
	}{
		{"divides evenly", 1 << 12, 4, 8, 1 << 12},
		{"single shard single core", 100, 1, 1, 100},
		{"slice rounds up to cores", 120, 4, 8, 4 * 32},
		{"slice smaller than cores", 12, 4, 8, 4 * 8},
		{"one shard rounds up", 10, 1, 4, 12},
		{"default cores is a no-op", 120, 4, 0, 120},
		{"negative cores is a no-op", 120, 4, -1, 120},
		{"no shards is a no-op", 120, 0, 8, 120},
		{"indivisible window is a no-op", 10, 3, 2, 10},
	} {
		if got := EffectiveWindow(tc.window, tc.shards, tc.cores); got != tc.want {
			t.Errorf("%s: EffectiveWindow(%d, %d, %d) = %d, want %d",
				tc.name, tc.window, tc.shards, tc.cores, got, tc.want)
		}
	}
}
