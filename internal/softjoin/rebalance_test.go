package softjoin

import (
	"math/rand"
	"testing"

	"accelstream/internal/core"
	"accelstream/internal/stream"
)

// runShardEngine builds a sharded uni-flow engine, feeds it the workload,
// and returns it closed (drained), with its results discarded.
func runShardEngine(t *testing.T, cfg Config, workload []core.Input) *UniFlow {
	t.Helper()
	e, err := NewUniFlow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range e.Results() {
		}
	}()
	for i := 0; i < len(workload); i += 32 {
		end := i + 32
		if end > len(workload) {
			end = len(workload)
		}
		e.PushBatch(workload[i:end])
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	return e
}

// TestExportStateMatchesResidueWindow checks that a closed sharded engine
// exports exactly the residue-class slice of the global sliding window:
// the last Window arrivals of each side whose sequence ≡ ShardIndex
// (mod ShardCount), in ascending sequence order.
func TestExportStateMatchesResidueWindow(t *testing.T) {
	const (
		shards = 3
		window = 40 // per-shard slice; global window = shards*window = 120
		total  = 500
	)
	rng := rand.New(rand.NewSource(7))
	workload := make([]core.Input, total)
	var nR, nS uint64
	for i := range workload {
		side := stream.SideR
		if rng.Intn(2) == 1 {
			side = stream.SideS
		}
		workload[i] = core.Input{Side: side, Tuple: stream.Tuple{Key: rng.Uint32() % 64, Val: rng.Uint32()}}
		if side == stream.SideR {
			nR++
		} else {
			nS++
		}
	}
	for shard := 0; shard < shards; shard++ {
		e := runShardEngine(t, Config{
			NumCores:   2,
			WindowSize: window,
			ShardCount: shards,
			ShardIndex: shard,
		}, workload)
		state, seqR, seqS, err := e.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if seqR != nR || seqS != nS {
			t.Fatalf("shard %d: seqs (%d,%d), want (%d,%d)", shard, seqR, seqS, nR, nS)
		}
		// Reference: replay the per-side arrival sequence, keep the last
		// `window` members of this shard's residue class.
		want := make(map[stream.Side]map[uint64]uint32)
		for _, side := range []stream.Side{stream.SideR, stream.SideS} {
			keep := make(map[uint64]uint32)
			var order []uint64
			var seq uint64
			for _, in := range workload {
				if in.Side != side {
					continue
				}
				if seq%shards == uint64(shard) {
					keep[seq] = in.Tuple.Key
					order = append(order, seq)
					if len(order) > window {
						delete(keep, order[0])
						order = order[1:]
					}
				}
				seq++
			}
			want[side] = keep
		}
		var lastSeq [2]uint64
		seen := map[stream.Side]int{}
		for _, in := range state {
			if in.Tuple.Seq%shards != uint64(shard) {
				t.Fatalf("shard %d exported seq %d outside its residue class", shard, in.Tuple.Seq)
			}
			sideIdx := 0
			if in.Side == stream.SideS {
				sideIdx = 1
			}
			if seen[in.Side] > 0 && in.Tuple.Seq <= lastSeq[sideIdx] {
				t.Fatalf("shard %d export out of order: %v seq %d after %d", shard, in.Side, in.Tuple.Seq, lastSeq[sideIdx])
			}
			lastSeq[sideIdx] = in.Tuple.Seq
			seen[in.Side]++
			key, ok := want[in.Side][in.Tuple.Seq]
			if !ok || key != in.Tuple.Key {
				t.Fatalf("shard %d exported unexpected %v tuple seq %d key %d", shard, in.Side, in.Tuple.Seq, in.Tuple.Key)
			}
		}
		for _, side := range []stream.Side{stream.SideR, stream.SideS} {
			if seen[side] != len(want[side]) {
				t.Fatalf("shard %d exported %d %v tuples, want %d", shard, seen[side], side, len(want[side]))
			}
		}
	}
}

// TestImportExportRoundTrip re-slices the union of three shards' exports
// onto five shards and checks each new engine re-exports exactly its
// residue class of the same global window: the state-migration invariant
// a grow rebalance relies on.
func TestImportExportRoundTrip(t *testing.T) {
	const (
		oldShards = 3
		newShards = 5
		global    = 120 // divisible by both shard counts
		total     = 700
	)
	rng := rand.New(rand.NewSource(11))
	workload := make([]core.Input, total)
	for i := range workload {
		side := stream.SideR
		if rng.Intn(2) == 1 {
			side = stream.SideS
		}
		workload[i] = core.Input{Side: side, Tuple: stream.Tuple{Key: rng.Uint32() % 64, Val: rng.Uint32()}}
	}
	// Export from the old layout and pool the global window state.
	var pooled []core.Input
	var seqR, seqS uint64
	for shard := 0; shard < oldShards; shard++ {
		e := runShardEngine(t, Config{
			NumCores:   2,
			WindowSize: global / oldShards,
			ShardCount: oldShards,
			ShardIndex: shard,
		}, workload)
		state, sR, sS, err := e.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		pooled = append(pooled, state...)
		seqR, seqS = sR, sS
	}
	// Install each new residue slice and check it round-trips.
	for shard := 0; shard < newShards; shard++ {
		var slice []core.Input
		for _, in := range pooled {
			if in.Tuple.Seq%newShards == uint64(shard) {
				slice = append(slice, in)
			}
		}
		sortStateBySideSeq(slice)
		e, err := NewUniFlow(Config{
			NumCores:   2,
			WindowSize: global / newShards,
			ShardCount: newShards,
			ShardIndex: shard,
			BaseSeqR:   seqR,
			BaseSeqS:   seqS,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ImportState(slice); err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		go func() {
			for range e.Results() {
			}
		}()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		state, _, _, err := e.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if len(state) != len(slice) {
			t.Fatalf("new shard %d re-exported %d tuples, want %d", shard, len(state), len(slice))
		}
		for i := range state {
			if state[i] != slice[i] {
				t.Fatalf("new shard %d tuple %d: got %+v, want %+v", shard, i, state[i], slice[i])
			}
		}
	}
	// Guard rails: imports outside the residue class or beyond the base
	// counters must be rejected.
	e, err := NewUniFlow(Config{
		NumCores: 2, WindowSize: global / newShards,
		ShardCount: newShards, ShardIndex: 1, BaseSeqR: seqR, BaseSeqS: seqS,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := []core.Input{{Side: stream.SideR, Tuple: stream.Tuple{Seq: 0}}} // residue 0, not 1
	if err := e.ImportState(bad); err == nil {
		t.Fatal("ImportState accepted a tuple outside the residue class")
	}
	bad[0].Tuple.Seq = seqR + newShards + 1 - (seqR+newShards+1)%uint64(newShards) + 1 // residue 1, future seq
	for bad[0].Tuple.Seq%newShards != 1 {
		bad[0].Tuple.Seq++
	}
	if bad[0].Tuple.Seq >= seqR {
		if err := e.ImportState(bad); err == nil {
			t.Fatal("ImportState accepted a tuple beyond the base counter")
		}
	}
}

// sortStateBySideSeq orders side-tagged tuples the way SnapshotState emits
// them: all R then all S, ascending sequence within each side.
func sortStateBySideSeq(state []core.Input) {
	lessSide := func(a, b stream.Side) bool { return a == stream.SideR && b == stream.SideS }
	for i := 1; i < len(state); i++ {
		for j := i; j > 0; j-- {
			a, b := state[j-1], state[j]
			if a.Side == b.Side && a.Tuple.Seq > b.Tuple.Seq || lessSide(b.Side, a.Side) {
				state[j-1], state[j] = b, a
			} else {
				break
			}
		}
	}
}
