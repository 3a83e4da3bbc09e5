package ordering

import (
	"fmt"
	"testing"
	"time"

	"parblockchain/internal/persist"
	"parblockchain/internal/types"
)

// assertSealRoot checks that a delivered seal's header commits to exactly
// the transactions its segments carried, recomputed from their contents.
func assertSealRoot(t *testing.T, nb *delivered) {
	t.Helper()
	h := nb.Seal.Header
	if h.Count != len(nb.Block.Txns) || nb.Seal.Segments != len(nb.Segs) {
		t.Fatalf("block %d: header count %d over %d txns, seal segments %d over %d",
			h.Number, h.Count, len(nb.Block.Txns), nb.Seal.Segments, len(nb.Segs))
	}
	if want := types.TxMerkleRoot(nb.Block.Txns); h.TxRoot != want {
		t.Fatalf("block %d: seal TxRoot %s, Merkle root of the streamed txns %s",
			h.Number, h.TxRoot, want)
	}
}

// rootTx is the i-th transaction of the TxRoot tests: every fifth one
// touches a shared key, so the graph has edges at every segment size.
func rootTx(i int) *types.Transaction {
	key := types.Key(fmt.Sprintf("k%d", i%5))
	return testTx("c1", uint64(i+1), []types.Key{key}, []types.Key{key})
}

// TestSealTxRootMatchesStreamedContent guards the orderer's reuse of the
// per-transaction digests it computes for segment signatures: the seal's
// TxRoot must equal the Merkle root over the transactions reassembled
// from the segments, whether the block goes out whole, one transaction
// per segment, or in full segments plus a partial one — and with the
// pairwise cut-time builder.
func TestSealTxRootMatchesStreamedContent(t *testing.T) {
	for _, tc := range []struct {
		segTxns  int
		pairwise bool
	}{{0, false}, {1, false}, {16, false}, {0, true}} {
		t.Run(fmt.Sprintf("segment=%d/pairwise=%v", tc.segTxns, tc.pairwise), func(t *testing.T) {
			f := newFixture(t, func(cfg *Config) {
				cfg.MaxBlockTxns = 20
				cfg.MaxBlockInterval = 10 * time.Second
				cfg.SegmentTxns = tc.segTxns
				cfg.UsePairwiseGraph = tc.pairwise
			})
			for i := 0; i < 60; i++ {
				f.submit(t, rootTx(i))
			}
			for b := uint64(0); b < 3; b++ {
				nb := f.nextBlock(t, 2*time.Second)
				if nb.Block.Header.Number != b {
					t.Fatalf("block number %d, want %d", nb.Block.Header.Number, b)
				}
				assertSealRoot(t, nb)
			}
		})
	}
}

// TestSealTxRootAcrossDurableReplay kills a durable orderer with a
// partially streamed block pending: the replayed block and the block the
// restarted orderer completes must both seal roots that match their
// streamed content, so no digest survives from before the restart or
// leaks across the cut.
func TestSealTxRootAcrossDurableReplay(t *testing.T) {
	for _, segTxns := range []int{0, 1, 16} {
		t.Run(fmt.Sprintf("segment=%d", segTxns), func(t *testing.T) {
			dir := t.TempDir()
			mutate := func(cfg *Config) {
				cfg.MaxBlockTxns = 20
				cfg.SegmentTxns = segTxns
			}
			f1 := durableFixture(t, dir, persist.FsyncAlways, mutate)
			for i := 0; i < 20; i++ {
				f1.submit(t, rootTx(i))
			}
			assertSealRoot(t, f1.nextBlock(t, 2*time.Second))
			for i := 20; i < 27; i++ {
				f1.submit(t, rootTx(i))
			}
			waitLogAppends(t, f1.orderer, 20+1+7)
			f1.orderer.Kill()

			f2 := durableFixture(t, dir, persist.FsyncAlways, mutate)
			nb0 := f2.nextBlock(t, 2*time.Second)
			if nb0.Block.Header.Number != 0 {
				t.Fatalf("replayed block number %d, want 0", nb0.Block.Header.Number)
			}
			assertSealRoot(t, nb0)
			for i := 27; i < 40; i++ {
				f2.submit(t, rootTx(i))
			}
			nb1 := f2.nextBlock(t, 2*time.Second)
			if nb1.Block.Header.Number != 1 || len(nb1.Block.Txns) != 20 {
				t.Fatalf("post-restart block %d with %d txns, want 1 with 20",
					nb1.Block.Header.Number, len(nb1.Block.Txns))
			}
			assertSealRoot(t, nb1)
		})
	}
}
