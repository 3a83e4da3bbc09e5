//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// counts are only meaningful without it.

package types

import "testing"

// TestDigestsDoNotAllocate is the allocation contract of the hashing hot
// path: every digest builds its preimage in a pooled writer, and a Merkle
// root allocates only its leaf array.
func TestDigestsDoNotAllocate(t *testing.T) {
	tx := benchTx()
	txns := benchTxns(1000)
	preds := make([][]int32, len(txns))
	seg := &BlockSegmentMsg{BlockNum: 3, Seg: 1, Start: 0, Txns: txns, Preds: preds}
	block := NewBlock(3, ZeroHash, txns)
	seal := &BlockSealMsg{Header: block.Header, Segments: 1, Cum: ZeroHash, Apps: []AppID{"app1"}}
	result := &TxResult{TxID: tx.ID, Index: 4, Writes: []KV{{Key: "k", Val: []byte("v")}}}
	digests := make([]Hash, 0, len(txns))

	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Transaction.Digest", 0, func() { _ = tx.Digest() }},
		{"TxResult.Digest", 0, func() { _ = result.Digest() }},
		{"BlockSealMsg.Digest", 0, func() { _ = seal.Digest() }},
		{"BlockSegmentMsg.Digest", 0, func() { _ = seg.Digest() }},
		{"BlockSegmentMsg.DigestTxns", 0, func() { _, digests = seg.DigestTxns(digests[:0]) }},
		{"Block.Hash", 0, func() { _ = block.Hash() }},
		{"ChainSegmentDigest", 0, func() { _ = ChainSegmentDigest(ZeroHash, ZeroHash) }},
		{"TxMerkleRoot", 1, func() { _ = TxMerkleRoot(txns) }},
	} {
		if got := testing.AllocsPerRun(20, c.fn); got > c.max {
			t.Errorf("%s: %.1f allocations per call, want at most %.0f", c.name, got, c.max)
		}
	}
}
