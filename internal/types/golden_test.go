package types_test

import (
	"fmt"
	"testing"

	"parblockchain/internal/depgraph"
	"parblockchain/internal/types"
	"parblockchain/internal/workload"
)

// The golden digests below pin every hash preimage byte for byte: signed
// digests, block identities, and Merkle roots cross node boundaries (and
// live in durable logs), so an encoding change that alters any of them
// splits a mixed-version cluster and invalidates every stored chain. A
// failure here means a preimage changed, never that the constant is stale.

// goldenTx builds the i-th deterministic fixture transaction.
func goldenTx(i int) *types.Transaction {
	a := fmt.Sprintf("acct-%04d", i)
	b := fmt.Sprintf("acct-%04d", i+1)
	return &types.Transaction{
		ID:       types.TxID(fmt.Sprintf("tx-%d", i)),
		App:      "bank",
		Client:   types.NodeID(fmt.Sprintf("client-%d", i%3)),
		ClientTS: uint64(i) + 7,
		Op: types.Operation{
			Method: "transfer",
			Params: []string{a, b, fmt.Sprint(i * 10)},
			Reads:  []types.Key{a, b},
			Writes: []types.Key{a, b},
		},
		SubmitUnixNano: 1700000000000000000 + int64(i),
		Sig:            []byte{byte(i), 1, 2, 3},
	}
}

func goldenTxns(n int) []*types.Transaction {
	txns := make([]*types.Transaction, n)
	for i := range txns {
		txns[i] = goldenTx(i)
	}
	return txns
}

func goldenResult() *types.TxResult {
	return &types.TxResult{
		TxID:        "tx-3",
		Index:       3,
		AbortReason: "excluded from the digest",
		Writes: []types.KV{
			{Key: "acct-0003", Val: []byte("70")},
			{Key: "acct-0004", Val: nil},
		},
	}
}

func goldenSegment() *types.BlockSegmentMsg {
	return &types.BlockSegmentMsg{
		BlockNum: 9,
		Seg:      1,
		Start:    2,
		Txns:     goldenTxns(3),
		Preds:    [][]int32{{0, 1}, {}, {2, 3}},
		Orderer:  "orderer-1",
		Sig:      []byte("excluded"),
	}
}

func goldenSeal() *types.BlockSealMsg {
	return &types.BlockSealMsg{
		Header:   goldenBlock().Header,
		Segments: 2,
		Cum:      types.ChainSegmentDigest(types.ZeroHash, goldenSegment().Digest()),
		Apps:     []types.AppID{"bank", "shop"},
		Orderer:  "orderer-1",
	}
}

func goldenBlock() *types.Block {
	var prev types.Hash
	for i := range prev {
		prev[i] = byte(i)
	}
	return types.NewBlock(9, prev, goldenTxns(5))
}

func TestGoldenDigests(t *testing.T) {
	finalized := goldenTx(1)
	workload.Finalize(finalized, 1700000000123456789, func([]byte) []byte { return nil })

	graph := depgraph.Build([]depgraph.RWSet{
		{Reads: []string{"a"}, Writes: []string{"a"}},
		{Reads: []string{"b"}, Writes: []string{"b"}},
		{Reads: []string{"a", "b"}, Writes: []string{"c"}},
	}, depgraph.Standard)

	cases := []struct {
		name string
		got  string
		want string
	}{
		{"Transaction.Digest", hexOf(goldenTx(0).Digest()), "cf04ef4997eb5791ea79a1493622fd37883cb6b68a6edb8c9068ede86bee28a6"},
		{"Finalize.Digest", hexOf(finalized.Digest()), "c668609a1cf8abb4b40d7ccd7f43b45d9942cdf60e477a556bfda9f97cd070bf"},
		{"Finalize.ID", string(finalized.ID), "c668609a1cf8abb4-client-1"},
		{"TxResult.Digest", hexOf(goldenResult().Digest()), "66f598dc8258933a6e705e0fce26b96441235458f6014bfc70e82f7b4fce4a6e"},
		{"TxResult.Digest/aborted", hexOf((&types.TxResult{TxID: "tx-0", Aborted: true}).Digest()), "8d313a638c196e60ad4286f5e187a62aac4d1b8427a7473366437c223498c3a8"},
		{"Block.Hash", hexOf(goldenBlock().Hash()), "736861291da394e1ab991dcb70861698e6f7ab42b3f08c6b83b5143dabb93b20"},
		{"Block.TxRoot", hexOf(goldenBlock().Header.TxRoot), "685640d2edd95d53025f79257dde8b570ebf228e171277fffae2d6786b65d6df"},
		{"BlockSegmentMsg.Digest", hexOf(goldenSegment().Digest()), "a4901b75d01be0f950222b6d193df6cde2cf8a611e88d196d7ae39fe7cc65277"},
		{"BlockSealMsg.Digest", hexOf(goldenSeal().Digest()), "1aae88d73f03f8fc81da68f5a8edc50c6f1a8a3af2f0cfa4577e7f785b0b2710"},
		{"ChainSegmentDigest", hexOf(goldenSeal().Cum), "1b4f41f84a7c7e9e352032a4f43945fb553b2e868433d56e861ee14d373487ca"},
		{"NewBlockMsg.Digest", hexOf((&types.NewBlockMsg{Block: goldenBlock(), Graph: graph}).Digest()), "f0a905e59ad3d5d4875d03d802b0551806fcd1eec0bdeb246836aef3ce2d5f8a"},
		{"NewBlockMsg.Digest/nograph", hexOf((&types.NewBlockMsg{Block: goldenBlock()}).Digest()), "ca3fe119f0978d51d7ce7ec86fee68d387b407196a6b04bd0c5c837fbf28ca71"},
		{"CommitMsg.Digest", hexOf((&types.CommitMsg{
			BlockNum: 9,
			Results:  []types.TxResult{*goldenResult(), {TxID: "tx-4", Index: 4, Aborted: true}},
			Executor: "executor-2",
		}).Digest()), "c7487336622bbf0ed66bcd6060fd0f861ebdd73af635a7ef9918160cf937838c"},
		{"StateSyncRequestMsg.Digest", hexOf((&types.StateSyncRequestMsg{
			Kind: types.SyncKindSnapshot, From: 12, Chunk: 3, MaxBytes: 1 << 20,
			Requester: "executor-0", Nonce: 99,
		}).Digest()), "14fd761ac42f91563887aa0f1af910364023b19067c8fd352371a68bb8ec4da2"},
		{"StateSyncResponseMsg.Digest", hexOf((&types.StateSyncResponseMsg{
			Nonce: 99, Kind: types.SyncKindRecords, From: 12,
			Records:    [][]byte{[]byte("rec-12"), nil, []byte("rec-14")},
			SnapHeight: 10, ChunkIdx: 1, Chunks: 4, Chunk: []byte("chunk"),
			Height: 15, Responder: "executor-1",
		}).Digest()), "afcf18c59b98769f1a5d0640b0db41d69c787b122943f239d83c004ca573ef6f"},
		{"TxMerkleRoot/1", hexOf(types.TxMerkleRoot(goldenTxns(1))), "cf04ef4997eb5791ea79a1493622fd37883cb6b68a6edb8c9068ede86bee28a6"},
		{"TxMerkleRoot/2", hexOf(types.TxMerkleRoot(goldenTxns(2))), "e470181b9739380402510138cf9eb49d5a78797e770bc508db696bf9e262ea2f"},
		{"TxMerkleRoot/3", hexOf(types.TxMerkleRoot(goldenTxns(3))), "0d4be955a321ae75259d824ffeaa3cb1593ba6a6da4005e2bb4e6e1c38d188d3"},
		{"TxMerkleRoot/7", hexOf(types.TxMerkleRoot(goldenTxns(7))), "874fa45375b8d9283a3988566f3313ba3d881756a1bd5dca317e36b0ef0f62b4"},
		{"TxMerkleRoot/1000", hexOf(types.TxMerkleRoot(goldenTxns(1000))), "9768fb6e38c2a1f3eb396631aeaf55acbd803360ec3ca6adf79f6b529f5e14d7"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestMerkleRootMatchesTxMerkleRoot pins the digest-reuse path orderers
// and executors take: folding the transaction digests they already hold
// must give the root a fresh hash of the transactions gives, and an odd
// level duplicates its trailing node.
func TestMerkleRootMatchesTxMerkleRoot(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 16, 1000} {
		txns := goldenTxns(n)
		leaves := make([]types.Hash, n)
		for i, tx := range txns {
			leaves[i] = tx.Digest()
		}
		if got, want := types.MerkleRoot(leaves), types.TxMerkleRoot(txns); got != want {
			t.Errorf("n=%d: MerkleRoot over digests %s, TxMerkleRoot %s", n, got, want)
		}
	}
	odd := goldenTxns(3)
	padded := append(goldenTxns(3), odd[2])
	if types.TxMerkleRoot(odd) != types.TxMerkleRoot(padded) {
		t.Error("an odd level must duplicate its trailing node")
	}
}

func hexOf(h types.Hash) string { return h.String() }
