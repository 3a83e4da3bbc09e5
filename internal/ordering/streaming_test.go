package ordering

import (
	"sync"
	"testing"
	"time"

	"parblockchain/internal/consensus"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/depgraph"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// TestStreamingSegmentsReassembleToMonolithicBlock is the orderer-side
// streaming contract: the segments plus the seal must reassemble to
// exactly the block and graph a whole-block build produces — same
// transactions, same header (hence same hash chain), same edges as
// depgraph.Build, and a cumulative digest that matches recomputing the
// chain over the received segments.
func TestStreamingSegmentsReassembleToMonolithicBlock(t *testing.T) {
	f := newFixture(t, func(cfg *Config) {
		cfg.MaxBlockTxns = 5
		cfg.SegmentTxns = 2
	})
	// Conflicting transactions so the graph is non-trivial: a write chain
	// on k plus an independent key.
	for i := 0; i < 5; i++ {
		key := types.Key("k")
		if i == 3 {
			key = "independent"
		}
		f.submit(t, testTx("c1", uint64(i+1), []types.Key{key}, []types.Key{key}))
	}
	nb := f.nextBlock(t, 2*time.Second)
	segs, seal := nb.Segs, nb.Seal

	// 5 txns at 2 per segment: 2 full segments + 1 final partial.
	if len(segs) != 3 || seal.Segments != 3 {
		t.Fatalf("got %d segments, seal says %d, want 3", len(segs), seal.Segments)
	}
	var txns []*types.Transaction
	var preds [][]int32
	cum := types.ZeroHash
	for i, seg := range segs {
		if seg.Seg != i || seg.Start != len(txns) {
			t.Fatalf("segment %d misnumbered: seg=%d start=%d", i, seg.Seg, seg.Start)
		}
		txns = append(txns, seg.Txns...)
		preds = append(preds, seg.Preds...)
		cum = types.ChainSegmentDigest(cum, seg.Digest())
	}
	if cum != seal.Cum {
		t.Fatal("cumulative digest over received segments does not match seal")
	}
	block := &types.Block{Header: seal.Header, Txns: txns}
	if !block.VerifyTxRoot() || seal.Header.Count != len(txns) {
		t.Fatal("seal header does not commit to the streamed transactions")
	}
	// Edges must equal the whole-block builder's output.
	sets := make([]depgraph.RWSet, len(txns))
	for i, tx := range txns {
		sets[i] = depgraph.RWSet{Reads: tx.Op.Reads, Writes: tx.Op.Writes}
		sets[i].Normalize()
	}
	want := depgraph.Build(sets, depgraph.Standard)
	got := depgraph.FromPreds(preds)
	if err := got.Validate(); err != nil {
		t.Fatalf("streamed graph invalid: %v", err)
	}
	if got.EdgeCount() != want.EdgeCount() || got.EdgeCount() == 0 {
		t.Fatalf("streamed graph has %d edges, whole-block build %d",
			got.EdgeCount(), want.EdgeCount())
	}
	for i := range want.Succ {
		for _, j := range want.Succ[i] {
			if !got.HasEdge(i, int(j)) {
				t.Fatalf("streamed graph missing edge %d->%d", i, j)
			}
		}
	}
	if f.orderer.Stats().SegmentsSent != 3 {
		t.Fatalf("SegmentsSent = %d", f.orderer.Stats().SegmentsSent)
	}
}

// TestStreamingHashChainAcrossSeals checks consecutive seals chain.
func TestStreamingHashChainAcrossSeals(t *testing.T) {
	f := newFixture(t, func(cfg *Config) {
		cfg.MaxBlockTxns = 2
		cfg.SegmentTxns = 1
	})
	for i := 0; i < 4; i++ {
		f.submit(t, testTx("c1", uint64(i+1), nil, []types.Key{"k"}))
	}
	seal0 := f.nextBlock(t, 2*time.Second).Seal
	seal1 := f.nextBlock(t, 2*time.Second).Seal
	b0 := &types.Block{Header: seal0.Header}
	if seal1.Header.PrevHash != b0.Hash() {
		t.Fatal("hash chain broken between streamed blocks")
	}
}

// TestSeenTxSurvivesRotation is the regression test for the dedupe reset
// bug: the old wholesale `make(map...)` reset forgot the IDs of the block
// just cut, so a late consensus retry could re-order a recent
// transaction. The two-generation rotation must keep rejecting it.
func TestSeenTxSurvivesRotation(t *testing.T) {
	f := newFixture(t, func(cfg *Config) { cfg.MaxBlockTxns = 2 })
	// 4*MaxBlockTxns = 8: the rotation triggers at the cut that brings
	// seenCur to 8 IDs. Run well past it and retry a transaction from the
	// block just cut after every cut.
	// 20 transactions cross both the old reset threshold (len > 16) and
	// several two-generation rotations (len(cur) >= 8), so the old code's
	// forget-and-reorder bug manifests as a duplicate block here.
	var all []*types.Transaction
	var blocks []*delivered
	for i := 0; i < 20; i++ {
		tx := testTx("c1", uint64(i+1), nil, []types.Key{"k"})
		all = append(all, tx)
		f.submit(t, tx)
		if i%2 == 1 {
			// Block boundary: wait for the cut, then replay both of its
			// transactions (a consensus retry delivers the same payload
			// again).
			blocks = append(blocks, f.nextBlock(t, 2*time.Second))
			f.submit(t, all[i-1])
			f.submit(t, all[i])
		}
	}
	// Flush one more block so any wrongly re-ordered duplicate would have
	// been cut by now.
	f.submit(t, testTx("c1", 100, nil, []types.Key{"k"}))
	f.submit(t, testTx("c1", 101, nil, []types.Key{"k"}))
	blocks = append(blocks, f.nextBlock(t, 5*time.Second))
	seen := make(map[types.TxID]int)
	for _, nb := range blocks {
		for _, tx := range nb.Block.Txns {
			seen[tx.ID]++
			if seen[tx.ID] > 1 {
				t.Fatalf("transaction %s ordered twice after dedupe rotation", tx.ID)
			}
		}
	}
}

// TestNonCanonicalAccessSetsDropped: access sets are covered by the
// client signature, so the orderer cannot repair them — transactions
// with unsorted or duplicated read/write sets are dropped before they
// reach graph generation, deterministically on every orderer.
func TestNonCanonicalAccessSetsDropped(t *testing.T) {
	f := newFixture(t, nil)
	bad := testTx("c1", 1, []types.Key{"b", "a"}, []types.Key{"k", "k"})
	f.submit(t, bad)
	select {
	case msg := <-f.exec.Recv():
		t.Fatalf("non-canonical transaction was ordered: %+v", msg)
	case <-time.After(100 * time.Millisecond):
	}
	good := testTx("c1", 2, []types.Key{"a", "b"}, []types.Key{"k"})
	f.submit(t, good)
	nb := f.nextBlock(t, 2*time.Second)
	if len(nb.Block.Txns) != 1 || nb.Block.Txns[0].ID != good.ID {
		t.Fatalf("canonical transaction missing from block: %+v", nb.Block.Txns)
	}
}

// broadcastConsensus delivers one scripted, totally ordered entry stream
// to every subscribed orderer — the shared consensus log two orderers of
// one ordering service observe.
type broadcastConsensus struct {
	mu   sync.Mutex
	seq  uint64
	subs []*consensus.DeliveryQueue
}

func (b *broadcastConsensus) append(payload []byte) {
	b.mu.Lock()
	b.seq++
	seq := b.seq
	subs := append([]*consensus.DeliveryQueue(nil), b.subs...)
	b.mu.Unlock()
	for _, q := range subs {
		q.Push(consensus.Entry{Seq: seq, Payload: payload})
	}
}

// member is one orderer's view of the broadcast consensus.
type member struct {
	parent *broadcastConsensus
	q      *consensus.DeliveryQueue
}

func (b *broadcastConsensus) join() *member {
	m := &member{parent: b, q: consensus.NewDeliveryQueue()}
	b.mu.Lock()
	b.subs = append(b.subs, m.q)
	b.mu.Unlock()
	return m
}

func (m *member) Start() {}
func (m *member) Submit(payload []byte) error {
	m.parent.append(payload)
	return nil
}
func (m *member) Step(types.NodeID, any)            {}
func (m *member) Committed() <-chan consensus.Entry { return m.q.Out() }
func (m *member) Stop()                             { m.q.Close() }

var _ consensus.Node = (*member)(nil)

// TestTimeoutCutDeterministicAcrossOrderers scripts the exact race the
// consensus-ordered cut marker exists for: the marker for block 0 is
// delivered *between* new transactions, so a naive local-timeout cut
// would give the two orderers different blocks. Both orderers consume
// the identical entry stream and must cut identical blocks — same
// hashes, same graphs — including ignoring a stale marker replayed after
// the cut.
func TestTimeoutCutDeterministicAcrossOrderers(t *testing.T) {
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()
	execEP, _ := net.Endpoint("e1")
	shared := &broadcastConsensus{}

	makeOrderer := func(id types.NodeID) *Orderer {
		ep, _ := net.Endpoint(id)
		o, err := New(Config{
			ID:        id,
			Endpoint:  ep,
			Consensus: shared.join(),
			Executors: []types.NodeID{"e1"},
			Signer:    cryptoutil.NoopSigner{NodeID: string(id)},
			Verifier:  cryptoutil.NoopVerifier{},
			// Huge thresholds: every cut in this test comes from a marker.
			MaxBlockTxns:     1000,
			MaxBlockInterval: time.Hour,
			BuildGraph:       true,
			Logf:             func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		o.Start()
		return o
	}
	o1 := makeOrderer("o1")
	o2 := makeOrderer("o2")
	defer o1.Stop()
	defer o2.Stop()

	tx := func(ts uint64) []byte {
		return encodeTxPayload(testTx("c1", ts, []types.Key{"k"}, []types.Key{"k"}))
	}
	// Block 0 forms with tx 1; o1's timer "fires" (marker submitted) but
	// txs 2 and 3 race past it in consensus order. Every orderer must cut
	// block 0 = {1,2,3} at the marker. The stale replay of the block-0
	// marker after the cut must be ignored by both. A second marker then
	// cuts block 1 = {4}.
	shared.append(tx(1))
	shared.append(tx(2))
	shared.append(tx(3))
	shared.append(encodeCutPayload(0, "o1"))
	shared.append(encodeCutPayload(0, "o1")) // stale duplicate
	shared.append(tx(4))
	shared.append(encodeCutPayload(1, "o2")) // any orderer may request

	type key struct {
		num  uint64
		from types.NodeID
	}
	got := make(map[key]*delivered)
	reader := newBlockReader(execEP)
	for len(got) < 4 {
		nb := reader.next(5 * time.Second)
		if nb == nil {
			t.Fatalf("received %d of 4 blocks: %v", len(got), got)
		}
		k := key{nb.Block.Header.Number, nb.From}
		if prev, dup := got[k]; dup {
			t.Fatalf("orderer %s cut block %d twice (hashes %v / %v)",
				nb.From, k.num, prev.Block.Hash(), nb.Block.Hash())
		}
		got[k] = nb
	}
	for _, num := range []uint64{0, 1} {
		a, b := got[key{num, "o1"}], got[key{num, "o2"}]
		if a == nil || b == nil {
			t.Fatalf("block %d missing from an orderer", num)
		}
		if a.Block.Hash() != b.Block.Hash() {
			t.Fatalf("block %d hashes diverge across orderers", num)
		}
		if a.Seal.Digest() != b.Seal.Digest() {
			t.Fatalf("block %d seal digests (segment content) diverge", num)
		}
	}
	if n := len(got[key{0, "o1"}].Block.Txns); n != 3 {
		t.Fatalf("block 0 has %d txns, want 3 (marker raced the stream)", n)
	}
	if n := len(got[key{1, "o1"}].Block.Txns); n != 1 {
		t.Fatalf("block 1 has %d txns, want 1", n)
	}
}
