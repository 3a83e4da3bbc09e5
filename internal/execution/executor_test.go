package execution

import (
	"fmt"
	"testing"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/ledger"
	"parblockchain/internal/state"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// harness drives a single executor through raw SEGMENT / SEAL / COMMIT
// messages, playing the role of orderers and peer executors.
type harness struct {
	t       *testing.T
	net     *transport.InMemNetwork
	exec    *Executor
	store   *state.KVStore
	ledger  *ledger.Ledger
	orderer transport.Endpoint
	peer    transport.Endpoint // a remote agent identity ("e2")
	commits chan struct {
		block   *types.Block
		results []types.TxResult
	}
	cutter *blockCutter
}

// newHarness builds an executor "e1" that is agent for app1; "e2" is the
// (simulated) agent for app2.
func newHarness(t *testing.T, mutate func(*Config)) *harness {
	t.Helper()
	h := &harness{t: t, cutter: newBlockCutter(0, types.ZeroHash)}
	h.net = transport.NewInMemNetwork(transport.InMemConfig{})
	execEP, _ := h.net.Endpoint("e1")
	h.orderer, _ = h.net.Endpoint("o1")
	h.peer, _ = h.net.Endpoint("e2")
	registry := contract.NewRegistry()
	registry.Install("app1", contract.NewKV())
	h.store = state.NewKVStore()
	h.ledger = ledger.New()
	h.commits = make(chan struct {
		block   *types.Block
		results []types.TxResult
	}, 64)
	cfg := Config{
		ID:       "e1",
		Endpoint: execEP,
		Registry: registry,
		AgentsOf: map[types.AppID][]types.NodeID{
			"app1": {"e1"},
			"app2": {"e2"},
		},
		OrderQuorum: 1,
		Executors:   []types.NodeID{"e1", "e2"},
		Store:       h.store,
		Ledger:      h.ledger,
		Workers:     4,
		Signer:      cryptoutil.NoopSigner{NodeID: "e1"},
		Verifier:    cryptoutil.NoopVerifier{},
		OnCommit: func(block *types.Block, results []types.TxResult) {
			h.commits <- struct {
				block   *types.Block
				results []types.TxResult
			}{block, results}
		},
		Logf: func(string, ...any) {},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	h.exec = New(cfg)
	h.exec.Start()
	t.Cleanup(func() {
		h.exec.Stop()
		h.net.Close()
	})
	return h
}

func kvTx(app types.AppID, ts uint64, key types.Key, val string) *types.Transaction {
	tx := &types.Transaction{
		App:      app,
		Client:   "c1",
		ClientTS: ts,
		Op:       contract.PutOp(key, val),
	}
	tx.ID = types.TxID(fmt.Sprintf("%s-%d", app, ts))
	return tx
}

// sendBlock cuts the next block of the chain and announces it from the
// orderer as one segment plus its seal.
func (h *harness) sendBlock(txns []*types.Transaction) *types.Block {
	h.t.Helper()
	sb := h.cutter.cut(txns, 0, "o1")
	sendBlocks(h.t, func(m any) error { return h.orderer.Send("e1", m) }, sb)
	return &types.Block{Header: sb.seal.Header, Txns: txns}
}

// sendCommit delivers remote agent results for app2 transactions.
func (h *harness) sendCommit(blockNum uint64, results []types.TxResult) {
	h.t.Helper()
	msg := &types.CommitMsg{BlockNum: blockNum, Results: results, Executor: "e2"}
	if err := h.peer.Send("e1", msg); err != nil {
		h.t.Fatal(err)
	}
}

func (h *harness) awaitCommit(timeout time.Duration) ([]types.TxResult, *types.Block) {
	h.t.Helper()
	select {
	case c := <-h.commits:
		return c.results, c.block
	case <-time.After(timeout):
		h.t.Fatal("block did not finalize")
		return nil, nil
	}
}

func TestLocalBlockExecutesAndFinalizes(t *testing.T) {
	h := newHarness(t, nil)
	h.sendBlock([]*types.Transaction{
		kvTx("app1", 1, "a", "1"),
		kvTx("app1", 2, "b", "2"),
	})
	results, _ := h.awaitCommit(5 * time.Second)
	if len(results) != 2 || results[0].Aborted || results[1].Aborted {
		t.Fatalf("results = %+v", results)
	}
	if v, _ := h.store.Get("a"); string(v) != "1" {
		t.Fatal("state not applied")
	}
	if h.ledger.Height() != 1 {
		t.Fatalf("ledger height = %d", h.ledger.Height())
	}
}

func TestDependencyOrderRespected(t *testing.T) {
	h := newHarness(t, nil)
	// tx1 put k=1; tx2 append k+=2 — order matters.
	tx1 := kvTx("app1", 1, "k", "1")
	tx2 := &types.Transaction{
		App: "app1", Client: "c1", ClientTS: 2,
		Op: contract.AppendOp("k", "2"),
	}
	tx2.ID = "app1-2"
	h.sendBlock([]*types.Transaction{tx1, tx2})
	h.awaitCommit(5 * time.Second)
	if v, _ := h.store.Get("k"); string(v) != "12" {
		t.Fatalf("k = %q, want \"12\" (sequential order)", v)
	}
}

func TestRemoteAppBlockNeedsCommitMsgs(t *testing.T) {
	h := newHarness(t, nil)
	remote := kvTx("app2", 1, "r", "v")
	block := h.sendBlock([]*types.Transaction{remote})
	// No local agent for app2: the block must stall until e2's results
	// arrive.
	select {
	case <-h.commits:
		t.Fatal("block finalized without remote results")
	case <-time.After(100 * time.Millisecond):
	}
	h.sendCommit(block.Header.Number, []types.TxResult{{
		TxID: remote.ID, Index: 0,
		Writes: []types.KV{{Key: "r", Val: []byte("v")}},
	}})
	results, _ := h.awaitCommit(5 * time.Second)
	if results[0].Aborted {
		t.Fatal("remote result should commit")
	}
	if v, _ := h.store.Get("r"); string(v) != "v" {
		t.Fatal("remote write not applied")
	}
}

func TestCommitBeforeBlockIsBuffered(t *testing.T) {
	h := newHarness(t, nil)
	remote := kvTx("app2", 1, "r", "v")
	// COMMIT races ahead of the block.
	h.sendCommit(0, []types.TxResult{{
		TxID: remote.ID, Index: 0,
		Writes: []types.KV{{Key: "r", Val: []byte("v")}},
	}})
	time.Sleep(50 * time.Millisecond)
	h.sendBlock([]*types.Transaction{remote})
	results, _ := h.awaitCommit(5 * time.Second)
	if results[0].Aborted {
		t.Fatal("buffered commit lost")
	}
}

func TestCrossAppDependencyGatesExecution(t *testing.T) {
	h := newHarness(t, nil)
	// app2's tx writes k; app1's tx appends to k (depends on it).
	remote := kvTx("app2", 1, "k", "base")
	local := &types.Transaction{
		App: "app1", Client: "c1", ClientTS: 2,
		Op: contract.AppendOp("k", "+local"),
	}
	local.ID = "app1-2"
	block := h.sendBlock([]*types.Transaction{remote, local})
	// The local append must not run before the remote commit arrives.
	select {
	case <-h.commits:
		t.Fatal("finalized early")
	case <-time.After(100 * time.Millisecond):
	}
	h.sendCommit(block.Header.Number, []types.TxResult{{
		TxID: remote.ID, Index: 0,
		Writes: []types.KV{{Key: "k", Val: []byte("base")}},
	}})
	h.awaitCommit(5 * time.Second)
	if v, _ := h.store.Get("k"); string(v) != "base+local" {
		t.Fatalf("k = %q, want remote-then-local composition", v)
	}
}

func TestAbortedTransactionCommitsAsAborted(t *testing.T) {
	h := newHarness(t, nil)
	bad := &types.Transaction{
		App: "app1", Client: "c1", ClientTS: 1,
		Op: types.Operation{Method: "nonexistent"},
	}
	bad.ID = "bad-1"
	good := kvTx("app1", 2, "g", "1")
	h.sendBlock([]*types.Transaction{bad, good})
	results, _ := h.awaitCommit(5 * time.Second)
	if !results[0].Aborted {
		t.Fatal("invalid method must abort")
	}
	if results[1].Aborted {
		t.Fatal("valid txn must commit")
	}
	if h.exec.Stats().TxAborted != 1 {
		t.Fatalf("aborted counter = %d", h.exec.Stats().TxAborted)
	}
}

func TestBlocksFinalizeInOrder(t *testing.T) {
	h := newHarness(t, nil)
	b0txs := []*types.Transaction{kvTx("app1", 1, "x", "0")}
	b1txs := []*types.Transaction{kvTx("app1", 2, "x", "1")}
	h.sendBlock(b0txs)
	h.sendBlock(b1txs)
	_, blk := h.awaitCommit(5 * time.Second)
	if blk.Header.Number != 0 {
		t.Fatalf("first finalized block = %d", blk.Header.Number)
	}
	_, blk = h.awaitCommit(5 * time.Second)
	if blk.Header.Number != 1 {
		t.Fatalf("second finalized block = %d", blk.Header.Number)
	}
	if v, _ := h.store.Get("x"); string(v) != "1" {
		t.Fatal("later block's write must win")
	}
}

// TestOrderQuorumRequiresMatchingAnnouncements: with OrderQuorum = 2 one
// orderer's block — one segment plus its seal — is not enough to act on,
// not even speculatively; the second orderer's matching seal completes
// the quorum and the block finalizes.
func TestOrderQuorumRequiresMatchingAnnouncements(t *testing.T) {
	h := newHarness(t, func(cfg *Config) { cfg.OrderQuorum = 2 })
	o2, _ := h.net.Endpoint("o2")
	sb := h.cutter.cut([]*types.Transaction{kvTx("app1", 1, "q", "v")}, 0, "o1")
	sendBlocks(t, func(m any) error { return h.orderer.Send("e1", m) }, sb)
	select {
	case <-h.commits:
		t.Fatal("single seal must not reach quorum 2")
	case <-time.After(100 * time.Millisecond):
	}
	if got := h.exec.Stats().TxExecuted; got != 0 {
		t.Fatalf("executed %d transactions before the seal quorum", got)
	}
	if err := o2.Send("e1", sb.from("o2").seal); err != nil {
		t.Fatal(err)
	}
	h.awaitCommit(5 * time.Second)
}

// TestOrderQuorumOutvotesEquivocatingOrderer: with OrderQuorum = 2 the
// first orderer to speak sends a one-segment block whose content diverges
// from what o2 and o3 send. The executor must not run the lone orderer's
// stream, must not halt, and must finalize the honest content the seal
// quorum vouches for.
func TestOrderQuorumOutvotesEquivocatingOrderer(t *testing.T) {
	h := newHarness(t, func(cfg *Config) { cfg.OrderQuorum = 2 })
	honestTxns := []*types.Transaction{kvTx("app1", 1, "q", "honest")}
	evilTxns := []*types.Transaction{kvTx("app1", 1, "q", "evil")}
	honest := h.cutter.cut(honestTxns, 0, "o1")
	evil := newBlockCutter(0, types.ZeroHash).cut(evilTxns, 0, "o1")
	sendBlocks(t, func(m any) error { return h.orderer.Send("e1", m) }, evil)
	for _, id := range []types.NodeID{"o2", "o3"} {
		ep, _ := h.net.Endpoint(id)
		sendBlocks(t, func(m any) error { return ep.Send("e1", m) }, honest.from(id))
	}
	_, blk := h.awaitCommit(5 * time.Second)
	if blk.Hash() != (&types.Block{Header: honest.seal.Header}).Hash() {
		t.Fatal("finalized block is not the honest content")
	}
	if v, _ := h.store.Get("q"); string(v) != "honest" {
		t.Fatalf("q = %q, want the honest write", v)
	}
	h.exec.Stop()
	if h.exec.halted {
		t.Fatal("executor halted on a single equivocating orderer")
	}
}

func TestCommitFromNonAgentRejected(t *testing.T) {
	h := newHarness(t, nil)
	remote := kvTx("app2", 1, "r", "v")
	block := h.sendBlock([]*types.Transaction{remote})
	// e1 itself is not an agent of app2, and neither is a random node:
	// deliver a forged commit from an unauthorized identity.
	rogue, _ := h.net.Endpoint("rogue")
	_ = rogue.Send("e1", &types.CommitMsg{
		BlockNum: block.Header.Number,
		Results: []types.TxResult{{TxID: remote.ID, Index: 0,
			Writes: []types.KV{{Key: "r", Val: []byte("evil")}}}},
		Executor: "rogue",
	})
	select {
	case <-h.commits:
		t.Fatal("commit from non-agent accepted")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestTauTwoRequiresTwoMatchingResults(t *testing.T) {
	h := newHarness(t, func(cfg *Config) {
		cfg.AgentsOf = map[types.AppID][]types.NodeID{
			"app1": {"e1"},
			"app2": {"e2", "e3"},
		}
		cfg.Tau = map[types.AppID]int{"app2": 2}
		cfg.Executors = []types.NodeID{"e1", "e2", "e3"}
	})
	e3, _ := h.net.Endpoint("e3")
	remote := kvTx("app2", 1, "r", "v")
	block := h.sendBlock([]*types.Transaction{remote})
	result := types.TxResult{TxID: remote.ID, Index: 0,
		Writes: []types.KV{{Key: "r", Val: []byte("v")}}}
	h.sendCommit(block.Header.Number, []types.TxResult{result})
	select {
	case <-h.commits:
		t.Fatal("tau=2 satisfied by a single result")
	case <-time.After(100 * time.Millisecond):
	}
	_ = e3.Send("e1", &types.CommitMsg{
		BlockNum: block.Header.Number,
		Results:  []types.TxResult{result},
		Executor: "e3",
	})
	h.awaitCommit(5 * time.Second)
}

func TestMismatchedResultsDoNotCommit(t *testing.T) {
	h := newHarness(t, func(cfg *Config) {
		cfg.AgentsOf = map[types.AppID][]types.NodeID{
			"app1": {"e1"},
			"app2": {"e2", "e3"},
		}
		cfg.Tau = map[types.AppID]int{"app2": 2}
		cfg.Executors = []types.NodeID{"e1", "e2", "e3"}
	})
	e3, _ := h.net.Endpoint("e3")
	remote := kvTx("app2", 1, "r", "v")
	block := h.sendBlock([]*types.Transaction{remote})
	h.sendCommit(block.Header.Number, []types.TxResult{{TxID: remote.ID, Index: 0,
		Writes: []types.KV{{Key: "r", Val: []byte("v1")}}}})
	_ = e3.Send("e1", &types.CommitMsg{
		BlockNum: block.Header.Number,
		Results: []types.TxResult{{TxID: remote.ID, Index: 0,
			Writes: []types.KV{{Key: "r", Val: []byte("v2")}}}},
		Executor: "e3",
	})
	select {
	case <-h.commits:
		t.Fatal("divergent results must not reach tau matching")
	case <-time.After(150 * time.Millisecond):
	}
}

func TestEmptyBlockFinalizesImmediately(t *testing.T) {
	h := newHarness(t, nil)
	h.sendBlock(nil)
	results, blk := h.awaitCommit(5 * time.Second)
	if len(results) != 0 || blk.Header.Count != 0 {
		t.Fatalf("empty block mishandled: %+v", blk.Header)
	}
}

func TestChainBlockExecutesSequentially(t *testing.T) {
	h := newHarness(t, nil)
	// A chain of appends on one key: final value encodes the order.
	txns := make([]*types.Transaction, 5)
	for i := range txns {
		tx := &types.Transaction{
			App: "app1", Client: "c1", ClientTS: uint64(i + 1),
			Op: contract.AppendOp("chain", fmt.Sprintf("%d", i)),
		}
		tx.ID = types.TxID(fmt.Sprintf("chain-%d", i))
		txns[i] = tx
	}
	h.sendBlock(txns)
	h.awaitCommit(5 * time.Second)
	if v, _ := h.store.Get("chain"); string(v) != "01234" {
		t.Fatalf("chain = %q, want \"01234\"", v)
	}
}

func TestCommitMsgFlushedOnCrossAppSuccessor(t *testing.T) {
	h := newHarness(t, nil)
	// app1 writes k, app2 reads k: Algorithm 2 must flush app1's result
	// immediately (cross-app successor) rather than batching to block
	// end.
	local := kvTx("app1", 1, "k", "v")
	remote := &types.Transaction{
		App: "app2", Client: "c1", ClientTS: 2,
		Op: contract.AppendOp("k", "+r"),
	}
	remote.ID = "app2-2"
	h.sendBlock([]*types.Transaction{local, remote})
	// e2 (the app2 agent) should receive e1's COMMIT for the local txn
	// even though the block has not finalized.
	deadline := time.After(3 * time.Second)
	for {
		select {
		case msg := <-h.peer.Recv():
			if cm, ok := msg.Payload.(*types.CommitMsg); ok {
				if len(cm.Results) == 1 && cm.Results[0].TxID == local.ID {
					return // flushed as required
				}
			}
		case <-deadline:
			t.Fatal("no COMMIT flush for cross-app dependency")
		}
	}
}

// TestVoteTallyCountsEachAgentOnce pins Algorithm 3's per-agent tally at
// tau = 2: an agent repeating its result, or changing it afterwards,
// never adds a second vote; only a distinct agent's matching result
// completes the quorum, and the committed value is the matched one.
func TestVoteTallyCountsEachAgentOnce(t *testing.T) {
	h := newHarness(t, func(cfg *Config) {
		cfg.AgentsOf = map[types.AppID][]types.NodeID{
			"app1": {"e1"},
			"app2": {"e2", "e3"},
		}
		cfg.Tau = map[types.AppID]int{"app2": 2}
		cfg.Executors = []types.NodeID{"e1", "e2", "e3"}
	})
	e3, _ := h.net.Endpoint("e3")
	remote := kvTx("app2", 1, "r", "v")
	block := h.sendBlock([]*types.Transaction{remote})
	agreed := types.TxResult{TxID: remote.ID, Index: 0,
		Writes: []types.KV{{Key: "r", Val: []byte("v")}}}
	other := types.TxResult{TxID: remote.ID, Index: 0,
		Writes: []types.KV{{Key: "r", Val: []byte("w")}}}
	h.sendCommit(block.Header.Number, []types.TxResult{agreed})
	h.sendCommit(block.Header.Number, []types.TxResult{agreed})
	h.sendCommit(block.Header.Number, []types.TxResult{other})
	select {
	case <-h.commits:
		t.Fatal("one agent's repeated votes reached tau = 2")
	case <-time.After(150 * time.Millisecond):
	}
	_ = e3.Send("e1", &types.CommitMsg{
		BlockNum: block.Header.Number,
		Results:  []types.TxResult{agreed},
		Executor: "e3",
	})
	results, _ := h.awaitCommit(5 * time.Second)
	if len(results) != 1 || results[0].Digest() != agreed.Digest() {
		t.Fatalf("committed %+v, want the matched result %+v", results, agreed)
	}
	if v, _ := h.store.Get("r"); string(v) != "v" {
		t.Fatalf("r = %q, want \"v\"", v)
	}
}
