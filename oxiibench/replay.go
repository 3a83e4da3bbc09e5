package main

import (
	"fmt"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/depgraph"
	"parblockchain/internal/state"
	"parblockchain/internal/types"
)

// cryptoOps is the number of signatures made and checked by the crypto
// replay.
const cryptoOps = 1000

// replay times the dependency-graph, state and crypto layers alone on the
// workload's first ntx seeded transactions, cut into blocks of the
// workload's block size: the same stream the live run received. It also
// returns the digest of the replayed stream.
func replay(sp spec, seed int64, ntx int) (map[string]float64, string, error) {
	gen := newGenerator(sp, seed)
	genesis := gen.Genesis()
	src := newStream(gen)
	txs := make([]*types.Transaction, ntx)
	for i := range txs {
		txs[i] = src.next()
	}
	var blocks [][]*types.Transaction
	for i := 0; i < len(txs); i += sp.BlockTxns {
		blocks = append(blocks, txs[i:min(i+sp.BlockTxns, len(txs))])
	}
	m := make(map[string]float64)

	// depgraph: the orderer's incremental builder, one append per
	// transaction plus Finish per block.
	app := depgraph.NewAppender(depgraph.Standard)
	var appendUs, cpLen, speedup []float64
	for _, b := range blocks {
		start := time.Now()
		for _, tx := range b {
			app.Append(depgraph.RWSet{Reads: tx.Op.Reads, Writes: tx.Op.Writes})
		}
		g := app.Finish()
		appendUs = append(appendUs, us(time.Since(start)))
		cp := g.CriticalPathLen()
		cpLen = append(cpLen, float64(cp))
		speedup = append(speedup, float64(len(b))/float64(max(cp, 1)))
	}
	m["depgraph.append_us_per_block"] = median(appendUs)
	m["depgraph.critical_path_len"] = median(cpLen)
	m["depgraph.ideal_speedup"] = median(speedup)

	// state: one block overlay per block over the committed store, every
	// transaction's writes recorded in block order, then Final; then the
	// store applies the block's net effect. The writes come from running
	// the contract sequentially beforehand, outside the timed part.
	store := state.NewKVStore()
	store.Apply(genesis)
	acct := contract.NewAccounting()
	var recordUs, applyUs []float64
	for _, b := range blocks {
		writes, err := blockWrites(acct, store, b)
		if err != nil {
			return nil, "", err
		}
		start := time.Now()
		ov := state.NewBlockOverlay(store)
		for i, w := range writes {
			ov.Record(i, w)
		}
		delta := ov.Final()
		recordUs = append(recordUs, us(time.Since(start)))
		start = time.Now()
		store.Apply(delta)
		applyUs = append(applyUs, us(time.Since(start)))
	}
	m["state.overlay_record_us_per_block"] = median(recordUs)
	m["state.apply_us_per_block"] = median(applyUs)

	// crypto: ed25519 over the stream's transaction digests, as the client
	// signs and the orderers' key ring verifies them.
	kp := cryptoutil.DeterministicKeyPair(string(clientID))
	ring := cryptoutil.NewKeyRing()
	ring.Add(string(clientID), kp.Public())
	var signUs, verifyUs []float64
	for _, tx := range txs[:min(cryptoOps, len(txs))] {
		d := tx.Digest()
		start := time.Now()
		sig := kp.Sign(d[:])
		signUs = append(signUs, us(time.Since(start)))
		start = time.Now()
		err := ring.Verify(string(clientID), d[:], sig)
		verifyUs = append(verifyUs, us(time.Since(start)))
		if err != nil {
			return nil, "", fmt.Errorf("crypto replay: %w", err)
		}
	}
	m["crypto.sign_us"] = median(signUs)
	m["crypto.verify_us"] = median(verifyUs)
	return m, src.digest(), nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// blockWrites executes a block's transactions one after another and
// returns each one's writes. Every transfer of the workload succeeds.
func blockWrites(c contract.Contract, store state.Reader, block []*types.Transaction) ([][]types.KV, error) {
	view := layered{base: store, top: make(map[types.Key][]byte)}
	out := make([][]types.KV, len(block))
	for i, tx := range block {
		w, err := c.Execute(view, tx.Op)
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", tx.Op.Method, err)
		}
		for _, kv := range w {
			view.top[kv.Key] = kv.Val
		}
		out[i] = w
	}
	return out, nil
}

// layered reads a block's own writes before the committed store.
type layered struct {
	base state.Reader
	top  map[types.Key][]byte
}

func (v layered) Get(key types.Key) ([]byte, bool) {
	if val, ok := v.top[key]; ok {
		return val, true
	}
	return v.base.Get(key)
}
