package main

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parblockchain/internal/consensus/kafkaorder"
	"parblockchain/internal/contract"
	"parblockchain/internal/state"
	"parblockchain/internal/telemetry"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// probe watches every message the in-memory transport sends, through the
// transport's ExtraLatency hook. It is passive: it always adds 0 delay.
type probe struct {
	base          time.Time
	consensusMsgs atomic.Int64
	blockBytes    atomic.Int64

	mu  sync.Mutex
	cut map[uint64]int64 // block number -> first block message send, ns since base
}

func newProbe(base time.Time) *probe {
	return &probe{base: base, cut: make(map[uint64]int64)}
}

// wireSize mirrors the transport's byte counter: a payload's own size
// estimate, or the transport's 128-byte default.
func wireSize(payload any) int64 {
	if s, ok := payload.(transport.Sizer); ok {
		return int64(s.ApproxSize())
	}
	return 128
}

func (p *probe) observe(_, _ types.NodeID, payload any) time.Duration {
	switch m := payload.(type) {
	case *types.NewBlockMsg:
		p.blockBytes.Add(wireSize(m))
		p.markCut(m.Block.Header.Number)
	case *types.BlockSegmentMsg:
		p.blockBytes.Add(wireSize(m))
		p.markCut(m.BlockNum)
	case *types.BlockSealMsg:
		p.blockBytes.Add(wireSize(m))
	case kafkaorder.Forward, kafkaorder.Append, kafkaorder.Ack, kafkaorder.CommitAnn, kafkaorder.Fetch:
		p.consensusMsgs.Add(1)
	}
	return 0
}

func (p *probe) markCut(block uint64) {
	now := int64(time.Since(p.base))
	p.mu.Lock()
	if _, ok := p.cut[block]; !ok {
		p.cut[block] = now
	}
	p.mu.Unlock()
}

// tracedContract wraps the contract every agent runs and times each call.
type tracedContract struct {
	inner  contract.Contract
	base   time.Time
	calls  atomic.Int64
	busyNs atomic.Int64

	mu      sync.Mutex
	hotEnd  int64      // end of the latest hot-account execution
	hotGaps [][2]int64 // (start, idle gap before it) per hot execution
}

// isHot reports whether a transfer draws from the workload's hot account.
func isHot(op types.Operation) bool {
	return len(op.Params) > 0 && strings.Contains(op.Params[0], "/hot")
}

func (c *tracedContract) Execute(view state.Reader, op types.Operation) ([]types.KV, error) {
	start := int64(time.Since(c.base))
	kv, err := c.inner.Execute(view, op)
	end := int64(time.Since(c.base))
	c.calls.Add(1)
	c.busyNs.Add(end - start)
	if isHot(op) {
		c.mu.Lock()
		if c.hotEnd > 0 {
			c.hotGaps = append(c.hotGaps, [2]int64{start, start - c.hotEnd})
		}
		c.hotEnd = end
		c.mu.Unlock()
	}
	return kv, err
}

// traceStages are the executor pipeline stages reported; fsync is left
// out because the benchmark runs without durability.
var traceStages = []string{"admission", "dispatch", "execute", "seal", "finalize", "externalize"}

// layerMetrics computes the traced run's per-layer metrics over its
// window. Ratios per transaction or per block divide by what committed or
// was cut in the window.
func (d *deployment) layerMetrics(w *window) map[string]float64 {
	m := make(map[string]float64)
	c0, c1 := w.c0, w.c1
	committed := float64(max(w.committed, 1))

	// client
	var submits []int64
	for _, per := range d.load.submitNs {
		for _, s := range per {
			if w.contains(s[0]) {
				submits = append(submits, s[1])
			}
		}
	}
	m["client.submit_us_p50"] = quantileOf(submits, 0.5) / 1e3

	// ordering and consensus
	var blocksCut, txnsOrdered, graphNs, rejected float64
	for i := range c1.orderers {
		blocksCut += float64(c1.orderers[i].BlocksCut - c0.orderers[i].BlocksCut)
		graphNs += float64(c1.orderers[i].GraphBuildNanos - c0.orderers[i].GraphBuildNanos)
		rejected += float64(c1.orderers[i].RequestsRejected - c0.orderers[i].RequestsRejected)
	}
	txnsOrdered = float64(c1.orderers[0].TxnsOrdered - c0.orderers[0].TxnsOrdered)
	blocksPerOrderer := float64(c1.orderers[0].BlocksCut - c0.orderers[0].BlocksCut)
	m["ordering.txns_per_block"] = txnsOrdered / max(blocksPerOrderer, 1)
	m["ordering.graph_build_us_per_block"] = graphNs / max(blocksCut, 1) / 1e3
	m["ordering.rejected_frac"] = rejected / float64(max(w.attempted, 1))
	m["consensus.msgs_per_block"] = float64(c1.consensusMsgs-c0.consensusMsgs) / max(blocksPerOrderer, 1)

	// transport
	m["transport.msgs_per_tx"] = float64(c1.msgs-c0.msgs) / committed
	m["transport.bytes_per_tx"] = float64(c1.bytes-c0.bytes) / committed
	m["transport.block_bytes_per_tx"] = float64(c1.blockBytes-c0.blockBytes) / committed

	// Per-transaction split of the latency at the block's first send.
	var toCut, fromCut []int64
	d.probe.mu.Lock()
	d.load.mu.Lock()
	for _, r := range d.load.done {
		if r.aborted || !w.contains(r.commit) {
			continue
		}
		if cut, ok := d.probe.cut[r.block]; ok {
			toCut = append(toCut, cut-r.submit)
			fromCut = append(fromCut, r.commit-cut)
		}
	}
	d.load.mu.Unlock()
	d.probe.mu.Unlock()
	m["ordering.submit_to_cut_ms_p50"] = quantileOf(toCut, 0.5) / 1e6
	m["ordering.submit_to_cut_ms_p99"] = quantileOf(toCut, 0.99) / 1e6
	m["execution.cut_to_commit_ms_p50"] = quantileOf(fromCut, 0.5) / 1e6
	m["execution.cut_to_commit_ms_p99"] = quantileOf(fromCut, 0.99) / 1e6

	// execution and contract
	calls := float64(c1.calls - c0.calls)
	busy := float64(c1.busyNs - c0.busyNs)
	m["execution.exec_calls_per_tx"] = calls / committed
	m["execution.parallelism"] = busy / 1e9 / w.seconds()
	m["contract.us_per_call"] = busy / max(calls, 1) / 1e3
	var gaps []int64
	d.ctr.mu.Lock()
	for _, g := range d.ctr.hotGaps {
		if w.contains(g[0]) {
			gaps = append(gaps, g[1])
		}
	}
	d.ctr.mu.Unlock()
	m["execution.hot_chain_gap_us_p50"] = quantileOf(gaps, 0.5) / 1e3 // 0 without a hot chain
	var dropped, commitMsgs float64
	for i := range c1.execs {
		dropped += float64(c1.execs[i].MsgsDroppedFuture - c0.execs[i].MsgsDroppedFuture)
		commitMsgs += float64(c1.execs[i].CommitMsgsSent - c0.execs[i].CommitMsgsSent)
	}
	blocksCommitted := float64(c1.execs[0].BlocksCommitted - c0.execs[0].BlocksCommitted)
	m["execution.dropped_future"] = dropped
	m["execution.commit_msgs_per_block"] = commitMsgs / max(blocksCommitted, 1)
	for _, s := range traceStages {
		m["execution.stage."+s+"_ms_p50"] = float64(histDelta(c0.stages[s], c1.stages[s]).Quantile(0.5)) / 1e6
	}

	// Go runtime
	m["go.alloc_bytes_per_tx"] = (c1.alloc - c0.alloc) / committed
	if cpu := c1.totalCPU - c0.totalCPU; cpu > 0 {
		m["go.gc_cpu_frac"] = (c1.gcCPU - c0.gcCPU) / cpu
	}
	return m
}

// histDelta returns the observations b holds beyond a, an earlier snapshot
// of the same histogram. Max stays b's, so the top bucket's upper bound
// is only approximate.
func histDelta(a, b telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	for i := range b.Buckets {
		b.Buckets[i] -= a.Buckets[i]
	}
	b.Count -= a.Count
	b.Sum -= a.Sum
	return b
}

// quantileOf returns the nearest-rank q-quantile of unsorted samples, 0
// when there are none.
func quantileOf(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	v, _ := percentile(s, q)
	return float64(v)
}
