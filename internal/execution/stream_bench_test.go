package execution

import (
	"runtime"
	"testing"
	"time"

	"parblockchain/internal/contract"
)

// BenchmarkOrdererStreaming measures the executor-visible cost of the
// block boundary: the latency from the moment a block's first transaction
// is delivered by consensus to the moment the first transaction has
// executed, on a 200-tx low-contention block. Consensus delivery is paced
// (ordererTxInterval per transaction, slept per segment batch), modeling
// the ordered stream a real orderer consumes. The whole-block path
// (SegmentTxns = 0) cannot show the executor anything until the cut: it
// accumulates all 200 transactions and ships them as one segment plus
// the seal, so the first execution trails the entire ordering span plus
// dissemination. The streaming path emits a signed 16-tx segment (with
// appender-derived incremental edges) as soon as the stream yields one,
// so execution starts ~192 ordering intervals earlier. The reported
// first-exec-ns metric is the acceptance signal recorded in
// BENCH_state.json.
func BenchmarkOrdererStreaming(b *testing.B) {
	const (
		blockTxns = 200
		// 100us per ordered transaction ~ a 10k tx/s consensus stream,
		// the order of the paper's saturated Kafka setup. Coarse enough
		// that per-segment sleeps dominate this host's timer resolution.
		ordererTxInterval = 100 * time.Microsecond
	)
	// pace models consensus delivering a run of transactions: the
	// delivery loop is blocked on the committed-entry channel for their
	// inter-arrival time (slept in one batch per segment to stay above
	// timer resolution).
	pace := func(n int) { time.Sleep(time.Duration(n) * ordererTxInterval) }

	run := func(b *testing.B, segTxns int) {
		r := newBenchRigDepth(b, 8, 4, contract.NewKV())
		var firstExec time.Duration
		executed := uint64(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sb := r.cutter.cut(independentBlock(i, blockTxns), segTxns, "o1")
			start := time.Now()
			// Observe the first execution concurrently with emission: the
			// streamed path executes while later segments are still being
			// ordered, so the observer cannot wait for the emission loop.
			firstExecCh := make(chan time.Duration, 1)
			go func(executed uint64) {
				for r.exec.Stats().TxExecuted <= executed {
					runtime.Gosched() // the interval under measurement is microseconds
				}
				firstExecCh <- time.Since(start)
			}(executed)
			for _, seg := range sb.segs {
				pace(len(seg.Txns)) // a segment leaves once consensus has delivered it
				r.send(b, seg)
			}
			r.send(b, sb.seal)
			firstExec += <-firstExecCh
			<-r.commits
			executed = r.exec.Stats().TxExecuted
		}
		b.StopTimer()
		b.ReportMetric(float64(firstExec.Nanoseconds())/float64(b.N), "first-exec-ns")
	}
	b.Run("whole-block", func(b *testing.B) { run(b, 0) })
	b.Run("segment=16", func(b *testing.B) { run(b, 16) })
}
