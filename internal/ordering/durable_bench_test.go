package ordering

import (
	"fmt"
	"testing"
	"time"

	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/persist"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// BenchmarkOrdererDurable measures the durable log's cost on the block
// cut path: transactions flow client → orderer → consensus → cut →
// segment + seal exactly as in the tests, with the cut-record fsync on the
// critical path when a Dir is mounted. The mem row is the in-memory
// baseline; wal-group fsyncs once per cut (entry records ride the group
// commit), wal-always also fsyncs every entry append. fsyncs/block
// shows the amortization: ~1 for wal-group, ~MaxBlockTxns+1 for
// wal-always.
func BenchmarkOrdererDurable(b *testing.B) {
	modes := []struct {
		name    string
		durable bool
		fsync   persist.FsyncPolicy
	}{
		{"mem", false, persist.FsyncGroup},
		{"wal-group", true, persist.FsyncGroup},
		{"wal-always", true, persist.FsyncAlways},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			dir := ""
			if m.durable {
				dir = b.TempDir()
			}
			benchOrdererCutPath(b, dir, m.fsync)
		})
	}
}

func benchOrdererCutPath(b *testing.B, dir string, fsync persist.FsyncPolicy) {
	const blockTxns = 64
	net := transport.NewInMemNetwork(transport.InMemConfig{})
	defer net.Close()
	ordEP, _ := net.Endpoint("o1")
	execEP, _ := net.Endpoint("e1")
	clientEP, _ := net.Endpoint("c1")
	o, err := New(Config{
		ID:               "o1",
		Endpoint:         ordEP,
		Consensus:        newFakeConsensus(),
		Executors:        []types.NodeID{"e1"},
		Signer:           cryptoutil.NoopSigner{NodeID: "o1"},
		Verifier:         cryptoutil.NoopVerifier{},
		MaxBlockTxns:     blockTxns,
		MaxBlockInterval: 10 * time.Second, // count-driven cuts only
		BuildGraph:       true,
		Dir:              dir,
		Fsync:            fsync,
		Logf:             func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	o.Start()
	defer o.Stop()

	blocks := b.N / blockTxns
	if blocks == 0 {
		blocks = 1
	}
	total := blocks * blockTxns
	done := make(chan struct{})
	go func() {
		defer close(done)
		seen := 0
		for msg := range execEP.Recv() {
			if _, ok := msg.Payload.(*types.BlockSealMsg); ok {
				if seen++; seen == blocks {
					return
				}
			}
		}
	}()

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < total; i++ {
		tx := testTx("c1", uint64(i+1), nil,
			[]types.Key{types.Key(fmt.Sprintf("k%d", i&7))})
		if err := clientEP.Send("o1", &types.RequestMsg{Tx: tx}); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(total)/elapsed.Seconds(), "tx/s")
	if dir != "" {
		b.ReportMetric(float64(o.Stats().LogSyncs)/float64(blocks), "fsyncs/block")
	}
}
