package main

import (
	"fmt"
	"time"

	"parblockchain/internal/types"
	"parblockchain/internal/workload"
)

// spec is one workload: the inputs that change between workloads. The
// deployment around it is fixed (see newDeployment).
type spec struct {
	Name string `json:"name"`
	// BlockTxns is the orderers' block-size cut.
	BlockTxns int `json:"block_txns"`
	// Contention is the share of transactions on the single hot account.
	Contention float64 `json:"contention"`
	// SpinCost is the CPU-spin service time of every contract call.
	SpinCost time.Duration `json:"spin_cost_ns"`
	// Crypto turns on ed25519 signing and verification end to end.
	Crypto bool `json:"crypto"`
	// Outstanding is the closed loop's fixed number of transactions in
	// flight.
	Outstanding int `json:"outstanding"`
	// RSSAfterTxns is where peak memory is read: once the measured
	// deployment has committed this many transactions. The ledger is held
	// in memory, so memory grows with the work done; reading it at a fixed
	// amount of work keeps a throughput gain from reading as a memory
	// regression. It is about two thirds of what a run commits.
	RSSAfterTxns int `json:"rss_after_txns"`
}

// specs are the benchmark's workloads. Each loads a different layer:
//   - bigblock loads the state overlay and large-block handling and skips
//     crypto;
//   - signed loads signature checks at orderer ingress and uses the
//     overlay only lightly;
//   - contended runs one hot-account chain, so the wait between dependent
//     transactions, not CPU, limits the executor.
var specs = []spec{
	{Name: "bigblock", BlockTxns: 1000, Contention: 0, Outstanding: 3000, RSSAfterTxns: 60000},
	{Name: "signed", BlockTxns: 100, Contention: 0.2, Crypto: true, Outstanding: 400, RSSAfterTxns: 100000},
	{Name: "contended", BlockTxns: 200, Contention: 0.8, SpinCost: 100 * time.Microsecond, Outstanding: 400, RSSAfterTxns: 100000},
}

func specByName(name string) (spec, error) {
	for _, sp := range specs {
		if sp.Name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// The fixed deployment every workload runs on.
const (
	numOrderers  = 3
	numExecutors = 3
	numApps      = 3
	oneWayDelay  = 250 * time.Microsecond
	clientID     = types.NodeID("c1")
)

func appIDs() []types.AppID {
	apps := make([]types.AppID, numApps)
	for i := range apps {
		apps[i] = types.AppID(fmt.Sprintf("app%d", i+1))
	}
	return apps
}

// newGenerator returns the seeded transaction stream of a workload. The
// cold account pool only needs to dwarf the in-flight window, so it is
// sized like the repository's bench harness sizes it.
func newGenerator(sp spec, seed int64) *workload.Generator {
	return workload.New(workload.Config{
		Apps:               appIDs(),
		Contention:         sp.Contention,
		ColdAccountsPerApp: max(8*sp.BlockTxns, 4096),
		Seed:               seed,
	})
}
