// Package clustercfg defines the JSON cluster description shared by the
// parnode and parclient binaries: node addresses, application-to-agent
// assignments, and block-cut parameters for a real TCP deployment of
// ParBlockchain.
package clustercfg

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"parblockchain/internal/execution"
	"parblockchain/internal/persist"
	"parblockchain/internal/types"
)

// Config is the on-disk cluster description.
type Config struct {
	// Orderers maps orderer IDs to host:port listen addresses.
	Orderers map[string]string `json:"orderers"`
	// Executors maps executor IDs to listen addresses.
	Executors map[string]string `json:"executors"`
	// Clients maps client IDs to listen addresses (clients listen for
	// commit notifications).
	Clients map[string]string `json:"clients"`
	// Apps maps application IDs to their agent executor IDs.
	Apps map[string][]string `json:"apps"`
	// Observer is the executor that sends commit notifications to
	// clients; defaults to the first executor in sorted order.
	Observer string `json:"observer,omitempty"`
	// Consensus is "kafka", "pbft", or "raft" (default "kafka").
	Consensus string `json:"consensus,omitempty"`
	// BlockTxns is the block-size cut (default 100).
	BlockTxns int `json:"blockTxns,omitempty"`
	// BlockIntervalMs is the timeout cut in milliseconds (default 100).
	BlockIntervalMs int `json:"blockIntervalMs,omitempty"`
	// PipelineDepth bounds each executor's window of in-flight blocks
	// (cross-block pipelined execution). 1 restores the per-block
	// barrier; 0 uses the executor default.
	PipelineDepth int `json:"pipelineDepth,omitempty"`
	// SegmentTxns makes orderers stream blocks to executors in signed
	// segments of this many transactions (plus a closing seal). 0 sends
	// each block as one segment at the cut, then the seal. Every orderer
	// of a cluster must use the same value.
	SegmentTxns int `json:"segmentTxns,omitempty"`
	// Scheduler selects each executor's ready-transaction dispatch
	// policy: "fifo" (default) or "critical-path" (longest remaining
	// dependency chain first); any other name fails Load. Schedulers
	// reorder only the ready set, so committed results are identical
	// under both; nodes of one cluster may even mix policies.
	Scheduler string `json:"scheduler,omitempty"`
	// PrefetchWorkers sizes each executor's read-set prefetch pool:
	// declared read sets of an admitted block are warmed against the
	// overlay chain and state store before execution reaches them,
	// bounded per block by a byte cap. 0 disables prefetching.
	PrefetchWorkers int `json:"prefetchWorkers,omitempty"`
	// Speculate enables the executors' speculative commit-wait bypass:
	// dependent transactions execute against a predecessor's uncommitted
	// (first-vote) result instead of stalling for the tau quorum, with
	// COMMIT multicasts of speculative results buffered until every
	// speculated-upon input commits with a matching digest, and cascade
	// re-execution on mismatch. Safe to enable per node (it changes only
	// local scheduling and vote timing, never committed results).
	Speculate bool `json:"speculate,omitempty"`
	// DataDir roots the durability subsystem: each executor keeps its
	// write-ahead log and state snapshots under DataDir/<node-id>, each
	// orderer its cut-state log under DataDir/<node-id>/olog (and, under
	// raft or kafka consensus, its consensus log and vote/offset state
	// under DataDir/<node-id>/consensus). A restarted executor resumes
	// from its durable height, a restarted orderer resumes cutting at
	// the height after its last fsynced cut, so restarting the whole
	// cluster converges with an always-up one. Empty keeps ledger and
	// state in memory. Relative paths resolve against each node's
	// working directory, so multi-host clusters usually want an absolute
	// path.
	DataDir string `json:"dataDir,omitempty"`
	// FsyncPolicy is "group" (default: one fsync per finalize batch),
	// "always" (one per block), or "never" (page cache only). Ignored
	// without DataDir.
	FsyncPolicy string `json:"fsyncPolicy,omitempty"`
	// SnapshotIntervalBlocks is the number of blocks between state
	// snapshots and WAL truncations (0 = persist default, negative
	// disables snapshots). Ignored without DataDir.
	SnapshotIntervalBlocks int `json:"snapshotIntervalBlocks,omitempty"`
	// StateBackend selects each executor's state store: "memory"
	// (default — everything resident) or "tiered" (byte-budgeted hot
	// cache over a disk cold tier, for state larger than RAM). Committed
	// results and state hashes are identical under both; nodes of one
	// cluster may mix backends.
	StateBackend string `json:"stateBackend,omitempty"`
	// HotTierBytes caps the tiered backend's in-memory hot tier (0 =
	// backend default). Ignored unless StateBackend is "tiered".
	HotTierBytes int64 `json:"hotTierBytes,omitempty"`
	// MinHorizon is each executor's minimum future-buffering horizon in
	// blocks (0 = executor default). Larger values absorb longer skew
	// between orderers and a lagging executor before far-future traffic
	// is dropped; state sync recovers whatever the horizon sheds.
	MinHorizon int `json:"minHorizon,omitempty"`
	// SyncStallMs arms each executor's state-sync watchdog: a node that
	// sees peers announce blocks it cannot admit and makes no pipeline
	// progress for this many milliseconds requests the missing history
	// from peer executors (served from their WALs and snapshots). 0
	// disables the watchdog; serving peers is always on when dataDir is
	// set.
	SyncStallMs int `json:"syncStallMs,omitempty"`
	// OpsAddrs maps node IDs to ops-server listen addresses. A node whose
	// ID appears here serves /metrics (Prometheus text), /statusz (JSON),
	// /healthz, /traces, and net/http/pprof on that address; nodes absent
	// from the map run with telemetry fully disabled (zero overhead).
	OpsAddrs map[string]string `json:"opsAddrs,omitempty"`
	// TraceRing sizes each traced executor's ring of slowest block traces
	// (0 = telemetry default). Tracing itself turns on with the node's
	// ops server; the ring only bounds the /traces postmortem dump.
	TraceRing int `json:"traceRing,omitempty"`
	// Crypto enables deterministic demo keys and full verification.
	Crypto bool `json:"crypto,omitempty"`
	// Genesis seeds each executor's store with account balances.
	Genesis map[string]int64 `json:"genesis,omitempty"`
}

// Load reads and validates a cluster config file.
func Load(path string) (*Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("clustercfg: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, fmt.Errorf("clustercfg: parsing %s: %w", path, err)
	}
	if len(cfg.Orderers) == 0 || len(cfg.Executors) == 0 {
		return nil, fmt.Errorf("clustercfg: %s needs at least one orderer and one executor", path)
	}
	for app, agents := range cfg.Apps {
		for _, agent := range agents {
			if _, ok := cfg.Executors[agent]; !ok {
				return nil, fmt.Errorf("clustercfg: app %s lists unknown executor %s", app, agent)
			}
		}
	}
	if cfg.Observer == "" {
		cfg.Observer = string(cfg.ExecutorIDs()[0])
	}
	if cfg.BlockTxns <= 0 {
		cfg.BlockTxns = 100
	}
	if cfg.BlockIntervalMs <= 0 {
		cfg.BlockIntervalMs = 100
	}
	if cfg.Consensus == "" {
		cfg.Consensus = "kafka"
	}
	if cfg.SegmentTxns < 0 {
		return nil, fmt.Errorf("clustercfg: %s: segmentTxns must be >= 0", path)
	}
	if _, err := persist.ParseFsyncPolicy(cfg.FsyncPolicy); err != nil {
		return nil, fmt.Errorf("clustercfg: %s: %w", path, err)
	}
	if cfg.DataDir == "" && cfg.FsyncPolicy != "" {
		return nil, fmt.Errorf("clustercfg: %s: fsyncPolicy requires dataDir", path)
	}
	if cfg.DataDir == "" && cfg.SnapshotIntervalBlocks != 0 {
		return nil, fmt.Errorf("clustercfg: %s: snapshotIntervalBlocks requires dataDir", path)
	}
	if _, err := execution.ParseScheduler(cfg.Scheduler); err != nil {
		return nil, fmt.Errorf("clustercfg: %s: %w", path, err)
	}
	if !persist.ValidStateBackend(cfg.StateBackend) {
		return nil, fmt.Errorf("clustercfg: %s: unknown stateBackend %q (want %v)",
			path, cfg.StateBackend, persist.StateBackendNames)
	}
	if cfg.HotTierBytes < 0 {
		return nil, fmt.Errorf("clustercfg: %s: hotTierBytes must be >= 0", path)
	}
	if cfg.HotTierBytes != 0 && cfg.StateBackend != "tiered" {
		return nil, fmt.Errorf("clustercfg: %s: hotTierBytes requires stateBackend \"tiered\"", path)
	}
	if cfg.PrefetchWorkers < 0 {
		return nil, fmt.Errorf("clustercfg: %s: prefetchWorkers must be >= 0", path)
	}
	if cfg.MinHorizon < 0 {
		return nil, fmt.Errorf("clustercfg: %s: minHorizon must be >= 0", path)
	}
	if cfg.SyncStallMs < 0 {
		return nil, fmt.Errorf("clustercfg: %s: syncStallMs must be >= 0", path)
	}
	if cfg.TraceRing < 0 {
		return nil, fmt.Errorf("clustercfg: %s: traceRing must be >= 0", path)
	}
	for id := range cfg.OpsAddrs {
		if _, ord := cfg.Orderers[id]; ord {
			continue
		}
		if _, exe := cfg.Executors[id]; exe {
			continue
		}
		return nil, fmt.Errorf("clustercfg: %s: opsAddrs lists %s, which is neither an orderer nor an executor", path, id)
	}
	return &cfg, nil
}

// NodeDataDir returns the durability directory for one node, or "" when
// the cluster runs in memory.
func (c *Config) NodeDataDir(id types.NodeID) string {
	if c.DataDir == "" {
		return ""
	}
	return filepath.Join(c.DataDir, string(id))
}

// OrdererIDs returns the orderer identities in sorted (deterministic)
// order — consensus membership must be identical at every node.
func (c *Config) OrdererIDs() []types.NodeID { return sortedIDs(c.Orderers) }

// ExecutorIDs returns the executor identities in sorted order.
func (c *Config) ExecutorIDs() []types.NodeID { return sortedIDs(c.Executors) }

// BlockInterval returns the timeout cut as a duration.
func (c *Config) BlockInterval() time.Duration {
	return time.Duration(c.BlockIntervalMs) * time.Millisecond
}

// SchedulerKind returns the parsed dispatch scheduler (Load already
// validated the string, so the parse cannot fail here).
func (c *Config) SchedulerKind() execution.SchedulerKind {
	kind, _ := execution.ParseScheduler(c.Scheduler)
	return kind
}

// SyncStallTimeout returns the state-sync watchdog deadline as a
// duration (zero when the watchdog is disabled).
func (c *Config) SyncStallTimeout() time.Duration {
	return time.Duration(c.SyncStallMs) * time.Millisecond
}

// OpsAddr returns the ops-server listen address for one node, or ""
// when the node runs without an ops server.
func (c *Config) OpsAddr(id types.NodeID) string {
	return c.OpsAddrs[string(id)]
}

// AddrBook returns every node's address keyed by identity, the peer map a
// TCP endpoint needs.
func (c *Config) AddrBook() map[types.NodeID]string {
	book := make(map[types.NodeID]string,
		len(c.Orderers)+len(c.Executors)+len(c.Clients))
	for id, addr := range c.Orderers {
		book[types.NodeID(id)] = addr
	}
	for id, addr := range c.Executors {
		book[types.NodeID(id)] = addr
	}
	for id, addr := range c.Clients {
		book[types.NodeID(id)] = addr
	}
	return book
}

// AgentsOf returns the application-to-agents map in node-ID form.
func (c *Config) AgentsOf() map[types.AppID][]types.NodeID {
	out := make(map[types.AppID][]types.NodeID, len(c.Apps))
	for app, agents := range c.Apps {
		ids := make([]types.NodeID, 0, len(agents))
		for _, a := range agents {
			ids = append(ids, types.NodeID(a))
		}
		out[types.AppID(app)] = ids
	}
	return out
}

// GenesisKVs converts the genesis balances to state records.
func (c *Config) GenesisKVs(encode func(int64) []byte) []types.KV {
	keys := make([]string, 0, len(c.Genesis))
	for k := range c.Genesis {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]types.KV, 0, len(keys))
	for _, k := range keys {
		out = append(out, types.KV{Key: k, Val: encode(c.Genesis[k])})
	}
	return out
}

func sortedIDs(m map[string]string) []types.NodeID {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]types.NodeID, len(ids))
	for i, id := range ids {
		out[i] = types.NodeID(id)
	}
	return out
}
