// Package oxii assembles ParBlockchain networks: it wires the ordering
// service (pluggable consensus + block cutting + dependency-graph
// generation) and the executor fleet (Algorithms 1-3) over a transport,
// generates node keys, installs contracts on each application's agents,
// seeds genesis state, and provides the client driver used by examples
// and benchmarks.
//
// This package is the system-level entry point of the reproduction: a
// handful of lines create a full ParBlockchain deployment in-process.
package oxii

import (
	"fmt"
	"path/filepath"
	"time"

	"parblockchain/internal/consensus"
	"parblockchain/internal/consensus/kafkaorder"
	"parblockchain/internal/consensus/pbft"
	"parblockchain/internal/consensus/raft"
	"parblockchain/internal/contract"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/depgraph"
	"parblockchain/internal/execution"
	"parblockchain/internal/ledger"
	"parblockchain/internal/ordering"
	"parblockchain/internal/persist"
	"parblockchain/internal/state"
	"parblockchain/internal/telemetry"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

// ConsensusKind selects the pluggable ordering protocol.
type ConsensusKind string

// The supported consensus plugs.
const (
	// ConsensusPBFT is Byzantine fault tolerant (3f+1).
	ConsensusPBFT ConsensusKind = "pbft"
	// ConsensusRaft is crash fault tolerant (2f+1).
	ConsensusRaft ConsensusKind = "raft"
	// ConsensusKafka is the Kafka-style ordering service of the paper's
	// evaluation setup.
	ConsensusKafka ConsensusKind = "kafka"
)

// Config describes a ParBlockchain deployment.
type Config struct {
	// Orderers names the ordering service members.
	Orderers []types.NodeID
	// Executors names all executor peers (agents and passive nodes).
	Executors []types.NodeID
	// Clients names the client identities (keys are generated for them so
	// orderers can verify request signatures).
	Clients []types.NodeID
	// Agents maps each application to its agent subset of Executors
	// (Sigma in the paper). Every agent gets the application's contract
	// installed.
	Agents map[types.AppID][]types.NodeID
	// Contracts maps each application to its contract logic.
	Contracts map[types.AppID]contract.Contract
	// Tau is the per-application required number of matching results;
	// missing entries default to 1.
	Tau map[types.AppID]int
	// Consensus picks the ordering protocol. Default ConsensusKafka (the
	// paper's evaluation setup).
	Consensus ConsensusKind
	// ConsensusBatch tunes batching inside consensus.
	ConsensusBatch consensus.BatchConfig
	// MaxBlockTxns, MaxBlockBytes, MaxBlockInterval are the three block
	// cut conditions (defaults 200 / 2MB / 100ms).
	MaxBlockTxns     int
	MaxBlockBytes    int
	MaxBlockInterval time.Duration
	// GraphMode selects the dependency rule (default Standard).
	GraphMode depgraph.Mode
	// UsePairwiseGraph selects the paper-faithful O(n^2) graph builder.
	UsePairwiseGraph bool
	// EagerCommit selects Algorithm 2's eager per-transaction multicast.
	EagerCommit bool
	// Speculate lets executors run dependent transactions against a
	// predecessor's uncommitted result (the first vote any agent reports)
	// instead of stalling for the tau(A) quorum, re-validating at commit
	// and cascading re-execution on a digest mismatch. COMMIT multicasts
	// of speculative results are buffered until every speculated-upon
	// input has committed with a matching digest, so ledger and state are
	// bit-identical to the non-speculative path in fault-free runs.
	Speculate bool
	// ExecWorkers sizes each executor's worker pool (default 8).
	ExecWorkers int
	// Scheduler selects each executor's ready-transaction dispatch policy:
	// FIFO (the paper's baseline) or critical-path (longest remaining
	// dependency chain first). Schedulers reorder only the ready set, so
	// ledger and state are bit-identical under both; the zero value is
	// FIFO.
	Scheduler execution.SchedulerKind
	// PrefetchWorkers sizes each executor's read-set prefetch pool: as a
	// block is admitted, its declared read sets are warmed against the
	// overlay chain and the state store before workers reach them, bounded
	// per block by a byte cap. Zero disables prefetching.
	PrefetchWorkers int
	// PipelineDepth bounds each executor's window of in-flight blocks:
	// blocks stream through execution while earlier blocks are still
	// committing, with cross-block conflicts stitched into the dependency
	// graph. 1 restores the paper's strict per-block barrier; zero means
	// the executor default (4). Finalization order and final state are
	// identical at every depth.
	PipelineDepth int
	// SegmentTxns makes the orderers stream each block to the executors
	// in signed segments of this many transactions (with incrementally
	// generated dependency edges) as consensus delivers them, closed by a
	// small seal message. Executors begin executing a block's early
	// transactions while its tail is still being ordered; finalization
	// still waits for a quorum of matching seals, so ledger and state are
	// identical at every segment size. Zero sends each block as one
	// segment at the cut, then the seal.
	SegmentTxns int
	// DataDir roots the durability subsystem. Each executor keeps a
	// write-ahead log of finalized blocks and periodic state snapshots
	// under DataDir/<executor-id>; each orderer keeps its cut-state log
	// under DataDir/<orderer-id>/olog and — under Raft or Kafka — its
	// consensus log and vote/offset state under
	// DataDir/<orderer-id>/consensus, all through the same persist
	// layer. A rebuilt Network on the same directory resumes every
	// executor from its durable height and every orderer cutting at
	// height N+1, so a full-cluster restart converges bit-identically to
	// an always-up cluster. Empty keeps everything in memory, exactly as
	// before the subsystem existed.
	//
	// Under PBFT the consensus instance itself stays in-memory (view
	// state is not persisted); the orderers' cut-state logs still
	// recover block numbers, dedupe generations, and pending
	// transactions, and consensus re-orders in-flight traffic.
	DataDir string
	// FsyncPolicy selects when WAL appends reach stable storage (group,
	// always, or never); empty means group — one fsync per finalize
	// batch, so pipelined blocks amortize the durability cost. Ignored
	// without DataDir.
	FsyncPolicy persist.FsyncPolicy
	// SnapshotInterval is the number of blocks between state snapshots
	// (and WAL truncations); zero uses the persist default. Ignored
	// without DataDir.
	SnapshotInterval int
	// SegmentBytes is each executor's WAL segment roll threshold; zero
	// uses the persist default. Small values make WAL truncation
	// aggressive, which (with SnapshotInterval) controls how far back
	// peers can serve state-sync records before falling back to
	// snapshots. Ignored without DataDir.
	SegmentBytes int
	// StateBackend selects each executor's committed-state store: "" or
	// "memory" for the all-in-RAM KVStore, "tiered" for a byte-budgeted
	// hot cache over disk-resident cold segments (state larger than
	// RAM). With DataDir the cold tier lives under the executor's data
	// directory and snapshots become backend-native; without DataDir a
	// tiered store uses a private temp directory, removed when the
	// network stops. Ledger and state are bit-identical across backends.
	StateBackend string
	// HotTierBytes budgets the tiered backend's hot cache per executor;
	// zero uses the state package default. Ignored by the memory backend.
	HotTierBytes int64
	// MinHorizon sets each executor's minimum future-buffering horizon in
	// blocks; zero uses the executor default. Larger values absorb longer
	// orderer/executor skew before far-future traffic is dropped, at the
	// cost of buffered memory on lagging nodes.
	MinHorizon int
	// SyncStallTimeout arms each executor's state-sync watchdog: a node
	// that sees peers announce blocks it cannot admit, and makes no
	// pipeline progress for this long, requests the missing history from
	// peer executors (serving from their WAL and snapshots when DataDir
	// is set). Zero disables the watchdog; serving peers' requests is
	// always on when durability is.
	SyncStallTimeout time.Duration
	// Trace enables block-lifecycle tracing on every executor: per-stage
	// latency histograms (admission through externalize) plus a ring of
	// the slowest traces. Off, executors carry a nil tracer and the
	// instrumentation costs nothing — not even a clock read.
	Trace bool
	// TraceRing sizes each tracer's slowest-blocks ring (0 = telemetry
	// default). Ignored unless tracing is on.
	TraceRing int
	// OpsAddrs maps node IDs to ops-server listen addresses (":0" picks a
	// free port). A node listed here serves /metrics, /statusz, /healthz,
	// /traces, and pprof from Start until Stop; listed executors are
	// traced as if Trace were set. Nodes absent from the map get no
	// server and no telemetry registry.
	OpsAddrs map[types.NodeID]string
	// Crypto enables ed25519 signing and verification end to end. When
	// false, no-op signers model the crypto-free ablation.
	Crypto bool
	// ACL restricts client/application pairs; nil allows all.
	ACL *ordering.AccessControl
	// Genesis seeds every executor's state store before startup.
	Genesis []types.KV
	// OnCommit observes finalized blocks at the observer executor
	// (Executors[0]); used for metrics and client completion routing.
	OnCommit execution.CommitHook
	// Net is the transport; required.
	Net *transport.InMemNetwork
	// Logf receives diagnostics; nil uses the stdlib logger.
	Logf func(format string, args ...any)
}

// Network is a running ParBlockchain deployment.
type Network struct {
	cfg       Config
	Orderers  []*ordering.Orderer
	Executors []*execution.Executor
	// Stores and Ledgers are indexed like cfg.Executors. Stop closes the
	// stores (releasing a tiered backend's cold-tier files), so read
	// anything you need — hashes stay readable, cold values do not —
	// before stopping the network.
	Stores  []state.Backend
	Ledgers []*ledger.Ledger
	// Persists holds each executor's durability manager (nil entries
	// without Config.DataDir), indexed like cfg.Executors; Stop closes
	// them after the executors quiesce.
	Persists []*persist.Manager
	// Recovered holds each executor's recovery provenance (snapshot
	// height, WAL records replayed) when DataDir is set, for logs and
	// tests; nil entries otherwise.
	Recovered  []*persist.Recovered
	signers    map[types.NodeID]cryptoutil.Signer
	keyring    *cryptoutil.KeyRing
	clients    map[types.NodeID]*Client
	router     *CommitRouter
	opsServers map[types.NodeID]*telemetry.Server
}

// New builds a ParBlockchain network. Call Start to run it.
func New(cfg Config) (*Network, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("oxii: Config.Net is required")
	}
	if len(cfg.Orderers) == 0 || len(cfg.Executors) == 0 {
		return nil, fmt.Errorf("oxii: need at least one orderer and one executor")
	}
	if cfg.Consensus == "" {
		cfg.Consensus = ConsensusKafka
	}
	if !persist.ValidStateBackend(cfg.StateBackend) {
		return nil, fmt.Errorf("oxii: unknown state backend %q (want one of %v)",
			cfg.StateBackend, persist.StateBackendNames)
	}
	for app, agents := range cfg.Agents {
		if len(agents) == 0 {
			return nil, fmt.Errorf("oxii: application %s has no agents", app)
		}
		if _, ok := cfg.Contracts[app]; !ok {
			return nil, fmt.Errorf("oxii: application %s has no contract", app)
		}
	}

	nw := &Network{
		cfg:        cfg,
		signers:    make(map[types.NodeID]cryptoutil.Signer),
		keyring:    cryptoutil.NewKeyRing(),
		clients:    make(map[types.NodeID]*Client),
		router:     NewCommitRouter(),
		opsServers: make(map[types.NodeID]*telemetry.Server),
	}

	// Keys for every identity in the deployment.
	all := make([]types.NodeID, 0, len(cfg.Orderers)+len(cfg.Executors)+len(cfg.Clients))
	all = append(all, cfg.Orderers...)
	all = append(all, cfg.Executors...)
	all = append(all, cfg.Clients...)
	for _, id := range all {
		if cfg.Crypto {
			kp, err := cryptoutil.GenerateKeyPair(string(id))
			if err != nil {
				return nil, err
			}
			nw.keyring.Add(string(id), kp.Public())
			nw.signers[id] = kp
		} else {
			nw.signers[id] = cryptoutil.NoopSigner{NodeID: string(id)}
		}
	}
	// closePersists releases every durability manager and store opened so
	// far, so a construction failure on any later path leaks no WAL
	// segment or cold-tier handles (and a retried New starts from clean
	// directories).
	closePersists := func() {
		for _, m := range nw.Persists {
			if m != nil {
				m.Close()
			}
		}
		for _, s := range nw.Stores {
			s.Close()
		}
	}

	// Executors.
	for i, id := range cfg.Executors {
		exec, store, led, mgr, rec, err := nw.buildExecutor(i, id)
		if err != nil {
			closePersists()
			return nil, err
		}
		nw.Executors = append(nw.Executors, exec)
		nw.Stores = append(nw.Stores, store)
		nw.Ledgers = append(nw.Ledgers, led)
		nw.Persists = append(nw.Persists, mgr)
		nw.Recovered = append(nw.Recovered, rec)
	}

	// Orderers with their consensus instances. A failure mid-loop stops
	// the orderers built so far (releasing their durable-log locks) in
	// addition to the executor-side cleanup.
	for _, id := range cfg.Orderers {
		ord, err := nw.buildOrderer(id)
		if err != nil {
			for _, prev := range nw.Orderers {
				prev.Stop()
			}
			closePersists()
			return nil, err
		}
		nw.Orderers = append(nw.Orderers, ord)
	}
	return nw, nil
}

// buildOrderer assembles one orderer node: endpoint, consensus instance
// (with durable storage under DataDir/<id>/consensus for Raft and
// Kafka), and the ordering core (with its durable cut-state log under
// DataDir/<id>/olog). New uses it for initial construction,
// RestartOrderer to rebuild a killed node in place.
func (nw *Network) buildOrderer(id types.NodeID) (*ordering.Orderer, error) {
	cfg := nw.cfg
	ep, err := cfg.Net.Endpoint(id)
	if err != nil {
		return nil, err
	}
	var ordererDir, consensusDir string
	if cfg.DataDir != "" {
		ordererDir = filepath.Join(cfg.DataDir, string(id), "olog")
		consensusDir = filepath.Join(cfg.DataDir, string(id), "consensus")
	}
	cons, err := buildConsensus(cfg.Consensus, id, cfg.Orderers, ep, cfg.ConsensusBatch,
		consensusDir, cfg.FsyncPolicy, cfg.Logf)
	if err != nil {
		return nil, err
	}
	ord, err := ordering.New(ordering.Config{
		ID:               id,
		Endpoint:         ep,
		Consensus:        cons,
		Executors:        cfg.Executors,
		Signer:           nw.signers[id],
		Verifier:         nw.verifier(),
		VerifyClientSigs: cfg.Crypto,
		ACL:              cfg.ACL,
		MaxBlockTxns:     cfg.MaxBlockTxns,
		MaxBlockBytes:    cfg.MaxBlockBytes,
		MaxBlockInterval: cfg.MaxBlockInterval,
		BuildGraph:       true,
		GraphMode:        cfg.GraphMode,
		UsePairwiseGraph: cfg.UsePairwiseGraph,
		SegmentTxns:      cfg.SegmentTxns,
		Dir:              ordererDir,
		Fsync:            cfg.FsyncPolicy,
		// Raft and Kafka persist their logs and redeliver the committed
		// prefix with stable sequence numbers, so replayed entries can be
		// recognized and skipped by sequence. PBFT restarts its sequence
		// space, so its re-deliveries are deduped by content instead.
		ResumeSeq: ordererDir != "" && cfg.Consensus != ConsensusPBFT,
		Logf:      cfg.Logf,
	})
	if err != nil {
		cons.Stop() // release the consensus storage lock
		return nil, fmt.Errorf("oxii: orderer %s: %w", id, err)
	}
	return ord, nil
}

// verifier returns the verifier matching the crypto setting.
func (nw *Network) verifier() cryptoutil.Verifier {
	if nw.cfg.Crypto {
		return nw.keyring
	}
	return cryptoutil.NoopVerifier{}
}

// orderQuorum returns the number of matching seals an executor requires:
// f+1 under PBFT (a correct orderer among them), 1 under the
// crash-fault-tolerant protocols where orderers do not lie.
func (nw *Network) orderQuorum() int {
	if nw.cfg.Consensus == ConsensusPBFT {
		f := (len(nw.cfg.Orderers) - 1) / 3
		return f + 1
	}
	return 1
}

func buildConsensus(kind ConsensusKind, id types.NodeID, members []types.NodeID,
	ep transport.Endpoint, batch consensus.BatchConfig,
	dir string, fsync persist.FsyncPolicy, logf func(string, ...any)) (consensus.Node, error) {
	sender := consensus.SenderFunc(ep.Send)
	switch kind {
	case ConsensusPBFT:
		// PBFT state stays in-memory; the orderer's cut-state log above it
		// still provides crash recovery of the cutting side.
		return pbft.New(pbft.Config{ID: id, Members: members, Sender: sender, Batch: batch}), nil
	case ConsensusRaft:
		return raft.New(raft.Config{ID: id, Members: members, Sender: sender,
			Dir: dir, Fsync: fsync, Logf: logf})
	case ConsensusKafka, "":
		return kafkaorder.New(kafkaorder.Config{ID: id, Members: members, Sender: sender,
			Batch: batch, Dir: dir, Fsync: fsync, Logf: logf})
	default:
		return nil, fmt.Errorf("oxii: unknown consensus kind %q", kind)
	}
}

// Start launches every node. Executors start first so no block segment
// or seal is dropped. Nodes listed in Config.OpsAddrs get their ops servers here;
// a server that fails to listen is logged and skipped, never fatal.
func (nw *Network) Start() {
	for _, e := range nw.Executors {
		e.Start()
	}
	for _, o := range nw.Orderers {
		o.Start()
	}
	for i, id := range nw.cfg.Executors {
		nw.startExecutorOps(i, id)
	}
	for i, id := range nw.cfg.Orderers {
		nw.startOrdererOps(i, id)
	}
}

// startExecutorOps starts executor i's ops server when configured. The
// status/health/trace closures dereference nw.Executors[i] at request
// time, so a restarted executor is observed live; the metrics registry
// binds to the current instance (RestartExecutor rebuilds the server).
func (nw *Network) startExecutorOps(i int, id types.NodeID) {
	addr, ok := nw.cfg.OpsAddrs[id]
	if !ok {
		return
	}
	reg := telemetry.NewRegistry()
	labels := telemetry.Labels{"node": string(id)}
	nw.Executors[i].RegisterTelemetry(reg, labels)
	nw.cfg.Net.RegisterTelemetry(reg, labels)
	srv, err := telemetry.StartServer(telemetry.ServerConfig{
		Addr:     addr,
		Registry: reg,
		Status:   func() any { return nw.Executors[i].Status() },
		Health:   func() error { return nw.Executors[i].Healthy() },
		Traces:   func() []telemetry.TraceRecord { return nw.Executors[i].Tracer().Slowest() },
		Logf:     nw.cfg.Logf,
	})
	if err != nil {
		if nw.cfg.Logf != nil {
			nw.cfg.Logf("oxii: ops server for %s: %v", id, err)
		}
		return
	}
	nw.opsServers[id] = srv
}

// startOrdererOps starts orderer i's ops server when configured.
func (nw *Network) startOrdererOps(i int, id types.NodeID) {
	addr, ok := nw.cfg.OpsAddrs[id]
	if !ok {
		return
	}
	reg := telemetry.NewRegistry()
	labels := telemetry.Labels{"node": string(id)}
	nw.Orderers[i].RegisterTelemetry(reg, labels)
	nw.cfg.Net.RegisterTelemetry(reg, labels)
	ord := nw.Orderers[i]
	srv, err := telemetry.StartServer(telemetry.ServerConfig{
		Addr:     addr,
		Registry: reg,
		Status:   func() any { return ord.Status() },
		Health:   ord.Healthy,
		Logf:     nw.cfg.Logf,
	})
	if err != nil {
		if nw.cfg.Logf != nil {
			nw.cfg.Logf("oxii: ops server for %s: %v", id, err)
		}
		return
	}
	nw.opsServers[id] = srv
}

// closeOps shuts down one node's ops server, if running.
func (nw *Network) closeOps(id types.NodeID) {
	if srv, ok := nw.opsServers[id]; ok {
		srv.Close()
		delete(nw.opsServers, id)
	}
}

// OpsServer returns the running ops server of a node, or nil. The
// returned server's Addr resolves ":0" configs to the bound port.
func (nw *Network) OpsServer(id types.NodeID) *telemetry.Server {
	return nw.opsServers[id]
}

// Stop shuts every node down and closes the transport endpoints owned by
// nodes. The underlying transport itself belongs to the caller.
// Durability managers close after their executors quiesce, so every
// finalized block is on disk when Stop returns.
func (nw *Network) Stop() {
	for id := range nw.opsServers {
		nw.closeOps(id)
	}
	for _, o := range nw.Orderers {
		o.Stop()
	}
	for _, e := range nw.Executors {
		e.Stop()
	}
	for i, m := range nw.Persists {
		if m == nil {
			continue
		}
		if err := m.Close(); err != nil && nw.cfg.Logf != nil {
			nw.cfg.Logf("oxii: closing durability manager of %s: %v", nw.cfg.Executors[i], err)
		}
	}
	for i, s := range nw.Stores {
		if err := s.Close(); err != nil && nw.cfg.Logf != nil {
			nw.cfg.Logf("oxii: closing store of %s: %v", nw.cfg.Executors[i], err)
		}
	}
	nw.router.Shutdown()
}

// buildExecutor assembles one executor node: endpoint, contract
// registry, store and ledger (recovered from the durable directory when
// DataDir is set, genesis-seeded in-memory otherwise), and the executor
// itself. New uses it for initial construction, RestartExecutor to
// rebuild a killed node in place.
func (nw *Network) buildExecutor(i int, id types.NodeID) (*execution.Executor,
	state.Backend, *ledger.Ledger, *persist.Manager, *persist.Recovered, error) {
	cfg := nw.cfg
	ep, err := cfg.Net.Endpoint(id)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	registry := contract.NewRegistry()
	for app, agents := range cfg.Agents {
		for _, agent := range agents {
			if agent == id {
				registry.Install(app, cfg.Contracts[app])
			}
		}
	}
	// Per the zero-copy state contract the genesis value slices end
	// up shared by every node's store; that is safe because stores
	// never mutate values and Genesis is not touched after setup.
	// With DataDir set the store and ledger instead come from the
	// executor's durable state (genesis seeds only a fresh
	// directory), so a rebuilt network resumes where it stopped.
	var (
		store state.Backend
		led   *ledger.Ledger
		mgr   *persist.Manager
		rec   *persist.Recovered
	)
	if cfg.DataDir != "" {
		mgr, rec, err = persist.Open(persist.Config{
			Dir:              filepath.Join(cfg.DataDir, string(id)),
			Fsync:            cfg.FsyncPolicy,
			SnapshotInterval: cfg.SnapshotInterval,
			SegmentBytes:     cfg.SegmentBytes,
			StateBackend:     cfg.StateBackend,
			HotTierBytes:     cfg.HotTierBytes,
			Logf:             cfg.Logf,
		}, cfg.Genesis)
		if err != nil {
			return nil, nil, nil, nil, nil, fmt.Errorf("oxii: executor %s: %w", id, err)
		}
		store, led = rec.Store, rec.Ledger
	} else {
		if cfg.StateBackend == "tiered" {
			// Non-durable tiered mode: the cold tier lives in a private
			// temp directory, removed when the store closes. Benchmarks
			// use this to measure larger-than-RAM state without a DataDir.
			ts, terr := state.NewTieredStore(state.TieredConfig{HotBytes: cfg.HotTierBytes})
			if terr != nil {
				return nil, nil, nil, nil, nil, fmt.Errorf("oxii: executor %s: %w", id, terr)
			}
			store = ts
		} else {
			store = state.NewKVStore()
		}
		store.Apply(cfg.Genesis)
		led = ledger.New()
	}
	// Only the observer (Executors[0]) routes client completions and
	// feeds the user hook; hooks on every peer would duplicate them.
	var hook execution.CommitHook
	if i == 0 {
		routerHook := nw.router.Hook()
		userHook := cfg.OnCommit
		hook = func(block *types.Block, results []types.TxResult) {
			routerHook(block, results)
			if userHook != nil {
				userHook(block, results)
			}
		}
	}
	var tracer *telemetry.BlockTracer
	if cfg.Trace || cfg.OpsAddrs[id] != "" {
		tracer = telemetry.NewBlockTracer(cfg.TraceRing)
	}
	exec := execution.New(execution.Config{
		ID:              id,
		Endpoint:        ep,
		Tracer:          tracer,
		Registry:        registry,
		AgentsOf:        cfg.Agents,
		Tau:             cfg.Tau,
		OrderQuorum:     nw.orderQuorum(),
		Executors:       cfg.Executors,
		Store:           store,
		Ledger:          led,
		Workers:         cfg.ExecWorkers,
		Scheduler:       cfg.Scheduler,
		PrefetchWorkers: cfg.PrefetchWorkers,
		PipelineDepth:   cfg.PipelineDepth,
		GraphMode:       cfg.GraphMode,
		EagerCommit:     cfg.EagerCommit,
		Speculate:       cfg.Speculate,
		MinHorizon:      cfg.MinHorizon,
		StallTimeout:    cfg.SyncStallTimeout,
		Signer:          nw.signers[id],
		Verifier:        nw.verifier(),
		VerifySigs:      cfg.Crypto,
		Persist:         mgr,
		OnCommit:        hook,
		Logf:            cfg.Logf,
	})
	return exec, store, led, mgr, rec, nil
}

// KillExecutor takes executor i down the way a process kill would: its
// endpoint is removed from the network first (in-flight and future
// traffic to the node is lost, peers see silence), then the node's
// goroutines stop and its durability manager closes, leaving only what
// the WAL and snapshots already held. The chaos harness pairs it with
// RestartExecutor.
func (nw *Network) KillExecutor(i int) {
	id := nw.cfg.Executors[i]
	nw.closeOps(id)
	nw.cfg.Net.Remove(id)
	nw.Executors[i].Stop()
	if m := nw.Persists[i]; m != nil {
		if err := m.Close(); err != nil && nw.cfg.Logf != nil {
			nw.cfg.Logf("oxii: closing durability manager of killed %s: %v", id, err)
		}
	}
	// A dead process holds no file handles on its cold tier; release
	// ours so RestartExecutor reopens the directory cleanly.
	if err := nw.Stores[i].Close(); err != nil && nw.cfg.Logf != nil {
		nw.cfg.Logf("oxii: closing store of killed %s: %v", id, err)
	}
}

// RestartExecutor rebuilds and starts a killed executor in place: a
// fresh endpoint replaces the severed one, store and ledger recover from
// the node's durable directory (or restart from genesis without
// DataDir), and the Stores/Ledgers/Persists/Recovered slots update to
// the new instances. The rejoined node catches up on whatever it missed
// via the executors' state-sync protocol, so nothing needs to be
// re-streamed by the orderers.
func (nw *Network) RestartExecutor(i int) error {
	exec, store, led, mgr, rec, err := nw.buildExecutor(i, nw.cfg.Executors[i])
	if err != nil {
		return err
	}
	nw.Executors[i] = exec
	nw.Stores[i] = store
	nw.Ledgers[i] = led
	nw.Persists[i] = mgr
	nw.Recovered[i] = rec
	exec.Start()
	// A fresh ops server binds the metrics registry to the rebuilt
	// executor; the old one (closed by KillExecutor) sampled the corpse.
	nw.startExecutorOps(i, nw.cfg.Executors[i])
	return nil
}

// KillOrderer takes orderer i down the way a process kill would: its
// endpoint is removed from the network first (in-flight and future
// traffic to the node is lost, peers see silence), then the node's
// goroutines stop and its durable logs drop their unsynced bytes — what
// a power loss does to the page cache — keeping only what fsync already
// covered. The chaos harness pairs it with RestartOrderer.
func (nw *Network) KillOrderer(i int) {
	id := nw.cfg.Orderers[i]
	nw.closeOps(id)
	nw.cfg.Net.Remove(id)
	nw.Orderers[i].Kill()
}

// RestartOrderer rebuilds and starts a killed orderer in place: a fresh
// endpoint replaces the severed one, the cut-state log (and, under
// Raft/Kafka, the consensus log) recovers from the node's durable
// directory, and the rejoined orderer resumes cutting at the height
// after its last fsynced cut — re-streaming the retained window so
// executors that missed blocks catch up.
func (nw *Network) RestartOrderer(i int) error {
	ord, err := nw.buildOrderer(nw.cfg.Orderers[i])
	if err != nil {
		return err
	}
	nw.Orderers[i] = ord
	ord.Start()
	nw.startOrdererOps(i, nw.cfg.Orderers[i])
	return nil
}

// Client returns (creating on first use) the driver for a configured
// client identity.
func (nw *Network) Client(id types.NodeID) (*Client, error) {
	if c, ok := nw.clients[id]; ok {
		return c, nil
	}
	signer, ok := nw.signers[id]
	if !ok {
		return nil, fmt.Errorf("oxii: unknown client %s (add it to Config.Clients)", id)
	}
	ep, err := nw.cfg.Net.Endpoint(id)
	if err != nil {
		return nil, err
	}
	c := NewClient(id, ep, signer, nw.cfg.Orderers, nw.router)
	nw.clients[id] = c
	return c, nil
}

// Router exposes the commit router (for tests that register directly).
func (nw *Network) Router() *CommitRouter { return nw.router }

// ObserverStore returns the observer executor's (Executors[0]) state
// store. It panics with a descriptive message if the network holds no
// executors — possible only for a Network value not built by New, which
// rejects executor-less configurations.
func (nw *Network) ObserverStore() state.Backend {
	if len(nw.Stores) == 0 {
		panic("oxii: network has no executors; ObserverStore needs Executors[0] (construct the Network with New)")
	}
	return nw.Stores[0]
}

// ObserverLedger returns the observer executor's (Executors[0]) ledger.
// It panics with a descriptive message if the network holds no executors
// — possible only for a Network value not built by New, which rejects
// executor-less configurations.
func (nw *Network) ObserverLedger() *ledger.Ledger {
	if len(nw.Ledgers) == 0 {
		panic("oxii: network has no executors; ObserverLedger needs Executors[0] (construct the Network with New)")
	}
	return nw.Ledgers[0]
}
