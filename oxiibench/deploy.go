package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"sync"
	"time"

	"parblockchain/internal/contract"
	"parblockchain/internal/oxii"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
	"parblockchain/internal/workload"
)

// digestTxns is the length of the stream prefix whose digest a run
// prints, and the number of transactions the offline replays use.
const digestTxns = 10000

// stream hands out the seeded transactions in ClientTS order and folds
// the first digestTxns of them into a digest, so two runs can show that
// the program received identical input.
type stream struct {
	mu  sync.Mutex
	gen *workload.Generator
	ts  uint64
	h   hash.Hash
	sum []byte
}

func newStream(gen *workload.Generator) *stream {
	return &stream{gen: gen, h: sha256.New()}
}

func (s *stream) next() *types.Transaction {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ts++
	tx := s.gen.Next(clientID, s.ts)
	if s.ts <= digestTxns {
		d := tx.Digest()
		s.h.Write(d[:])
		if s.ts == digestTxns {
			s.sum = s.h.Sum(nil)
		}
	}
	return tx
}

// digest returns the hex digest of the stream prefix, or "" when the run
// did not generate digestTxns transactions.
func (s *stream) digest() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("%x", s.sum)
}

// txRecord is one transaction that reached the observer's commit hook.
// Times are nanoseconds since the deployment began.
type txRecord struct {
	submit, commit int64
	block          uint64
	aborted        bool
}

// commitRecord is one call of the observer's commit hook.
type commitRecord struct {
	at   int64
	txns int
}

// loader is the closed-loop client: Outstanding slots, each held by one
// transaction from submission until the observer reports its commit,
// whereupon the slot admits the next submission. It runs one submitter
// goroutine per CPU on one client endpoint.
type loader struct {
	base       time.Time
	src        *stream
	client     *oxii.Client
	slots      chan struct{}
	stop       chan struct{}
	wg         sync.WaitGroup
	first      chan struct{}
	timeSubmit bool
	rssAfter   int          // committed transactions after which rssMiB is read
	submitNs   [][][2]int64 // per submitter: (start, time in Submit); only when timeSubmit

	mu         sync.Mutex
	pending    map[uint64]int64 // ClientTS -> submit time, until committed
	done       []txRecord
	commits    []commitRecord
	sendFailed []int64 // submit times of transactions Submit refused
	sendErr    error
	rssMiB     float64 // peak RSS once rssAfter transactions committed
}

func (l *loader) now() int64 { return int64(time.Since(l.base)) }

// onCommit is the observer executor's commit hook.
func (l *loader) onCommit(block *types.Block, results []types.TxResult) {
	now := l.now()
	released := 0
	l.mu.Lock()
	for i, tx := range block.Txns {
		sub, ok := l.pending[tx.ClientTS]
		if tx.Client != clientID || !ok {
			continue
		}
		delete(l.pending, tx.ClientTS)
		aborted := i >= len(results) || results[i].Aborted
		l.done = append(l.done, txRecord{submit: sub, commit: now, block: block.Header.Number, aborted: aborted})
		released++
	}
	if len(l.commits) == 0 {
		close(l.first)
	}
	if l.rssMiB == 0 && len(l.done) >= l.rssAfter {
		l.rssMiB = peakRSSMiB()
	}
	l.commits = append(l.commits, commitRecord{at: now, txns: released})
	l.mu.Unlock()
	for i := 0; i < released; i++ {
		select {
		case l.slots <- struct{}{}:
		default: // the loader has stopped and nobody takes slots
		}
	}
}

func (l *loader) start() {
	for i := 0; i < cap(l.slots); i++ {
		l.slots <- struct{}{}
	}
	n := runtime.NumCPU()
	l.submitNs = make([][][2]int64, n)
	for i := 0; i < n; i++ {
		l.wg.Add(1)
		go l.submitter(i)
	}
}

func (l *loader) submitter(id int) {
	defer l.wg.Done()
	for {
		select {
		case <-l.stop:
			return
		case <-l.slots:
		}
		tx := l.src.next()
		t0 := l.now()
		l.mu.Lock()
		l.pending[tx.ClientTS] = t0
		l.mu.Unlock()
		_, err := l.client.Submit(tx)
		if l.timeSubmit {
			l.submitNs[id] = append(l.submitNs[id], [2]int64{t0, l.now() - t0})
		}
		if err != nil {
			l.mu.Lock()
			delete(l.pending, tx.ClientTS)
			l.sendFailed = append(l.sendFailed, t0)
			if l.sendErr == nil {
				l.sendErr = err
			}
			l.mu.Unlock()
		}
	}
}

// halt stops submitting and waits for the submitters to exit.
func (l *loader) halt() {
	select {
	case <-l.stop:
	default:
		close(l.stop)
	}
	l.wg.Wait()
}

// deployment is one in-process OXII network under load. Every workload
// runs on the same fixed deployment: 3 orderers on the Kafka-style plug,
// 3 executors, 3 applications with one agent each, tau 1, the in-memory
// transport at a 250 µs one-way delay, the memory state backend and the
// accounting contract under contract.CostModel. Every other oxii.Config
// knob keeps its default.
type deployment struct {
	base    time.Time
	net     *transport.InMemNetwork
	nw      *oxii.Network
	genesis []types.KV
	load    *loader
	// Set only on a traced deployment.
	probe *probe
	ctr   *tracedContract
}

// newDeployment builds (but does not start) a deployment. adjust, when
// non-nil, edits the oxii.Config before oxii.New; tests use it.
func newDeployment(sp spec, seed int64, traced bool, adjust func(*oxii.Config)) (*deployment, error) {
	d := &deployment{base: time.Now()}
	gen := newGenerator(sp, seed)
	d.genesis = gen.Genesis()

	netCfg := transport.InMemConfig{Latency: transport.ConstantLatency(oneWayDelay)}
	var ctr contract.Contract = contract.WithCost(contract.NewAccounting(),
		contract.CostModel{Cost: sp.SpinCost, SpinFraction: 1})
	if traced {
		d.probe = newProbe(d.base)
		netCfg.ExtraLatency = d.probe.observe
		d.ctr = &tracedContract{inner: ctr, base: d.base}
		ctr = d.ctr
	}
	d.net = transport.NewInMemNetwork(netCfg)
	d.load = &loader{
		base:       d.base,
		src:        newStream(gen),
		slots:      make(chan struct{}, sp.Outstanding), // one token per outstanding transaction
		stop:       make(chan struct{}),
		first:      make(chan struct{}),
		timeSubmit: traced,
		rssAfter:   sp.RSSAfterTxns,
		pending:    make(map[uint64]int64, sp.Outstanding),
	}

	orderers := nodeIDs("o", numOrderers)
	executors := nodeIDs("e", numExecutors)
	agents := make(map[types.AppID][]types.NodeID, numApps)
	contracts := make(map[types.AppID]contract.Contract, numApps)
	for i, app := range appIDs() {
		agents[app] = []types.NodeID{executors[i%numExecutors]}
		contracts[app] = ctr
	}
	cfg := oxii.Config{
		Orderers:     orderers,
		Executors:    executors,
		Clients:      []types.NodeID{clientID},
		Agents:       agents,
		Contracts:    contracts,
		Consensus:    oxii.ConsensusKafka,
		MaxBlockTxns: sp.BlockTxns,
		Trace:        traced,
		Crypto:       sp.Crypto,
		Genesis:      d.genesis,
		OnCommit:     d.load.onCommit,
		Net:          d.net,
		Logf:         func(string, ...any) {},
	}
	if adjust != nil {
		adjust(&cfg)
	}
	nw, err := oxii.New(cfg)
	if err != nil {
		d.net.Close()
		return nil, fmt.Errorf("deploying: %w", err)
	}
	d.nw = nw
	client, err := nw.Client(clientID)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("client endpoint: %w", err)
	}
	d.load.client = client
	return d, nil
}

func nodeIDs(prefix string, n int) []types.NodeID {
	out := make([]types.NodeID, n)
	for i := range out {
		out[i] = types.NodeID(fmt.Sprintf("%s%d", prefix, i+1))
	}
	return out
}

// start launches the network and the closed loop.
func (d *deployment) start() {
	d.nw.Start()
	d.load.start()
}

// awaitFirstCommit waits for the first commit and returns the set-up
// time: from the start of deployment (key generation, genesis, oxii.New,
// Start) to the first committed transaction.
func (d *deployment) awaitFirstCommit(timeout time.Duration) (time.Duration, error) {
	select {
	case <-d.load.first:
	case <-time.After(timeout):
		return 0, fmt.Errorf("set-up: no transaction committed within %s", timeout)
	}
	d.load.mu.Lock()
	defer d.load.mu.Unlock()
	return time.Duration(d.load.commits[0].at), nil
}

// close stops the loader, the network and the transport.
func (d *deployment) close() {
	d.load.halt()
	if d.nw != nil {
		d.nw.Stop()
	}
	d.net.Close()
}

// drain stops the load and waits, up to timeout, for every submitted
// transaction to commit at the observer and for every executor to reach
// the observer's height. Whatever is still pending afterwards has timed
// out.
func (d *deployment) drain(timeout time.Duration) {
	d.load.halt()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		d.load.mu.Lock()
		pending := len(d.load.pending)
		d.load.mu.Unlock()
		if pending == 0 && d.heightsAgree() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *deployment) heightsAgree() bool {
	h := d.nw.Ledgers[0].Height()
	for _, l := range d.nw.Ledgers[1:] {
		if l.Height() != h {
			return false
		}
	}
	return true
}

// gate checks the outcome of a drained run; any violation makes the run
// incorrect, and an incorrect run is never reported as data. Executors
// must agree on height and state hash, the observer's ledger must verify,
// the transfers must conserve the total balance of the genesis accounts,
// nothing may abort, time out or be refused, something must commit in
// the window, and in every part of the window the latency p99 must have
// at least ten samples beyond it.
func (d *deployment) gate(w *window) error {
	var errs []error
	if w.committed == 0 {
		errs = append(errs, errors.New("no transaction committed in the window"))
	}
	for i, p := range w.parts {
		if p.latBeyondP99 < 10 {
			errs = append(errs, fmt.Errorf("window part %d: latency p99 has %d samples beyond it, want at least 10", i+1, p.latBeyondP99))
		}
	}
	l := d.load
	l.mu.Lock()
	aborted := 0
	for _, r := range l.done {
		if r.aborted {
			aborted++
		}
	}
	pending, refused, refusal := len(l.pending), len(l.sendFailed), l.sendErr
	l.mu.Unlock()
	if aborted > 0 {
		errs = append(errs, fmt.Errorf("%d transactions aborted", aborted))
	}
	if pending > 0 {
		errs = append(errs, fmt.Errorf("%d transactions never committed", pending))
	}
	if refused > 0 {
		errs = append(errs, fmt.Errorf("%d submissions refused, first: %v", refused, refusal))
	}
	if !d.heightsAgree() {
		errs = append(errs, errors.New("executors disagree on ledger height"))
	}
	h := d.nw.Stores[0].Hash()
	for i, s := range d.nw.Stores[1:] {
		if s.Hash() != h {
			errs = append(errs, fmt.Errorf("executor %d's state hash differs from the observer's", i+2))
		}
	}
	if err := d.nw.ObserverLedger().Verify(); err != nil {
		errs = append(errs, fmt.Errorf("observer ledger: %w", err))
	}
	if err := d.balanceConserved(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// balanceConserved checks that the observer's balances over the genesis
// accounts sum to their genesis total: transfers move value only between
// genesis accounts.
func (d *deployment) balanceConserved() error {
	store := d.nw.ObserverStore()
	var want, got int64
	for _, kv := range d.genesis {
		g, err := contract.Balance(kv.Val)
		if err != nil {
			return fmt.Errorf("genesis: %w", err)
		}
		want += g
		raw, ok := store.Get(kv.Key)
		if !ok {
			return fmt.Errorf("account %s vanished", kv.Key)
		}
		b, err := contract.Balance(raw)
		if err != nil {
			return err
		}
		got += b
	}
	if got != want {
		return fmt.Errorf("total balance %d, genesis total %d", got, want)
	}
	return nil
}
