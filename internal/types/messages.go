package types

import (
	"parblockchain/internal/depgraph"
)

// This file defines the protocol messages exchanged by ParBlockchain
// nodes, following the paper's notation:
//
//	<REQUEST, op, A, ts_c, c>_sigma_c      client -> orderers
//	<NEWBLOCK, n, B, G(B), A, o, h>_sigma_o orderers -> executors
//	<COMMIT, S, e>_sigma_e                 executor -> executors
//
// The baselines reuse Request and add their own endorsement/validation
// messages in their packages.

// RequestMsg is a signed client request carrying one transaction. The
// transaction embeds the operation, the application ID, the client
// timestamp, and the client signature, so RequestMsg is a thin envelope.
type RequestMsg struct {
	// Tx is the requested transaction.
	Tx *Transaction
}

// NewBlockMsg is the orderers' announcement of a freshly cut block
// together with its dependency graph, the paper's NEWBLOCK. Only the
// in-process OX baseline still delivers blocks this way (its orderers
// build no graph); OXII executors take every block as segments plus a
// seal, and no TCP frame carries NEWBLOCK.
type NewBlockMsg struct {
	// Block is the ordered batch B with header number n and previous
	// hash h.
	Block *Block
	// Graph is the dependency graph G(B) over Block.Txns.
	Graph *depgraph.Graph
	// Apps lists the applications with transactions in the block.
	Apps []AppID
	// Orderer is the sending orderer o.
	Orderer NodeID
	// Sig is the orderer's signature over Digest().
	Sig []byte
}

// Digest returns the signed digest of the message: the block hash bound to
// the graph shape. Orderers that agree on the block necessarily agree on
// the (deterministically generated) graph, so hashing the block identity
// plus the edge count suffices to detect tampering with either.
func (m *NewBlockMsg) Digest() Hash {
	bh := m.Block.Hash()
	w := AcquireWriter()
	w.Blob(bh[:])
	if m.Graph != nil {
		w.U64(uint64(m.Graph.N))
		w.U64(uint64(m.Graph.EdgeCount()))
		for _, succ := range m.Graph.Succ {
			w.U64(uint64(len(succ)))
			for _, j := range succ {
				w.U64(uint64(j))
			}
		}
	}
	return w.sumAndRelease()
}

// CommitMsg carries the execution results S of one or more transactions
// from an agent to all executor nodes (Algorithm 2). Results for several
// transactions are batched per the paper's lazy multicast rule: an agent
// flushes accumulated results when an executed transaction has a successor
// owned by a different application, or at the end of its work on a block.
type CommitMsg struct {
	// BlockNum is the block the results belong to.
	BlockNum uint64
	// Results is the batched set S of (transaction, result) pairs.
	Results []TxResult
	// Executor is the sending agent e.
	Executor NodeID
	// Sig is the executor's signature over Digest().
	Sig []byte
}

// Digest returns the signed digest of the commit message.
func (m *CommitMsg) Digest() Hash {
	w := AcquireWriter()
	w.U64(m.BlockNum)
	w.U64(uint64(len(m.Results)))
	for i := range m.Results {
		d := m.Results[i].Digest()
		w.Blob(d[:])
	}
	w.Str(string(m.Executor))
	return w.sumAndRelease()
}

// BlockSegmentMsg streams one segment of a block under construction from
// an orderer to the executors: a contiguous run of ordered transactions
// together with the dependency-graph edges that attach them to the
// transactions already streamed for the same block. Orderers emit
// segments as consensus delivers transactions (ordering.Config
// .SegmentTxns per segment, or the whole block as one segment at the
// cut), so executors can schedule and execute ready transactions while
// the rest of the block is still being ordered.
//
// Segments are speculative: executors may execute against them inside
// the pipeline window, but finalization (ledger append, store apply)
// waits for a quorum-validated BlockSealMsg whose cumulative digest
// covers exactly the streamed segments.
type BlockSegmentMsg struct {
	// BlockNum is the block the segment belongs to.
	BlockNum uint64
	// Seg is the zero-based segment index within the block.
	Seg int
	// Start is the block index of Txns[0]; segment k starts where
	// segment k-1 ended.
	Start int
	// Txns are the segment's transactions in their agreed total order.
	Txns []*Transaction
	// Preds[i] lists the dependency-graph predecessors of Txns[i] as
	// block indices (< Start+i), sorted increasing — the incremental
	// edges an Appender derives. Concatenating Preds across a block's
	// segments yields exactly Graph.Pred of the block's dependency graph.
	Preds [][]int32
	// Orderer is the sending orderer.
	Orderer NodeID
	// Sig is the orderer's signature over Digest().
	Sig []byte
}

// Digest returns the signed digest of the segment: its position, the
// transaction digests, and the incremental edges. The orderer identity is
// excluded so segments from different orderers match when their content
// matches (the seal's cumulative digest chains these values).
func (m *BlockSegmentMsg) Digest() Hash { return m.digest(nil) }

// DigestTxns is Digest that also appends each transaction's digest to
// txDigests and returns the extended slice, so a node that needs both
// the signed segment digest and the block's Merkle leaves (MerkleRoot)
// hashes every transaction once.
func (m *BlockSegmentMsg) DigestTxns(txDigests []Hash) (Hash, []Hash) {
	d := m.digest(&txDigests)
	return d, txDigests
}

// digest builds the segment digest, appending each transaction's digest
// to *txDigests when txDigests is non-nil.
func (m *BlockSegmentMsg) digest(txDigests *[]Hash) Hash {
	w := AcquireWriter()
	w.U64(m.BlockNum)
	w.U64(uint64(m.Seg))
	w.U64(uint64(m.Start))
	w.U64(uint64(len(m.Txns)))
	for _, tx := range m.Txns {
		d := tx.Digest()
		w.Blob(d[:])
		if txDigests != nil {
			*txDigests = append(*txDigests, d)
		}
	}
	for _, preds := range m.Preds {
		w.U64(uint64(len(preds)))
		for _, p := range preds {
			w.U64(uint64(p))
		}
	}
	return w.sumAndRelease()
}

// ChainSegmentDigest extends a block's cumulative segment digest with the
// next segment's digest: cum_k = H(cum_{k-1} || digest_k), with the zero
// hash as cum before any segment. Both orderers (emitting) and executors
// (verifying against the seal) maintain it.
func ChainSegmentDigest(cum Hash, seg Hash) Hash {
	w := AcquireWriter()
	w.Blob(cum[:])
	w.Blob(seg[:])
	return w.sumAndRelease()
}

// BlockSealMsg closes a streamed block: it carries the block header (the
// executors already hold the transactions from the segments), the number
// of segments, and the cumulative segment digest binding the seal to the
// exact streamed content. Executors finalize a block only after
// OrderQuorum matching seals from distinct orderers.
type BlockSealMsg struct {
	// Header is the sealed block's header (number, previous hash,
	// transaction root, count).
	Header BlockHeader
	// Segments is the number of BlockSegmentMsg frames the block was
	// streamed in.
	Segments int
	// Cum is the cumulative segment digest (ChainSegmentDigest over the
	// block's segment digests, in order).
	Cum Hash
	// Apps lists the applications with transactions in the block.
	Apps []AppID
	// Orderer is the sending orderer.
	Orderer NodeID
	// Sig is the orderer's signature over Digest().
	Sig []byte
}

// Digest returns the signed digest of the seal: the block identity bound
// to the streamed content. The orderer identity is excluded so seals from
// orderers that agree on the block match.
func (m *BlockSealMsg) Digest() Hash {
	bh := m.Header.hash()
	w := AcquireWriter()
	w.Blob(bh[:])
	w.U64(uint64(m.Segments))
	w.Blob(m.Cum[:])
	w.U64(uint64(len(m.Apps)))
	for _, a := range m.Apps {
		w.Str(string(a))
	}
	return w.sumAndRelease()
}

// CommitNotifyMsg informs a client of its transaction's final outcome.
// In-process deployments route completions through the observer
// executor's commit hook instead; TCP clusters enable client notification
// on a designated executor (execution.Config.NotifyClients).
type CommitNotifyMsg struct {
	// TxID identifies the client's transaction.
	TxID TxID
	// BlockNum is the block the transaction committed in.
	BlockNum uint64
	// Aborted reports the transaction's final outcome.
	Aborted bool
	// AbortReason explains an abort.
	AbortReason string
}
