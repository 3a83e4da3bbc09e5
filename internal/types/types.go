// Package types defines the core data model shared by every component of
// the ParBlockchain reproduction: transactions with declared read/write
// sets, blocks, and the wire messages exchanged between clients, orderers,
// and executors (REQUEST, NEWBLOCK, COMMIT in the paper's notation).
//
// The definitions follow Sections III and IV of "ParBlockchain: Leveraging
// Transaction Parallelism in Permissioned Blockchain Systems" (ICDCS 2019).
package types

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
)

// NodeID identifies a node (client, orderer, or executor) in the network.
// Every message carries the sender's NodeID and is signed with that node's
// key, mirroring the paper's pairwise-authenticated channel assumption.
type NodeID string

// AppID identifies a distributed application (smart contract) deployed on
// the blockchain. The paper denotes applications A1..An; each application
// has a non-empty set of executor agents Sigma(Ai).
type AppID string

// TxID uniquely identifies a transaction. IDs are derived from the client
// identity and the client-local timestamp, which the paper uses to provide
// exactly-once execution semantics per client.
type TxID string

// Key names a record in the blockchain state (datastore). Keys are plain
// strings so that read/write sets interoperate directly with the pure
// dependency-graph package.
type Key = string

// Hash is a SHA-256 digest. Blocks are chained by Hash and execution
// results are matched across executors by Hash.
type Hash [sha256.Size]byte

// ZeroHash is the hash value used as the previous-block pointer of the
// genesis block.
var ZeroHash Hash

// String returns the hexadecimal form of the hash.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// IsZero reports whether the hash is all zero bytes.
func (h Hash) IsZero() bool { return h == ZeroHash }

// Operation is the payload of a client request: a method of an
// application's smart contract plus its parameters, together with the
// pre-declared read and write sets the orderers need to build the
// dependency graph (Section III-A assumes read/write sets are pre-declared
// or obtained by static analysis).
type Operation struct {
	// Method names the contract function to invoke (e.g. "transfer").
	Method string
	// Params carries the method arguments in contract-defined order.
	Params []string
	// Reads is the set of record keys the operation will read.
	Reads []Key
	// Writes is the set of record keys the operation will write.
	Writes []Key
}

// Transaction is a client request flowing through the system. In the
// paper's notation this is <REQUEST, op, A, ts_c, c>_sigma_c together with
// the sequencing metadata the ordering phase attaches.
type Transaction struct {
	// ID uniquely identifies the transaction.
	ID TxID
	// App is the application the operation targets.
	App AppID
	// Client is the submitting client's identity (c).
	Client NodeID
	// ClientTS is the client-local timestamp (ts_c) used to totally order
	// the requests of each client and provide exactly-once semantics.
	ClientTS uint64
	// Op is the requested operation including read/write sets.
	Op Operation
	// SubmitUnixNano records the client's wall-clock submit instant and is
	// used only to measure end-to-end latency.
	SubmitUnixNano int64
	// Sig is the client's signature over Digest().
	Sig []byte
}

// Digest returns a deterministic SHA-256 digest of the transaction's
// signed fields. Both the client signature and the transaction ID are
// derived from this digest.
func (t *Transaction) Digest() Hash {
	w := AcquireWriter()
	w.Str(string(t.App))
	w.Str(string(t.Client))
	w.U64(t.ClientTS)
	w.Str(t.Op.Method)
	w.Strs(t.Op.Params)
	w.Strs(t.Op.Reads)
	w.Strs(t.Op.Writes)
	w.U64(uint64(t.SubmitUnixNano))
	return w.sumAndRelease()
}

// Reads returns the transaction's declared read set.
func (t *Transaction) Reads() []Key { return t.Op.Reads }

// Writes returns the transaction's declared write set.
func (t *Transaction) Writes() []Key { return t.Op.Writes }

// ConflictsWith reports whether the two transactions conflict, i.e. both
// access some common record and at least one of the accesses is a write.
// This is the paper's conflict predicate behind ordering dependencies.
func (t *Transaction) ConflictsWith(o *Transaction) bool {
	return intersects(t.Op.Writes, o.Op.Writes) ||
		intersects(t.Op.Reads, o.Op.Writes) ||
		intersects(t.Op.Writes, o.Op.Reads)
}

// intersects reports whether two key slices share an element. The slices
// are expected to be small; the quadratic scan avoids allocations.
func intersects(a, b []Key) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// NormalizeKeys sorts the keys and removes duplicates in place, returning
// the normalized slice. Orderers normalize read/write sets before graph
// construction so that graph generation is deterministic across replicas.
func NormalizeKeys(keys []Key) []Key {
	if len(keys) < 2 {
		return keys
	}
	sort.Strings(keys)
	out := keys[:1]
	for _, k := range keys[1:] {
		if k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}

// KV is a single updated record: the unit of execution results carried in
// COMMIT messages and applied to the blockchain state.
type KV struct {
	// Key names the record.
	Key Key
	// Val is the record's new value. A nil Val denotes deletion.
	Val []byte
}

// TxResult is the outcome of executing one transaction: either a set of
// updated records or an abort marker (the paper's (x, "abort") pair).
type TxResult struct {
	// TxID identifies the executed transaction.
	TxID TxID
	// Index is the transaction's position within its block.
	Index int
	// Aborted reports whether the transaction failed validation during
	// execution (e.g. insufficient funds). Aborted transactions commit "as
	// aborted": they occupy their slot in the block but write nothing.
	Aborted bool
	// AbortReason describes why the transaction aborted, for diagnostics.
	AbortReason string
	// Writes is the set of updated records produced by the execution.
	Writes []KV
}

// Digest returns a deterministic digest of the result used to count
// "matching" results from distinct executors (Algorithm 3). The executor
// identity is deliberately excluded: two executors match when they produce
// identical outcomes for the same transaction.
func (r *TxResult) Digest() Hash {
	w := AcquireWriter()
	w.Str(string(r.TxID))
	w.U64(uint64(r.Index))
	if r.Aborted {
		w.U64(1)
	} else {
		w.U64(0)
	}
	w.U64(uint64(len(r.Writes)))
	for _, kv := range r.Writes {
		w.Str(kv.Key)
		w.Blob(kv.Val)
	}
	return w.sumAndRelease()
}
