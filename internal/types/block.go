package types

import (
	"crypto/sha256"
	"encoding/binary"
)

// BlockHeader carries the chaining metadata of a block. Headers are hashed
// to link blocks: each header embeds the hash of the previous block
// (h = H(B') in the paper's NEWBLOCK message).
type BlockHeader struct {
	// Number is the block's sequence number n; the genesis block is 0.
	Number uint64
	// PrevHash is the hash of the previous block's header.
	PrevHash Hash
	// TxRoot is the Merkle root over the digests of the block's
	// transactions, committing the header to the block body.
	TxRoot Hash
	// Count is the number of transactions in the block.
	Count int
}

// Block is an ordered batch of transactions produced by the ordering
// phase. Orderers cut blocks on three deterministic conditions: maximum
// transaction count, maximum byte size, or a timeout signalled through
// consensus (Section IV-B).
type Block struct {
	// Header is the chaining metadata.
	Header BlockHeader
	// Txns are the block's transactions in their agreed total order. The
	// position of a transaction in this slice is its timestamp ts(T)
	// relative to the other transactions of the block.
	Txns []*Transaction
}

// Hash returns the block's identity: a digest of its header.
func (b *Block) Hash() Hash { return b.Header.hash() }

func (h *BlockHeader) hash() Hash {
	w := AcquireWriter()
	w.U64(h.Number)
	w.Blob(h.PrevHash[:])
	w.Blob(h.TxRoot[:])
	w.U64(uint64(h.Count))
	return w.sumAndRelease()
}

// NewBlock assembles a block over txns, linking it to the previous block
// hash and committing the header to the transaction list via a Merkle
// root.
func NewBlock(number uint64, prev Hash, txns []*Transaction) *Block {
	return NewBlockWithRoot(number, prev, txns, TxMerkleRoot(txns))
}

// NewBlockWithRoot is NewBlock for a caller that already holds the
// Merkle root over txns (built with MerkleRoot from digests it computed
// anyway), sparing a second hash of every transaction.
func NewBlockWithRoot(number uint64, prev Hash, txns []*Transaction, root Hash) *Block {
	return &Block{
		Header: BlockHeader{
			Number:   number,
			PrevHash: prev,
			TxRoot:   root,
			Count:    len(txns),
		},
		Txns: txns,
	}
}

// TxMerkleRoot computes the Merkle root over the transactions' digests
// (see MerkleRoot). An empty transaction list yields the zero hash.
func TxMerkleRoot(txns []*Transaction) Hash {
	if len(txns) == 0 {
		return ZeroHash
	}
	leaves := make([]Hash, len(txns))
	for i, tx := range txns {
		leaves[i] = tx.Digest()
	}
	return MerkleRoot(leaves)
}

// MerkleRoot computes the Merkle root over leaf digests. Each interior
// node hashes the length-prefixed pair u64(32)‖left‖u64(32)‖right, and
// odd levels duplicate the trailing node, the conventional Bitcoin-style
// padding. No leaves yield the zero hash. The fold runs in place: leaves
// is overwritten, so pass a slice the caller no longer needs.
func MerkleRoot(leaves []Hash) Hash {
	if len(leaves) == 0 {
		return ZeroHash
	}
	// The preimage buffer: 8+32 bytes per child, length prefixes fixed.
	var pair [2 * (8 + sha256.Size)]byte
	binary.BigEndian.PutUint64(pair[0:], sha256.Size)
	binary.BigEndian.PutUint64(pair[8+sha256.Size:], sha256.Size)
	left, right := pair[8:8+sha256.Size], pair[16+sha256.Size:]
	level := leaves
	for len(level) > 1 {
		n := 0
		for i := 0; i < len(level); i += 2 {
			j := i + 1
			if j == len(level) {
				j = i // duplicate the odd trailing node
			}
			copy(left, level[i][:])
			copy(right, level[j][:])
			level[n] = sha256.Sum256(pair[:])
			n++
		}
		level = level[:n]
	}
	return level[0]
}

// Apps returns the set of application IDs with at least one transaction in
// the block (the A component of the NEWBLOCK message), in first-seen
// order.
func (b *Block) Apps() []AppID {
	seen := make(map[AppID]bool, 4)
	apps := make([]AppID, 0, 4)
	for _, tx := range b.Txns {
		if !seen[tx.App] {
			seen[tx.App] = true
			apps = append(apps, tx.App)
		}
	}
	return apps
}

// VerifyTxRoot recomputes the Merkle root of the block body and reports
// whether it matches the header commitment.
func (b *Block) VerifyTxRoot() bool {
	return TxMerkleRoot(b.Txns) == b.Header.TxRoot
}
