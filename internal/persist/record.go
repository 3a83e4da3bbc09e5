package persist

import (
	"fmt"

	"parblockchain/internal/types"
)

// This file defines the WAL record — one finalization event of the
// executor pipeline — and its binary codec. The codec follows the fuzz
// contract of internal/types: malformed input returns an ErrCodec-wrapped
// error, never panics, and never allocates proportionally to an
// attacker-chosen count that exceeds the input size; anything that
// decodes re-encodes to a fixed point.

// recordVersion is the on-disk version byte every WAL record starts
// with; decoders reject versions they do not understand, so the format
// can evolve without silently misreading old logs. Version 2 added the
// seal parameters (SealSegments, SealCum) that let a state-sync
// requester recompute a streamed block's endorsed seal digest; version-1
// records still decode (the seal fields stay zero), but cannot serve as
// sync evidence for streamed blocks.
const (
	recordVersion   = 2
	recordVersionV1 = 1
)

// Minimum encoded sizes, bounding slice pre-allocation on decode.
const (
	minDeltaKVSize    = 8 + 1 // key length prefix + presence byte
	minEndorsementLen = 8 + 8 // node length prefix + sig length prefix
)

// Endorsement is one orderer's signature over the content digest a
// quorum agreed on — retained in the WAL as evidence of why the block
// was finalized. Recovery does not re-verify these signatures (a record
// that passed its checksum is this node's own trusted history); they
// exist so an operator or auditor can tie every durable block back to
// the quorum that endorsed it.
type Endorsement struct {
	// Node is the endorsing orderer.
	Node types.NodeID
	// Sig is the orderer's signature over the endorsed digest (the
	// block's seal digest).
	Sig []byte
}

// BlockRecord is one finalization event: everything recovery needs to
// replay the block's effect on the store and the ledger, plus the quorum
// evidence and the post-apply state hash the replay is verified against.
type BlockRecord struct {
	// Block is the finalized block, bit-identical to the ledger entry.
	Block *types.Block
	// Results holds the final per-transaction results in block order.
	Results []types.TxResult
	// Delta is the block's net state effect (the overlay's Final batch):
	// applying it to the pre-block store yields the post-block store. A
	// nil value inside a KV is a deletion and survives the codec.
	Delta []types.KV
	// StateHash is the store's incremental XOR-of-SHA256 hash after
	// Delta was applied; recovery recomputes and compares it per record.
	StateHash types.Hash
	// Streamed reports whether the endorsements are over a BlockSealMsg
	// digest. Executors always write true: every block travels as
	// segments plus a seal. False marks a record written before that,
	// endorsed as a monolithic NEWBLOCK; local recovery still replays it,
	// but state sync rejects it, since no orderer signs that digest now.
	Streamed bool
	// EvidenceDigest is the content digest the quorum endorsed.
	EvidenceDigest types.Hash
	// SealSegments and SealCum are the block's seal parameters (segment
	// count and cumulative segment digest). A state-sync requester needs them to reconstruct the
	// BlockSealMsg digest the endorsements are over — the block alone
	// does not determine how it was segmented.
	SealSegments int
	SealCum      types.Hash
	// Endorse lists the quorum's endorsements, sorted by node ID.
	Endorse []Endorsement
}

// Marshal encodes the record with the versioned WAL record codec.
func (rec *BlockRecord) Marshal() []byte {
	w := types.AcquireWriter()
	defer types.ReleaseWriter(w)
	rec.marshalTo(w)
	return w.CloneBytes()
}

// marshalTo appends the record's encoding, so the WAL append path can
// frame it in the same pooled buffer without an intermediate copy.
func (rec *BlockRecord) marshalTo(w *types.ByteWriter) {
	w.Byte(recordVersion)
	rec.Block.MarshalTo(w)
	w.U64(uint64(len(rec.Results)))
	for i := range rec.Results {
		rec.Results[i].MarshalTo(w)
	}
	marshalKVs(w, rec.Delta)
	w.WriteHash(rec.StateHash)
	w.Bool(rec.Streamed)
	w.WriteHash(rec.EvidenceDigest)
	w.U64(uint64(rec.SealSegments))
	w.WriteHash(rec.SealCum)
	w.U64(uint64(len(rec.Endorse)))
	for _, e := range rec.Endorse {
		w.Str(string(e.Node))
		w.Blob(e.Sig)
	}
}

// UnmarshalBlockRecord decodes a record encoded by Marshal. Malformed
// input returns an error, never panics.
func UnmarshalBlockRecord(b []byte) (*BlockRecord, error) {
	r := types.NewByteReader(b)
	version := r.Byte()
	if r.Err() == nil && version != recordVersion && version != recordVersionV1 {
		return nil, fmt.Errorf("persist: unsupported WAL record version %d", version)
	}
	rec := &BlockRecord{Block: types.DecodeBlock(r)}
	rec.Results = types.DecodeTxResults(r)
	rec.Delta = decodeKVs(r)
	rec.StateHash = r.ReadHash()
	rec.Streamed = r.Bool()
	rec.EvidenceDigest = r.ReadHash()
	if version >= recordVersion {
		segs := r.U64()
		if r.Err() == nil && segs > 1<<31-2 {
			r.Fail() // a segment count no real block could carry
		}
		rec.SealSegments = int(segs)
		rec.SealCum = r.ReadHash()
	}
	n := r.U64()
	if r.Err() == nil && n > uint64(r.Remaining())/minEndorsementLen {
		r.Fail()
	}
	if n > 0 && r.Err() == nil {
		rec.Endorse = make([]Endorsement, 0, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			rec.Endorse = append(rec.Endorse, Endorsement{
				Node: types.NodeID(r.Str()),
				Sig:  r.Blob(),
			})
		}
	}
	if err := types.FinishDecode(r, "WAL record"); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return rec, nil
}

// marshalKVs appends a count-prefixed KV batch. A nil value (deletion)
// and an empty value are distinct on the wire, exactly as in the COMMIT
// result codec: conflating them would turn empty writes into deletions
// on replay.
func marshalKVs(w *types.ByteWriter, kvs []types.KV) {
	w.U64(uint64(len(kvs)))
	for _, kv := range kvs {
		w.Str(kv.Key)
		if kv.Val == nil {
			w.Byte(0)
		} else {
			w.Byte(1)
			w.Blob(kv.Val)
		}
	}
}

func decodeKVs(r *types.ByteReader) []types.KV {
	n := r.U64()
	if r.Err() != nil || n > uint64(r.Remaining())/minDeltaKVSize {
		r.Fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]types.KV, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		kv := types.KV{Key: r.Str()}
		switch r.Byte() {
		case 0: // deletion: Val stays nil
		case 1:
			kv.Val = r.Blob()
			if kv.Val == nil {
				kv.Val = []byte{} // present but empty: not a deletion
			}
		default:
			// Anything else is a malformed record, not a deletion — a
			// flipped presence byte must fail the decode, not silently
			// delete a key the delta meant to write.
			r.Fail()
		}
		out = append(out, kv)
	}
	return out
}
