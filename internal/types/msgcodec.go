package types

import (
	"fmt"
)

// This file extends the binary codec to the executor-facing protocol
// messages (COMMIT, block segments and seals) and their constituents, so deployments can
// frame them without gob's per-stream type headers and so the decoders
// can be fuzzed: malformed input must return ErrCodec-wrapped errors,
// never panic, and never allocate proportionally to an attacker-chosen
// count that exceeds the input size.
//
// Every count-prefixed slice is therefore bounded by Remaining()/minSize
// before allocation, where minSize is the smallest possible encoding of
// one element; a count that could not possibly be backed by the input
// fails immediately instead of reserving capacity for it.

// Minimum encoded sizes, used to bound slice pre-allocation on decode.
const (
	minKVSize     = 8 + 1             // key length prefix + presence byte
	minResultSize = 8 + 8 + 1 + 8 + 8 // TxID, Index, abort flag, reason, write count
	minTxSize     = 9*8 + 8           // nine length/fixed words + sig prefix
)

// Raw appends n fixed-width bytes with no length prefix (hashes).
func (w *ByteWriter) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Raw reads n fixed-width bytes, shared with the input buffer.
func (r *ByteReader) Raw(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}

func (w *ByteWriter) hash(h Hash) { w.Raw(h[:]) }

func (r *ByteReader) hash() Hash {
	var h Hash
	copy(h[:], r.Raw(len(h)))
	return h
}

// WriteHash appends a fixed-width hash (no length prefix). Enclosing
// encodings (the durability subsystem's WAL records and snapshot
// manifests) embed hashes with it.
func (w *ByteWriter) WriteHash(h Hash) { w.hash(h) }

// ReadHash reads a fixed-width hash written by WriteHash.
func (r *ByteReader) ReadHash() Hash { return r.hash() }

// DecodeBlock consumes one block encoding (written by Block.MarshalTo)
// from the reader, so enclosing decoders — the WAL record codec in
// internal/persist, the state-sync response — can embed blocks. Malformed input
// sets the reader's error; allocation is bounded by the input size.
func DecodeBlock(r *ByteReader) *Block { return decodeBlock(r) }

// DecodeTxResults consumes a count-prefixed result list (one TxResult
// MarshalTo per element after a U64 count), with the count bounded by
// the remaining input before allocation.
func DecodeTxResults(r *ByteReader) []TxResult { return decodeTxResults(r) }

// MarshalTo appends the result's encoding. A nil write value (deletion)
// and an empty value are distinct on the wire: stores treat nil as a
// delete, so conflating them would turn empty writes into deletions.
func (res *TxResult) MarshalTo(w *ByteWriter) {
	w.Str(string(res.TxID))
	w.I64(int64(res.Index))
	if res.Aborted {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.Str(res.AbortReason)
	w.U64(uint64(len(res.Writes)))
	for _, kv := range res.Writes {
		w.Str(kv.Key)
		if kv.Val == nil {
			w.Byte(0)
		} else {
			w.Byte(1)
			w.Blob(kv.Val)
		}
	}
}

func decodeTxResult(r *ByteReader) TxResult {
	res := TxResult{
		TxID:  TxID(r.Str()),
		Index: int(r.I64()),
	}
	res.Aborted = r.Byte() == 1
	res.AbortReason = r.Str()
	n := r.U64()
	if r.err != nil || n > uint64(r.Remaining())/minKVSize {
		r.fail()
		return res
	}
	if n > 0 {
		res.Writes = make([]KV, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			kv := KV{Key: r.Str()}
			if r.Byte() == 1 {
				kv.Val = r.Blob()
				if kv.Val == nil {
					kv.Val = []byte{} // present but empty: not a deletion
				}
			}
			res.Writes = append(res.Writes, kv)
		}
	}
	return res
}

func decodeTxResults(r *ByteReader) []TxResult {
	n := r.U64()
	if r.err != nil || n > uint64(r.Remaining())/minResultSize {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]TxResult, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, decodeTxResult(r))
	}
	return out
}

// MarshalTo appends the block's encoding: the header followed by the
// transaction list.
func (b *Block) MarshalTo(w *ByteWriter) {
	w.U64(b.Header.Number)
	w.hash(b.Header.PrevHash)
	w.hash(b.Header.TxRoot)
	w.U64(uint64(b.Header.Count))
	w.U64(uint64(len(b.Txns)))
	for _, tx := range b.Txns {
		tx.MarshalTo(w)
	}
}

func decodeBlock(r *ByteReader) *Block {
	b := &Block{}
	b.Header.Number = r.U64()
	b.Header.PrevHash = r.hash()
	b.Header.TxRoot = r.hash()
	b.Header.Count = int(r.U64())
	n := r.U64()
	if r.err != nil || n > uint64(r.Remaining())/minTxSize {
		r.fail()
		return b
	}
	if n > 0 {
		b.Txns = make([]*Transaction, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			b.Txns = append(b.Txns, decodeTransaction(r))
		}
	}
	return b
}

// Marshal encodes the REQUEST message (a thin envelope over one
// transaction), including the transaction's client signature.
func (m *RequestMsg) Marshal() []byte {
	w := AcquireWriter()
	defer ReleaseWriter(w)
	if m.Tx == nil {
		w.Byte(0)
	} else {
		w.Byte(1)
		m.Tx.MarshalTo(w)
	}
	return w.CloneBytes()
}

// UnmarshalRequestMsg decodes a REQUEST message encoded by Marshal.
func UnmarshalRequestMsg(b []byte) (*RequestMsg, error) {
	r := NewByteReader(b)
	m := &RequestMsg{}
	if r.Byte() == 1 {
		m.Tx = decodeTransaction(r)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decoding REQUEST: %w", err)
	}
	return m, nil
}

// Marshal encodes the block segment, including its signature.
func (m *BlockSegmentMsg) Marshal() []byte {
	w := AcquireWriter()
	defer ReleaseWriter(w)
	w.U64(m.BlockNum)
	w.U64(uint64(m.Seg))
	w.U64(uint64(m.Start))
	w.U64(uint64(len(m.Txns)))
	for _, tx := range m.Txns {
		tx.MarshalTo(w)
	}
	for _, preds := range m.Preds {
		w.U64(uint64(len(preds)))
		for _, p := range preds {
			w.U64(uint64(p))
		}
	}
	w.Str(string(m.Orderer))
	w.Blob(m.Sig)
	return w.CloneBytes()
}

// maxSegmentPos bounds segment indices and block positions (start offset
// plus transaction count) on decode: far larger than any real block, and
// small enough that every admitted position fits an int32 and an int on
// any platform, so int32 pred conversions can never truncate or go
// negative.
const maxSegmentPos = 1<<31 - 2

// UnmarshalBlockSegmentMsg decodes a segment encoded by Marshal. The
// incremental edges are validated on the way in — every predecessor must
// be sorted, strictly increasing, and reference an earlier block index —
// so malformed or hostile segments fail here instead of corrupting an
// executor's scheduling state. Malformed input returns an error, never
// panics, and never allocates past the input size.
func UnmarshalBlockSegmentMsg(b []byte) (*BlockSegmentMsg, error) {
	r := NewByteReader(b)
	m := &BlockSegmentMsg{BlockNum: r.U64()}
	seg := r.U64()
	start := r.U64()
	n := r.U64()
	if r.err == nil && (seg > maxSegmentPos || start > maxSegmentPos ||
		n > uint64(r.Remaining())/minTxSize || start+n > maxSegmentPos) {
		r.fail()
	}
	if r.err != nil {
		return nil, fmt.Errorf("decoding SEGMENT: %w", r.Err())
	}
	m.Seg = int(seg)
	m.Start = int(start)
	if n > 0 {
		m.Txns = make([]*Transaction, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			m.Txns = append(m.Txns, decodeTransaction(r))
		}
		m.Preds = make([][]int32, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			cnt := r.U64()
			if r.err != nil || cnt > uint64(r.Remaining())/8 {
				r.fail()
				break
			}
			var preds []int32
			if cnt > 0 {
				preds = make([]int32, 0, cnt)
				prev := int64(-1)
				limit := start + i // preds of Start+i must be < Start+i
				for k := uint64(0); k < cnt && r.err == nil; k++ {
					p := r.U64()
					if p >= limit || int64(p) <= prev {
						r.fail()
						break
					}
					prev = int64(p)
					preds = append(preds, int32(p))
				}
			}
			m.Preds = append(m.Preds, preds)
		}
	}
	m.Orderer = NodeID(r.Str())
	m.Sig = r.Blob()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decoding SEGMENT: %w", err)
	}
	return m, nil
}

// Marshal encodes the block seal, including its signature.
func (m *BlockSealMsg) Marshal() []byte {
	w := AcquireWriter()
	defer ReleaseWriter(w)
	w.U64(m.Header.Number)
	w.hash(m.Header.PrevHash)
	w.hash(m.Header.TxRoot)
	w.U64(uint64(m.Header.Count))
	w.U64(uint64(m.Segments))
	w.hash(m.Cum)
	apps := make([]string, len(m.Apps))
	for i, a := range m.Apps {
		apps[i] = string(a)
	}
	w.Strs(apps)
	w.Str(string(m.Orderer))
	w.Blob(m.Sig)
	return w.CloneBytes()
}

// UnmarshalBlockSealMsg decodes a seal encoded by Marshal. Malformed
// input returns an error, never panics.
func UnmarshalBlockSealMsg(b []byte) (*BlockSealMsg, error) {
	r := NewByteReader(b)
	m := &BlockSealMsg{}
	m.Header.Number = r.U64()
	m.Header.PrevHash = r.hash()
	m.Header.TxRoot = r.hash()
	count := r.U64()
	segs := r.U64()
	if r.err == nil && (count > maxSegmentPos || segs > maxSegmentPos) {
		r.fail()
	}
	m.Header.Count = int(count)
	m.Segments = int(segs)
	m.Cum = r.hash()
	for _, a := range r.Strs() {
		m.Apps = append(m.Apps, AppID(a))
	}
	m.Orderer = NodeID(r.Str())
	m.Sig = r.Blob()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decoding SEAL: %w", err)
	}
	return m, nil
}

// Marshal encodes the COMMIT message, including its signature.
func (m *CommitMsg) Marshal() []byte {
	w := AcquireWriter()
	defer ReleaseWriter(w)
	w.U64(m.BlockNum)
	w.U64(uint64(len(m.Results)))
	for i := range m.Results {
		m.Results[i].MarshalTo(w)
	}
	w.Str(string(m.Executor))
	w.Blob(m.Sig)
	return w.CloneBytes()
}

// UnmarshalCommitMsg decodes a COMMIT message encoded by Marshal.
// Malformed input returns an error, never panics.
func UnmarshalCommitMsg(b []byte) (*CommitMsg, error) {
	r := NewByteReader(b)
	m := &CommitMsg{BlockNum: r.U64()}
	m.Results = decodeTxResults(r)
	m.Executor = NodeID(r.Str())
	m.Sig = r.Blob()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decoding COMMIT: %w", err)
	}
	return m, nil
}
