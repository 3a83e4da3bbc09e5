package types

// This file defines the peer-served catch-up messages. A lagging or
// restarted executor whose pipeline watchdog fires sends a
// StateSyncRequestMsg to one peer at a time; the peer answers with a
// StateSyncResponseMsg served from its durable artifacts (WAL
// finalization records, or snapshot chunks when the requester is below
// the peer's WAL truncation point). The requester independently
// verifies everything it adopts — quorum evidence, chain linkage, and
// the post-apply state hash — so responses are hints to be checked, not
// trusted transfers.

// State sync request/response kinds.
const (
	// SyncKindRecords asks for (or carries) consecutive finalization
	// records starting at From.
	SyncKindRecords byte = 0
	// SyncKindSnapshot asks for (or carries) one chunk of a state
	// snapshot file, for requesters below the peer's WAL floor.
	SyncKindSnapshot byte = 1
	// SyncKindNothing is a response only: the peer has nothing durable
	// above the requested height.
	SyncKindNothing byte = 2
)

// StateSyncRequestMsg asks a peer for missing history. Kind selects the
// artifact: SyncKindRecords requests finalization records from height
// From; SyncKindSnapshot requests chunk Chunk of the peer's snapshot at
// height From (the height and chunk count learned from a prior
// SyncKindSnapshot response).
type StateSyncRequestMsg struct {
	// Kind is SyncKindRecords or SyncKindSnapshot.
	Kind byte
	// From is the first height requested (records) or the snapshot
	// height (snapshot chunks).
	From uint64
	// Chunk is the zero-based snapshot chunk index (snapshot kind only).
	Chunk uint64
	// MaxBytes caps the response payload the requester will accept;
	// servers clamp it to their own budget.
	MaxBytes uint64
	// Requester is the asking node, so the peer can address the reply.
	Requester NodeID
	// Nonce ties the response to this request, so a stale reply from a
	// slow peer cannot satisfy a newer attempt.
	Nonce uint64
	// Sig is the requester's signature over Digest().
	Sig []byte
}

// Digest returns the signed digest of the request.
func (m *StateSyncRequestMsg) Digest() Hash {
	w := AcquireWriter()
	w.U64(uint64(m.Kind))
	w.U64(m.From)
	w.U64(m.Chunk)
	w.U64(m.MaxBytes)
	w.Str(string(m.Requester))
	w.U64(m.Nonce)
	return w.sumAndRelease()
}

// ApproxSize estimates the request's wire size.
func (m *StateSyncRequestMsg) ApproxSize() int {
	return len(m.Requester) + len(m.Sig) + 48
}

// StateSyncResponseMsg answers one request. A records request is
// answered with SyncKindRecords when the peer still holds WAL records
// at the requested height, with SyncKindSnapshot (chunk 0 of the peer's
// newest snapshot) when the requester is below the peer's WAL floor, or
// with SyncKindNothing when the peer has nothing above the requested
// height. The requester verifies every record (chain linkage, quorum
// evidence, post-apply state hash) before adopting anything.
type StateSyncResponseMsg struct {
	// Nonce echoes the request's nonce.
	Nonce uint64
	// Kind is SyncKindRecords, SyncKindSnapshot, or SyncKindNothing.
	Kind byte
	// From is the height of Records[0] (records kind).
	From uint64
	// Records holds consecutive marshaled persist.BlockRecord encodings
	// starting at From (records kind). They stay opaque bytes here so the
	// types package does not depend on persist; the requester decodes and
	// verifies each.
	Records [][]byte
	// SnapHeight is the height of the snapshot being transferred
	// (snapshot kind).
	SnapHeight uint64
	// ChunkIdx is the zero-based index of Chunk within the snapshot file.
	ChunkIdx uint64
	// Chunks is the total number of chunks in the snapshot file.
	Chunks uint64
	// Chunk is the raw snapshot file slice (snapshot kind). The file's
	// own CRC and manifest are verified after reassembly.
	Chunk []byte
	// Height is the responder's durable tip (next height it would log),
	// letting the requester size the remaining gap.
	Height uint64
	// Responder is the answering node.
	Responder NodeID
	// Sig is the responder's signature over Digest().
	Sig []byte
}

// Digest returns the signed digest of the response.
func (m *StateSyncResponseMsg) Digest() Hash {
	w := AcquireWriter()
	w.U64(m.Nonce)
	w.U64(uint64(m.Kind))
	w.U64(m.From)
	w.U64(uint64(len(m.Records)))
	for _, rec := range m.Records {
		w.Blob(rec)
	}
	w.U64(m.SnapHeight)
	w.U64(m.ChunkIdx)
	w.U64(m.Chunks)
	w.Blob(m.Chunk)
	w.U64(m.Height)
	w.Str(string(m.Responder))
	return w.sumAndRelease()
}

// ApproxSize estimates the response's wire size.
func (m *StateSyncResponseMsg) ApproxSize() int {
	size := len(m.Responder) + len(m.Sig) + len(m.Chunk) + 80
	for _, rec := range m.Records {
		size += len(rec) + 8
	}
	return size
}

// Marshal encodes the request with the hand-rolled binary codec.
func (m *StateSyncRequestMsg) Marshal() []byte {
	w := AcquireWriter()
	defer ReleaseWriter(w)
	w.Byte(m.Kind)
	w.U64(m.From)
	w.U64(m.Chunk)
	w.U64(m.MaxBytes)
	w.Str(string(m.Requester))
	w.U64(m.Nonce)
	w.Blob(m.Sig)
	return w.CloneBytes()
}

// UnmarshalStateSyncRequest decodes a request encoded by Marshal.
// Malformed input returns an error, never panics.
func UnmarshalStateSyncRequest(b []byte) (*StateSyncRequestMsg, error) {
	r := NewByteReader(b)
	m := &StateSyncRequestMsg{
		Kind:     r.Byte(),
		From:     r.U64(),
		Chunk:    r.U64(),
		MaxBytes: r.U64(),
	}
	m.Requester = NodeID(r.Str())
	m.Nonce = r.U64()
	m.Sig = r.Blob()
	if r.Err() == nil && m.Kind > SyncKindSnapshot {
		r.Fail() // requests only name an artifact kind
	}
	if err := FinishDecode(r, "STATE-SYNC-REQUEST"); err != nil {
		return nil, err
	}
	return m, nil
}

// Marshal encodes the response with the hand-rolled binary codec.
func (m *StateSyncResponseMsg) Marshal() []byte {
	w := AcquireWriter()
	defer ReleaseWriter(w)
	w.U64(m.Nonce)
	w.Byte(m.Kind)
	w.U64(m.From)
	w.U64(uint64(len(m.Records)))
	for _, rec := range m.Records {
		w.Blob(rec)
	}
	w.U64(m.SnapHeight)
	w.U64(m.ChunkIdx)
	w.U64(m.Chunks)
	w.Blob(m.Chunk)
	w.U64(m.Height)
	w.Str(string(m.Responder))
	w.Blob(m.Sig)
	return w.CloneBytes()
}

// UnmarshalStateSyncResponse decodes a response encoded by Marshal. The
// record count is bounded by the smallest possible encoding of one
// record (its 8-byte length prefix), so a hostile count cannot reserve
// a slice the input could not back. Malformed input returns an error,
// never panics.
func UnmarshalStateSyncResponse(b []byte) (*StateSyncResponseMsg, error) {
	r := NewByteReader(b)
	m := &StateSyncResponseMsg{
		Nonce: r.U64(),
		Kind:  r.Byte(),
		From:  r.U64(),
	}
	n := r.U64()
	if r.Err() == nil && n > uint64(r.Remaining())/8 {
		r.Fail()
	}
	if n > 0 && r.Err() == nil {
		m.Records = make([][]byte, 0, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			m.Records = append(m.Records, r.Blob())
		}
	}
	m.SnapHeight = r.U64()
	m.ChunkIdx = r.U64()
	m.Chunks = r.U64()
	m.Chunk = r.Blob()
	m.Height = r.U64()
	m.Responder = NodeID(r.Str())
	m.Sig = r.Blob()
	if r.Err() == nil && m.Kind > SyncKindNothing {
		r.Fail()
	}
	if err := FinishDecode(r, "STATE-SYNC-RESPONSE"); err != nil {
		return nil, err
	}
	return m, nil
}
