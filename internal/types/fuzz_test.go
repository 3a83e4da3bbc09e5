package types

import (
	"bytes"
	"testing"
)

// The codec fuzz contract: arbitrary input must either decode or return
// an error — never panic, never over-allocate past the input size — and
// anything that decodes must re-encode stably (decode(encode(decode(x)))
// is a fixed point). Seed corpora live in testdata/fuzz and are run as
// regression inputs by plain `go test`.

func fuzzTx() *Transaction {
	return &Transaction{
		ID:       "tx-1",
		App:      "app1",
		Client:   "c1",
		ClientTS: 7,
		Op: Operation{
			Method: "transfer",
			Params: []string{"a", "b", "5"},
			Reads:  []string{"a", "b"},
			Writes: []string{"a", "b"},
		},
		SubmitUnixNano: 1234567,
		Sig:            []byte{1, 2, 3},
	}
}

func FuzzUnmarshalTransaction(f *testing.F) {
	f.Add(fuzzTx().Marshal())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		tx, err := UnmarshalTransaction(data)
		if err != nil {
			return
		}
		enc := tx.Marshal()
		tx2, err := UnmarshalTransaction(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if !bytes.Equal(enc, tx2.Marshal()) {
			t.Fatal("transaction encoding is not a fixed point")
		}
	})
}

func FuzzUnmarshalCommitMsg(f *testing.F) {
	msg := &CommitMsg{
		BlockNum: 5,
		Results: []TxResult{
			{TxID: "tx-1", Index: 0, Writes: []KV{{Key: "a", Val: []byte("1")}, {Key: "d"}}},
			{TxID: "tx-2", Index: 1, Aborted: true, AbortReason: "broke"},
		},
		Executor: "e1",
		Sig:      []byte{4, 5},
	}
	f.Add(msg.Marshal())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xfe}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalCommitMsg(data)
		if err != nil {
			return
		}
		enc := m.Marshal()
		m2, err := UnmarshalCommitMsg(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if !bytes.Equal(enc, m2.Marshal()) {
			t.Fatal("COMMIT encoding is not a fixed point")
		}
	})
}

func fuzzSegment() *BlockSegmentMsg {
	return &BlockSegmentMsg{
		BlockNum: 4,
		Seg:      2,
		Start:    5,
		Txns:     []*Transaction{fuzzTx(), fuzzTx()},
		Preds:    [][]int32{{0, 3}, {1, 5}},
		Orderer:  "o1",
		Sig:      []byte{7},
	}
}

func FuzzUnmarshalBlockSegmentMsg(f *testing.F) {
	f.Add(fuzzSegment().Marshal())
	empty := &BlockSegmentMsg{BlockNum: 1, Orderer: "o2"}
	f.Add(empty.Marshal())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalBlockSegmentMsg(data)
		if err != nil {
			return
		}
		// The decoder must only admit structurally valid edge lists.
		for i, preds := range m.Preds {
			prev := int32(-1)
			for _, p := range preds {
				if int(p) >= m.Start+i || p <= prev {
					t.Fatalf("decoder admitted invalid pred %d for tx %d (start %d)", p, i, m.Start)
				}
				prev = p
			}
		}
		enc := m.Marshal()
		m2, err := UnmarshalBlockSegmentMsg(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if !bytes.Equal(enc, m2.Marshal()) {
			t.Fatal("SEGMENT encoding is not a fixed point")
		}
	})
}

func FuzzUnmarshalBlockSealMsg(f *testing.F) {
	seal := &BlockSealMsg{
		Header:   BlockHeader{Number: 9, PrevHash: Hash{1}, TxRoot: Hash{2}, Count: 12},
		Segments: 3,
		Cum:      Hash{3},
		Apps:     []AppID{"app1", "app2"},
		Orderer:  "o1",
		Sig:      []byte{8},
	}
	f.Add(seal.Marshal())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 90))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalBlockSealMsg(data)
		if err != nil {
			return
		}
		enc := m.Marshal()
		m2, err := UnmarshalBlockSealMsg(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if !bytes.Equal(enc, m2.Marshal()) {
			t.Fatal("SEAL encoding is not a fixed point")
		}
	})
}

// TestStreamMsgCodecRoundTrip pins exact round trips for the streaming
// message codecs: digests (the values signed and chained into the seal)
// must survive the wire byte for byte.
func TestStreamMsgCodecRoundTrip(t *testing.T) {
	seg := fuzzSegment()
	back, err := UnmarshalBlockSegmentMsg(seg.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Digest() != seg.Digest() {
		t.Fatal("SEGMENT digest changed across the wire")
	}
	if back.Seg != seg.Seg || back.Start != seg.Start || len(back.Txns) != len(seg.Txns) {
		t.Fatalf("segment fields changed: %+v", back)
	}
	for i := range seg.Preds {
		for k := range seg.Preds[i] {
			if back.Preds[i][k] != seg.Preds[i][k] {
				t.Fatalf("preds changed: %v vs %v", back.Preds[i], seg.Preds[i])
			}
		}
	}

	seal := &BlockSealMsg{
		Header:   BlockHeader{Number: 3, PrevHash: Hash{4}, TxRoot: Hash{5}, Count: 7},
		Segments: 2,
		Cum:      ChainSegmentDigest(ZeroHash, seg.Digest()),
		Apps:     []AppID{"app1"},
		Orderer:  "o2",
		Sig:      []byte{1, 2},
	}
	sealBack, err := UnmarshalBlockSealMsg(seal.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if sealBack.Digest() != seal.Digest() {
		t.Fatal("SEAL digest changed across the wire")
	}
	if sealBack.Header != seal.Header || sealBack.Segments != seal.Segments || sealBack.Cum != seal.Cum {
		t.Fatalf("seal fields changed: %+v", sealBack)
	}

	req := &RequestMsg{Tx: fuzzTx()}
	reqBack, err := UnmarshalRequestMsg(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if reqBack.Tx.Digest() != req.Tx.Digest() {
		t.Fatal("REQUEST transaction digest changed across the wire")
	}
	nilReq, err := UnmarshalRequestMsg((&RequestMsg{}).Marshal())
	if err != nil || nilReq.Tx != nil {
		t.Fatalf("nil-transaction REQUEST mishandled: %v %+v", err, nilReq)
	}
}

// TestMsgCodecRoundTrip pins exact round trips for the new message
// codecs, including the nil-vs-empty write value distinction (nil is a
// deletion and must survive the wire).
func TestMsgCodecRoundTrip(t *testing.T) {
	commit := &CommitMsg{
		BlockNum: 9,
		Results: []TxResult{
			{TxID: "t1", Index: 0, Writes: []KV{
				{Key: "k", Val: []byte("v")},
				{Key: "del", Val: nil},
				{Key: "empty", Val: []byte{}},
			}},
		},
		Executor: "e2",
		Sig:      []byte{1},
	}
	got, err := UnmarshalCommitMsg(commit.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	w := got.Results[0].Writes
	if w[1].Val != nil {
		t.Fatal("deletion write became a value")
	}
	if w[2].Val == nil {
		t.Fatal("empty write became a deletion")
	}
	if got.Digest() != commit.Digest() {
		t.Fatal("COMMIT digest changed across the wire")
	}

	tx := fuzzTx()
	block := NewBlock(1, Hash{7}, []*Transaction{tx})
	bw := AcquireWriter()
	defer ReleaseWriter(bw)
	block.MarshalTo(bw)
	r := NewByteReader(bw.CloneBytes())
	back := DecodeBlock(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if back.Hash() != block.Hash() {
		t.Fatal("block hash changed across the wire")
	}
	if !back.VerifyTxRoot() {
		t.Fatal("tx root no longer verifies after round trip")
	}
}
