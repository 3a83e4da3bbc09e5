package state

import (
	"strings"
	"testing"

	"parblockchain/internal/types"
)

// TestOverlayChainReadsNewestPredecessorWrite covers the pipelined
// chaining contract: an overlay stacked on another overlay sees the
// predecessor's uncommitted writes, its own writes win, and deletions
// shadow through the chain.
func TestOverlayChainReadsNewestPredecessorWrite(t *testing.T) {
	store := NewKVStore()
	store.Apply([]types.KV{{Key: "a", Val: []byte("base")}, {Key: "d", Val: []byte("x")}})
	prev := NewBlockOverlay(store)
	prev.Record(0, []types.KV{{Key: "a", Val: []byte("prev")}, {Key: "d", Val: nil}})
	next := NewBlockOverlay(prev)
	if v, ok := next.Get("a"); !ok || string(v) != "prev" {
		t.Fatalf("chained read = %q,%v, want predecessor's uncommitted write", v, ok)
	}
	if _, ok := next.Get("d"); ok {
		t.Fatal("predecessor's deletion must shadow the store through the chain")
	}
	next.Record(0, []types.KV{{Key: "a", Val: []byte("next")}})
	if v, _ := next.Get("a"); string(v) != "next" {
		t.Fatalf("own write must win, got %q", v)
	}
}

// TestOverlayRebase covers the finalize handoff: once a predecessor's
// writes are applied to the store, rebasing its successor onto the store
// must not change what the successor reads — and must release the
// predecessor overlay from the read chain.
func TestOverlayRebase(t *testing.T) {
	store := NewKVStore()
	store.Apply([]types.KV{{Key: "a", Val: []byte("base")}})
	prev := NewBlockOverlay(store)
	prev.Record(0, []types.KV{{Key: "a", Val: []byte("v1")}, {Key: "gone", Val: nil}, {Key: "b", Val: []byte("w")}})
	next := NewBlockOverlay(prev)

	// Finalize prev exactly as the executor does, then rebase.
	store.Apply(prev.Final())
	next.Rebase(store)

	if v, ok := next.Get("a"); !ok || string(v) != "v1" {
		t.Fatalf("post-rebase read = %q,%v, want finalized value v1", v, ok)
	}
	if v, ok := next.Get("b"); !ok || string(v) != "w" {
		t.Fatalf("post-rebase read = %q,%v, want finalized value w", v, ok)
	}
	if _, ok := next.Get("gone"); ok {
		t.Fatal("finalized deletion resurfaced after rebase")
	}
	// New store writes are now visible directly (prev is out of the chain).
	store.Put("fresh", []byte("f"))
	if v, ok := next.Get("fresh"); !ok || string(v) != "f" {
		t.Fatalf("rebase did not swing reads to the store: %q,%v", v, ok)
	}
}

// TestOverlayPurgeIdx covers revoking one transaction's writes: older
// versions resurface through Get, At and Warm, a key nobody else wrote
// falls through to the base and leaves Final, a later re-record wins
// again, and purging an index that wrote nothing changes nothing. The
// base holds k=base; n is absent from it.
func TestOverlayPurgeIdx(t *testing.T) {
	type read struct {
		bound int // reader's block index; -1 reads through the unbound Get
		key   types.Key
		want  string // "" means absent
	}
	rec := func(o *BlockOverlay, idx int, kvs ...string) {
		writes := make([]types.KV, len(kvs))
		for i, kv := range kvs {
			k, v, _ := strings.Cut(kv, "=")
			writes[i] = types.KV{Key: k, Val: []byte(v)}
		}
		o.Record(idx, writes)
	}
	cases := []struct {
		name  string
		ops   func(o *BlockOverlay)
		reads []read
		final string // Final rendered as "key=val,..."
	}{
		{
			name: "purging one of two writers uncovers the older version",
			ops: func(o *BlockOverlay) {
				rec(o, 1, "k=v1")
				rec(o, 3, "k=v3")
				o.PurgeIdx(3)
			},
			reads: []read{
				{-1, "k", "v1"},
				{9, "k", "v1"},
				{4, "k", "v1"},
				{2, "k", "v1"},
				{1, "k", "base"},
			},
			final: "k=v1",
		},
		{
			name: "purging the only writer falls through to the base",
			ops: func(o *BlockOverlay) {
				rec(o, 2, "k=v2", "n=n2")
				o.PurgeIdx(2)
			},
			reads: []read{
				{-1, "k", "base"},
				{-1, "n", ""},
				{3, "k", "base"},
				{3, "n", ""},
			},
			final: "",
		},
		{
			name: "re-recording after a purge wins again",
			ops: func(o *BlockOverlay) {
				rec(o, 1, "k=v1")
				rec(o, 2, "k=v2", "n=n2")
				o.PurgeIdx(2)
				rec(o, 2, "k=v2b", "n=n2b")
			},
			reads: []read{
				{-1, "k", "v2b"},
				{-1, "n", "n2b"},
				{3, "k", "v2b"},
				{2, "k", "v1"},
				{2, "n", ""},
			},
			final: "k=v2b,n=n2b",
		},
		{
			name: "purging an index that wrote nothing is a no-op",
			ops: func(o *BlockOverlay) {
				rec(o, 1, "k=v1", "n=n1")
				o.PurgeIdx(7)
				o.PurgeIdx(0)
			},
			reads: []read{
				{-1, "k", "v1"},
				{-1, "n", "n1"},
				{8, "k", "v1"},
				{1, "k", "base"},
				{1, "n", ""},
			},
			final: "k=v1,n=n1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := NewKVStore()
			base.Put("k", []byte("base"))
			o := NewBlockOverlay(base)
			tc.ops(o)
			for _, r := range tc.reads {
				var rd Reader = o
				if r.bound >= 0 {
					rd = o.At(r.bound)
				}
				v, ok := rd.Get(r.key)
				if got := string(v); ok != (r.want != "") || got != r.want {
					t.Errorf("bound %d: Get(%q) = %q,%v, want %q", r.bound, r.key, got, ok, r.want)
				}
				if r.bound >= 0 {
					continue
				}
				// Warm must agree with the unbound Get.
				if n, cold, ok := o.Warm(r.key); cold || ok != (r.want != "") || n != len(r.want) {
					t.Errorf("Warm(%q) = %d,%v,%v, want %d,false,%v", r.key, n, cold, ok, len(r.want), r.want != "")
				}
			}
			var final []string
			for _, kv := range o.Final() {
				final = append(final, kv.Key+"="+string(kv.Val))
			}
			if got := strings.Join(final, ","); got != tc.final {
				t.Errorf("Final = %q, want %q", got, tc.final)
			}
		})
	}
}
