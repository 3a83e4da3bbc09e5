package state

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"parblockchain/internal/types"
)

// BlockOverlay layers the in-flight results of one block's transactions
// over the committed store. During OXII execution a transaction must read
// the values written by its dependency-graph predecessors, which may be
// locally executed but not yet globally committed; the overlay provides
// that view without mutating the committed state until the whole block
// finalizes.
//
// Writes are tagged with the writing transaction's index in the block and
// retained per key as an index-sorted version list. A reader bound to a
// transaction index (At) observes only writes strictly below its index —
// the state a sequential execution of the block's prefix would leave
// behind — which stays correct even when executions land out of graph
// order: a transaction whose worker is still running while a successor
// records its writes (a remote quorum satisfied it early), or one the
// speculative scheduler re-executes after a mismatch, must not read its
// successors' values through the overlay. The unbound Get returns the
// highest write per key, the block's net effect, which is what chained
// later-block overlays and Final consume.
//
// Each written key owns a slot: an atomic pointer to its immutable version
// list, found through a lock-free concurrent map. Readers do one map load
// and one atomic pointer load — no lock, no atomic read-modify-write, no
// cache-line ping-pong between executor workers. Writers (Record and
// PurgeIdx, serialized by a mutex) build a fresh version list for each key
// they touch and publish it into that key's slot; published lists are
// never mutated. A block's writes therefore cost time linear in their
// number, however many keys the block has already written. Writers also
// keep an index from transaction index to recorded write sets, so PurgeIdx
// visits only the keys that transaction wrote. Publication is per key: a
// multi-key write set becomes visible one key at a time, exactly as a
// multi-key read already observed writes that landed between its lookups.
//
// Pipelined execution chains overlays: an in-flight block's overlay uses
// its predecessor block's overlay as base, so reads fall through to the
// newest uncommitted write below. When the predecessor finalizes (its
// writes now live in the committed store), Rebase swings the base to the
// store so the chain stays bounded by the pipeline window instead of
// growing with chain height.
//
// BlockOverlay follows the package-level zero-copy ownership contract:
// recorded write sets are retained by reference and returned slices are
// shared.
type BlockOverlay struct {
	base atomic.Pointer[Reader]

	// slots maps each key ever written to its *versionSlot. Only writers
	// add entries, and a slot is never removed: a purge that empties a
	// key's list leaves an empty list behind.
	slots sync.Map

	mu    sync.Mutex           // serializes writers
	byIdx map[int][][]types.KV // write sets recorded per transaction index
	nkeys int                  // number of slots
}

// versionSlot holds one key's published version list.
type versionSlot = atomic.Pointer[[]overlayWrite]

// overlayWrite is one transaction's write of one key. Per-key lists are
// ascending in idx and immutable once published.
type overlayWrite struct {
	val []byte
	idx int
}

// NewBlockOverlay returns an empty overlay over the given base state —
// the committed store, or the preceding in-flight block's overlay when
// execution is pipelined.
func NewBlockOverlay(base Reader) *BlockOverlay {
	o := &BlockOverlay{byIdx: make(map[int][][]types.KV)}
	o.base.Store(&base)
	return o
}

// slot returns the key's slot, or nil if the key was never written.
func (o *BlockOverlay) slot(key types.Key) *versionSlot {
	if s, ok := o.slots.Load(key); ok {
		return s.(*versionSlot)
	}
	return nil
}

// versions returns the key's current version list (nil if never written).
// Lock-free.
func (o *BlockOverlay) versions(key types.Key) []overlayWrite {
	if s := o.slot(key); s != nil {
		return *s.Load()
	}
	return nil
}

// Get returns the key's value as the block's net effect so far: the
// highest-index overlay write if present, otherwise the base's value.
// Lock-free.
func (o *BlockOverlay) Get(key types.Key) ([]byte, bool) {
	if vs := o.versions(key); len(vs) > 0 {
		w := vs[len(vs)-1]
		if w.val == nil {
			return nil, false // deletion
		}
		return w.val, true
	}
	return (*o.base.Load()).Get(key)
}

// Warm implements Warmer by chaining through the overlay stack: a key
// the overlay (or a predecessor block's overlay) already wrote needs no
// warming, and a miss delegates to the base so a tiered committed store
// can promote the record — attributing the cold read to the prefetcher
// instead of an execution worker.
func (o *BlockOverlay) Warm(key types.Key) (int, bool, bool) {
	if vs := o.versions(key); len(vs) > 0 {
		w := vs[len(vs)-1]
		if w.val == nil {
			return 0, false, false // deletion
		}
		return len(w.val), false, true
	}
	base := *o.base.Load()
	if wr, ok := base.(Warmer); ok {
		return wr.Warm(key)
	}
	v, ok := base.Get(key)
	return len(v), false, ok
}

// At returns the read view of the transaction at the given block index:
// overlay writes at or above the index are invisible, so the transaction
// observes exactly the state its dependency-graph prefix produced,
// regardless of the order executions actually landed in. The view is
// lock-free and cheap to create (it captures only the overlay pointer and
// the bound).
func (o *BlockOverlay) At(idx int) Reader {
	return boundedView{o: o, bound: idx}
}

type boundedView struct {
	o     *BlockOverlay
	bound int
}

// Get returns the newest value written strictly below the view's index,
// falling through to the base when no such write exists.
func (v boundedView) Get(key types.Key) ([]byte, bool) {
	if vs := v.o.versions(key); len(vs) > 0 {
		// Scan from the top: version lists are ascending in idx and short
		// (multiple same-key writers imply dependency edges, so long lists
		// only occur on heavily contended keys).
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i].idx < v.bound {
				if vs[i].val == nil {
					return nil, false // deletion
				}
				return vs[i].val, true
			}
		}
		// Every overlay write of this key sits at or above the bound.
	}
	return (*v.o.base.Load()).Get(key)
}

// Rebase atomically replaces the fall-through base. The caller must
// guarantee the new base already reflects everything the old base made
// visible (the pipelined executor rebases a block onto the committed
// store only after applying the finalized predecessor's writes to it),
// so concurrent readers see equivalent values through either base.
func (o *BlockOverlay) Rebase(base Reader) {
	o.base.Store(&base)
}

// Record merges a transaction's writes into the overlay, inserting each
// value into its key's version list (replacing a previous write by the
// same index — a re-execution supersedes its own earlier result). Record
// is order-insensitive: results may arrive in any commit order and still
// converge to the sequential outcome. It touches only the written keys'
// slots.
func (o *BlockOverlay) Record(idx int, writes []types.KV) {
	if len(writes) == 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	// Skip the write set when every key already has an entry at this
	// index — the common case of a commit re-recording the result local
	// execution recorded earlier. A same-index entry always carries the
	// same value: every re-execution path purges its index before
	// recording again, so a surviving entry is this exact attempt's write.
	dirty := false
	for i := range writes {
		if !hasIdx(o.versions(writes[i].Key), idx) {
			dirty = true
			break
		}
	}
	if !dirty {
		return
	}
	o.byIdx[idx] = append(o.byIdx[idx], writes)
	for _, kv := range writes {
		w := overlayWrite{val: kv.Val, idx: idx}
		s := o.slot(kv.Key)
		if s == nil {
			vs := []overlayWrite{w}
			s = new(versionSlot)
			s.Store(&vs)
			o.slots.Store(kv.Key, s)
			o.nkeys++
			continue
		}
		vs := insertWrite(*s.Load(), w)
		s.Store(&vs)
	}
}

// hasIdx reports whether the version list holds an entry by idx.
func hasIdx(vs []overlayWrite, idx int) bool {
	for _, v := range vs {
		if v.idx == idx {
			return true
		}
	}
	return false
}

// insertWrite returns a fresh version list with the write inserted in
// index order (replacing an existing same-index entry). The input list is
// treated as immutable: it may be visible to concurrent readers.
func insertWrite(vs []overlayWrite, w overlayWrite) []overlayWrite {
	out := make([]overlayWrite, 0, len(vs)+1)
	placed := false
	for _, v := range vs {
		if !placed && w.idx <= v.idx {
			out = append(out, w)
			placed = true
			if w.idx == v.idx {
				continue // superseded by the re-execution's write
			}
		}
		out = append(out, v)
	}
	if !placed {
		out = append(out, w)
	}
	return out
}

// PurgeIdx removes every overlay write by the given transaction index, so
// the speculative-execution scheduler can revoke one transaction's writes
// when its speculated result is invalidated (a committed digest diverged
// from the value dependents read, or the transaction is being
// re-executed). Older versions of the affected keys simply become visible
// again. Only the keys the index wrote are visited, and each gets a fresh
// version list, so concurrent lock-free readers stay safe.
func (o *BlockOverlay) PurgeIdx(idx int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, writes := range o.byIdx[idx] {
		for _, kv := range writes {
			s := o.slot(kv.Key)
			vs := *s.Load()
			i := slices.IndexFunc(vs, func(v overlayWrite) bool { return v.idx == idx })
			if i < 0 {
				continue // key listed twice; already removed
			}
			keep := slices.Delete(slices.Clone(vs), i, i+1)
			s.Store(&keep)
		}
	}
	delete(o.byIdx, idx)
}

// Final returns the overlay's net effect as a deterministic, key-sorted
// batch, ready to apply to the committed store when the block finalizes.
// The values are shared with the overlay; the commit path hands them
// straight to KVStore.Apply, transferring ownership. Keys whose every
// write was purged are omitted.
func (o *BlockOverlay) Final() []types.KV {
	// Exclude writers so no write set is seen half-published.
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]types.KV, 0, o.nkeys)
	o.slots.Range(func(k, s any) bool {
		if vs := *s.(*versionSlot).Load(); len(vs) > 0 {
			out = append(out, types.KV{Key: k.(types.Key), Val: vs[len(vs)-1].val})
		}
		return true
	})
	slices.SortFunc(out, func(a, b types.KV) int { return strings.Compare(a.Key, b.Key) })
	return out
}

var (
	_ Reader = (*BlockOverlay)(nil)
	_ Warmer = (*BlockOverlay)(nil)
)
