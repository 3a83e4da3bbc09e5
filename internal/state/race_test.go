package state

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"parblockchain/internal/types"
)

// TestKVStoreConcurrentHammer drives the sharded store from many
// goroutines mixing Get, Put, Apply, Hash, Len, and Snapshot — the shapes
// the executor hot path and state-sync produce concurrently. Run under
// -race it checks the striped locking; afterwards it asserts the
// incrementally maintained hash still matches a from-scratch recompute,
// so no interleaving can leak a stale per-shard digest.
func TestKVStoreConcurrentHammer(t *testing.T) {
	s := NewKVStore()
	const (
		workers = 8
		rounds  = 400
		keys    = 61 // spread across all shards
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := types.Key(fmt.Sprintf("k%d", (w*rounds+i)%keys))
				switch i % 6 {
				case 0:
					s.Put(key, []byte(fmt.Sprintf("w%d-%d", w, i)))
				case 1:
					s.Apply([]types.KV{
						{Key: key, Val: []byte{byte(w), byte(i)}},
						{Key: types.Key(fmt.Sprintf("k%d", (i+1)%keys)), Val: []byte{byte(i)}},
					})
				case 2:
					s.Put(key, nil) // delete
				case 3:
					s.Hash()
				case 4:
					s.Get(key)
					s.GetVersion(key)
					s.Version(key)
				case 5:
					s.Len()
					s.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Hash() != s.rehash() {
		t.Fatal("incremental hash drifted from from-scratch recompute after concurrent hammering")
	}
}

// TestOverlayConcurrentHammer exercises the overlay the way the executor
// does: worker goroutines read (lock-free, unbound and index-bounded)
// while the commit path records results and the speculative scheduler
// purges and re-records indices, with reads of keys both inside and
// outside the overlay (the latter fall through to a concurrently written
// base store). Every bounded read must return a value written strictly
// below its bound or the base value, and once the writers stop, Final
// must hold each key's highest-index write.
func TestOverlayConcurrentHammer(t *testing.T) {
	const (
		readers = 6
		writes  = 300
		keys    = 37
	)
	key := func(i int) types.Key { return types.Key(fmt.Sprintf("k%d", i%keys)) }
	// Values name their key, writing index and attempt: "k3@40#1".
	val := func(i, attempt int) []byte { return []byte(fmt.Sprintf("%s@%d#%d", key(i), i, attempt)) }
	base := NewKVStore()
	for i := 0; i < keys; i++ {
		base.Put(key(i), []byte("base"))
	}
	o := NewBlockOverlay(base)
	var rwg, wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := key(i)
				o.Get(k)
				o.Get("missing")
				bound := (i * 7) % (writes + 1)
				v, ok := o.At(bound).Get(k)
				if !ok {
					t.Errorf("At(%d).Get(%s) found nothing; the base holds the key", bound, k)
					return
				}
				if s := string(v); s != "base" {
					wk, rest, _ := strings.Cut(s, "@")
					idx, _, _ := strings.Cut(rest, "#")
					n, _ := strconv.Atoi(idx)
					if wk != string(k) || n >= bound {
						t.Errorf("At(%d).Get(%s) = %q: not written below the bound", bound, k, s)
						return
					}
				}
				if i%50 == 0 {
					_ = len(o.Final())
				}
			}
		}(r)
	}
	wg.Add(3)
	go func() { // commit path
		defer wg.Done()
		for i := 0; i < writes; i++ {
			o.Record(i, []types.KV{{Key: key(i), Val: val(i, 0)}})
			if i%20 == 0 {
				o.Record(i, []types.KV{{Key: "tomb", Val: nil}})
			}
		}
	}()
	go func() { // speculative re-execution: revoke and re-record indices
		defer wg.Done()
		for attempt := 1; attempt <= 4; attempt++ {
			for i := attempt; i < writes; i += 5 {
				o.PurgeIdx(i)
				o.Record(i, []types.KV{{Key: key(i), Val: val(i, attempt)}})
			}
		}
	}()
	go func() { // base writer (previous block finalizing)
		defer wg.Done()
		for i := 0; i < writes; i++ {
			base.Put(types.Key(fmt.Sprintf("b%d", i%11)), []byte{byte(i)})
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()

	final := o.Final()
	if len(final) != keys+1 {
		t.Fatalf("Final holds %d keys, want %d", len(final), keys+1)
	}
	for _, kv := range final {
		if kv.Key == "tomb" {
			if kv.Val != nil {
				t.Fatalf("tomb = %q, want the deletion", kv.Val)
			}
			continue
		}
		var k, n int
		if _, err := fmt.Sscanf(kv.Key, "k%d", &k); err != nil {
			t.Fatalf("unexpected key %q in Final", kv.Key)
		}
		for i := 0; i < writes; i++ {
			if i%keys == k {
				n = i // highest index writing k
			}
		}
		if s := string(kv.Val); !strings.HasPrefix(s, fmt.Sprintf("%s@%d#", kv.Key, n)) {
			t.Fatalf("Final %s = %q, want index %d's write", kv.Key, s, n)
		}
	}
}
