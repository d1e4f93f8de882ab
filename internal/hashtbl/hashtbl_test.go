package hashtbl

import (
	"testing"
	"testing/quick"

	"memagg/internal/dataset"
)

// table is the common surface every hash table under test implements.
type table interface {
	Upsert(uint64) *uint64
	Get(uint64) *uint64
	Delete(uint64) bool
	Len() int
	Cap() int
	Iterate(func(uint64, *uint64) bool)
}

func makers() map[string]func(capacity int) table {
	return map[string]func(int) table{
		"LinearProbe":    func(c int) table { return NewLinearProbe[uint64](c) },
		"LinearProbeMod": func(c int) table { return NewLinearProbeMod[uint64](c) },
		"Dense":          func(c int) table { return NewDense[uint64](c) },
		"Sparse":         func(c int) table { return NewSparse[uint64](c) },
		"Chained":        func(c int) table { return NewChained[uint64](c) },
		"ChainedPooled":  func(c int) table { return NewChainedPooled[uint64](c) },
	}
}

func TestUpsertGetBasic(t *testing.T) {
	for name, mk := range makers() {
		tb := mk(16)
		for k := uint64(1); k <= 100; k++ {
			*tb.Upsert(k) = k * 10
		}
		if tb.Len() != 100 {
			t.Errorf("%s: Len=%d want 100", name, tb.Len())
		}
		for k := uint64(1); k <= 100; k++ {
			v := tb.Get(k)
			if v == nil || *v != k*10 {
				t.Errorf("%s: Get(%d) wrong", name, k)
			}
		}
		if tb.Get(101) != nil {
			t.Errorf("%s: Get(absent) != nil", name)
		}
	}
}

func TestUpsertIsIdempotentPerKey(t *testing.T) {
	for name, mk := range makers() {
		tb := mk(8)
		for i := 0; i < 50; i++ {
			*tb.Upsert(7)++
		}
		if tb.Len() != 1 {
			t.Errorf("%s: repeated Upsert created %d entries", name, tb.Len())
		}
		if v := tb.Get(7); v == nil || *v != 50 {
			t.Errorf("%s: count aggregation via Upsert broken", name)
		}
	}
}

func TestZeroKeySupported(t *testing.T) {
	for name, mk := range makers() {
		tb := mk(8)
		*tb.Upsert(0) = 42
		if v := tb.Get(0); v == nil || *v != 42 {
			t.Errorf("%s: zero key lost", name)
		}
		if tb.Len() != 1 {
			t.Errorf("%s: Len=%d want 1 after zero-key insert", name, tb.Len())
		}
		found := false
		tb.Iterate(func(k uint64, v *uint64) bool {
			if k == 0 && *v == 42 {
				found = true
			}
			return true
		})
		if !found {
			t.Errorf("%s: zero key missing from iteration", name)
		}
		if !tb.Delete(0) || tb.Get(0) != nil {
			t.Errorf("%s: zero key delete broken", name)
		}
	}
}

func TestGrowthPreservesContents(t *testing.T) {
	for name, mk := range makers() {
		tb := mk(4) // force many rehashes
		const n = 20000
		keys := dataset.Random(n, 1, 1<<50, 77)
		want := map[uint64]uint64{}
		for _, k := range keys {
			*tb.Upsert(k)++
			want[k]++
		}
		if tb.Len() != len(want) {
			t.Errorf("%s: Len=%d want %d", name, tb.Len(), len(want))
		}
		for k, c := range want {
			v := tb.Get(k)
			if v == nil || *v != c {
				t.Errorf("%s: key %d count wrong after growth", name, k)
				break
			}
		}
	}
}

func TestIterateVisitsEachKeyOnce(t *testing.T) {
	for name, mk := range makers() {
		tb := mk(64)
		want := map[uint64]uint64{}
		rng := dataset.NewRNG(5)
		for i := 0; i < 5000; i++ {
			k := rng.Uint64n(2000)
			*tb.Upsert(k) = k + 1
			want[k] = k + 1
		}
		got := map[uint64]uint64{}
		tb.Iterate(func(k uint64, v *uint64) bool {
			if _, dup := got[k]; dup {
				t.Errorf("%s: key %d visited twice", name, k)
			}
			got[k] = *v
			return true
		})
		if len(got) != len(want) {
			t.Errorf("%s: iterated %d keys, want %d", name, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%s: key %d value %d want %d", name, k, got[k], v)
				break
			}
		}
	}
}

func TestIterateEarlyStop(t *testing.T) {
	for name, mk := range makers() {
		tb := mk(16)
		for k := uint64(1); k <= 100; k++ {
			tb.Upsert(k)
		}
		visits := 0
		tb.Iterate(func(uint64, *uint64) bool {
			visits++
			return visits < 5
		})
		if visits != 5 {
			t.Errorf("%s: early stop visited %d, want 5", name, visits)
		}
	}
}

func TestDeleteThenLookup(t *testing.T) {
	for name, mk := range makers() {
		tb := mk(16)
		keys := dataset.Random(2000, 1, 500, 3)
		present := map[uint64]bool{}
		for _, k := range keys {
			tb.Upsert(k)
			present[k] = true
		}
		// Delete every third distinct key.
		i := 0
		for k := range present {
			if i%3 == 0 {
				if !tb.Delete(k) {
					t.Errorf("%s: Delete(%d) reported absent", name, k)
				}
				present[k] = false
			}
			i++
		}
		if tb.Delete(99999) {
			t.Errorf("%s: Delete of absent key returned true", name)
		}
		for k, p := range present {
			got := tb.Get(k) != nil
			if got != p {
				t.Errorf("%s: after deletes Get(%d)=%v want %v", name, k, got, p)
			}
		}
		n := 0
		for _, p := range present {
			if p {
				n++
			}
		}
		if tb.Len() != n {
			t.Errorf("%s: Len=%d want %d after deletes", name, tb.Len(), n)
		}
	}
}

func TestDeleteBackwardShiftClusters(t *testing.T) {
	// Regression for linear probing backward-shift: build a long collision
	// cluster, delete from its middle, and verify every survivor is still
	// reachable.
	tb := NewLinearProbe[uint64](8)
	var cluster []uint64
	// Find keys that collide into a small range by brute force.
	for k := uint64(1); len(cluster) < 20; k++ {
		if Mix(k)&15 < 4 {
			cluster = append(cluster, k)
		}
	}
	for _, k := range cluster {
		*tb.Upsert(k) = k
	}
	for i := 0; i < len(cluster); i += 2 {
		tb.Delete(cluster[i])
	}
	for i, k := range cluster {
		want := i%2 == 1
		if got := tb.Get(k) != nil; got != want {
			t.Fatalf("cluster key %d: present=%v want %v", k, got, want)
		}
	}
}

func TestReinsertAfterDelete(t *testing.T) {
	for name, mk := range makers() {
		tb := mk(16)
		for k := uint64(1); k <= 200; k++ {
			tb.Upsert(k)
		}
		for k := uint64(1); k <= 200; k++ {
			tb.Delete(k)
		}
		if tb.Len() != 0 {
			t.Errorf("%s: Len=%d want 0 after full delete", name, tb.Len())
		}
		for k := uint64(1); k <= 200; k++ {
			*tb.Upsert(k) = k
		}
		if tb.Len() != 200 {
			t.Errorf("%s: reinsert after delete lost keys: Len=%d", name, tb.Len())
		}
		for k := uint64(1); k <= 200; k++ {
			if v := tb.Get(k); v == nil || *v != k {
				t.Errorf("%s: reinserted key %d wrong", name, k)
				break
			}
		}
	}
}

func TestQuickPropertyMatchesMapModel(t *testing.T) {
	for name, mk := range makers() {
		mk := mk
		f := func(ops []uint16) bool {
			tb := mk(4)
			model := map[uint64]uint64{}
			for _, op := range ops {
				key := uint64(op % 64) // small key space → collisions + deletes
				switch (op / 64) % 3 {
				case 0, 1: // upsert-increment twice as likely
					*tb.Upsert(key)++
					model[key]++
				case 2:
					delete(model, key)
					tb.Delete(key)
				}
			}
			if tb.Len() != len(model) {
				return false
			}
			ok := true
			tb.Iterate(func(k uint64, v *uint64) bool {
				if model[k] != *v {
					ok = false
				}
				return ok
			})
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCapReflectsSizingPolicy(t *testing.T) {
	// Hash_Dense must reserve at least 2x; Hash_LP about 8/7x; Sparse 5/4x.
	lp := NewLinearProbe[uint64](1000)
	if lp.Cap() < 1000*8/7 {
		t.Errorf("LinearProbe cap %d below load-factor reserve", lp.Cap())
	}
	d := NewDense[uint64](1000)
	if d.Cap() < 2000 {
		t.Errorf("Dense cap %d below 2x reserve", d.Cap())
	}
	s := NewSparse[uint64](1000)
	if s.Cap() < 1250 {
		t.Errorf("Sparse cap %d below 1.25x reserve", s.Cap())
	}
	if got := NextPow2(1000); got != 1024 {
		t.Errorf("NextPow2(1000)=%d", got)
	}
	if got := NextPow2(1024); got != 1024 {
		t.Errorf("NextPow2(1024)=%d", got)
	}
}

func TestNextPrime(t *testing.T) {
	cases := map[int]int{1: 2, 2: 2, 3: 3, 4: 5, 17: 17, 18: 19, 100: 101}
	for n, want := range cases {
		if got := nextPrime(n); got != want {
			t.Errorf("nextPrime(%d)=%d want %d", n, got, want)
		}
	}
}

func TestMixersDiffer(t *testing.T) {
	// Mix and Mix2 must behave as independent functions for cuckoo hashing.
	same := 0
	for k := uint64(0); k < 1000; k++ {
		if Mix(k)&1023 == Mix2(k)&1023 {
			same++
		}
	}
	if same > 20 { // expect ~1 collision in 1024 buckets
		t.Fatalf("Mix and Mix2 agree on %d of 1000 keys; too correlated", same)
	}
}

// TestLinearProbeCloneIndependent: a clone starts with the original's
// contents, zero key included, and from then on the two tables share
// nothing — updates, inserts that force the clone to grow, and deletes on
// either side stay invisible to the other. Both slot modes (mask and
// prime modulo) clone.
func TestLinearProbeCloneIndependent(t *testing.T) {
	ctors := map[string]func(int) *LinearProbe[uint64]{
		"mask": NewLinearProbe[uint64],
		"mod":  NewLinearProbeMod[uint64],
	}
	for name, mk := range ctors {
		orig := mk(16)
		for k := uint64(0); k < 12; k++ { // key 0 lives in the dedicated cell
			*orig.Upsert(k) = k * 10
		}
		origCap := orig.Cap()
		c := orig.Clone()
		if c.Len() != orig.Len() || c.Cap() != origCap {
			t.Fatalf("%s: clone len/cap %d/%d, want %d/%d", name, c.Len(), c.Cap(), orig.Len(), origCap)
		}
		for k := uint64(0); k < 12; k++ {
			if v := c.Get(k); v == nil || *v != k*10 {
				t.Fatalf("%s: clone lost key %d", name, k)
			}
		}

		*c.Upsert(0) = 999
		*c.Upsert(5) = 555
		c.Delete(3)
		for k := uint64(100); k < 1100; k++ {
			*c.Upsert(k) = k
		}
		if c.Cap() <= origCap {
			t.Fatalf("%s: clone did not grow (cap %d)", name, c.Cap())
		}
		if orig.Len() != 12 || orig.Cap() != origCap {
			t.Fatalf("%s: clone writes changed the original: len %d cap %d", name, orig.Len(), orig.Cap())
		}
		for k := uint64(0); k < 12; k++ {
			if v := orig.Get(k); v == nil || *v != k*10 {
				t.Fatalf("%s: original key %d changed by clone writes", name, k)
			}
		}
		if orig.Get(100) != nil {
			t.Fatalf("%s: clone insert visible in the original", name)
		}

		*orig.Upsert(7) = 1
		orig.Delete(0)
		if v := c.Get(0); v == nil || *v != 999 {
			t.Fatalf("%s: original zero-key delete reached the clone", name)
		}
		if v := c.Get(7); v == nil || *v != 70 {
			t.Fatalf("%s: original update reached the clone", name)
		}
		if want := 12 - 1 + 1000; c.Len() != want {
			t.Fatalf("%s: clone len %d, want %d", name, c.Len(), want)
		}
		for k := uint64(100); k < 1100; k++ {
			if v := c.Get(k); v == nil || *v != k {
				t.Fatalf("%s: clone lost grown key %d", name, k)
			}
		}
	}
}
