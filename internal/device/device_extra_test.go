package device

import (
	"errors"
	"testing"
	"testing/quick"
)

// Property: largestContiguous never exceeds total free+cached, and a
// request of exactly largestContiguous succeeds (possibly after the
// internal cache flush) while largestContiguous+1 fails.
func TestLargestContiguousIsTight(t *testing.T) {
	f := func(seed int64) bool {
		d := New(1 << 12)
		// Deterministic pseudo-random workload from the seed.
		s := uint64(seed)
		next := func(n int64) int64 {
			s = s*6364136223846793005 + 1442695040888963407
			v := int64(s>>33) % n
			if v < 0 {
				v = -v
			}
			return v + 1
		}
		var live []Block
		for i := 0; i < 40; i++ {
			if len(live) > 0 && next(3) == 1 {
				d.Free(live[len(live)-1])
				live = live[:len(live)-1]
				continue
			}
			if b, err := d.Alloc(next(512)); err == nil {
				live = append(live, b)
			}
		}
		lc := d.largestContiguous()
		st := d.Stats()
		if lc > st.Cached+st.Free {
			return false
		}
		if lc == 0 {
			return true
		}
		if _, err := d.Alloc(lc); err != nil {
			return false
		}
		return d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAllocLargerThanCapacity(t *testing.T) {
	d := New(100)
	_, err := d.Alloc(101)
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("expected OOMError, got %v", err)
	}
	if oom.Fragmented {
		t.Error("capacity exhaustion misdiagnosed as fragmentation")
	}
	if oom.Error() == "" {
		t.Error("empty error string")
	}
}

func TestReleaseBypassesCache(t *testing.T) {
	d := New(1000)
	b, _ := d.Alloc(400)
	d.Release(b)
	st := d.Stats()
	if st.Cached != 0 || st.Free != 1000 {
		t.Errorf("Release should return straight to free: %+v", st)
	}
}

func TestDefragCopiesCounter(t *testing.T) {
	d := New(1000)
	r, _ := d.NewRegion(500)
	r.Alloc(100)
	r.Alloc(100)
	if got := d.Stats().DefragCopies; got != 2 {
		t.Errorf("DefragCopies = %d, want 2", got)
	}
}

func TestRegionCloseRestoresSpace(t *testing.T) {
	d := New(1000)
	r, _ := d.NewRegion(800)
	r.Alloc(100)
	r.Close()
	if _, err := d.Alloc(1000); err != nil {
		t.Errorf("full-capacity alloc after Close failed: %v", err)
	}
}

func TestAllocZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(10).Alloc(0)
}

func TestCacheHitAfterPartialReuse(t *testing.T) {
	d := New(1000)
	b, _ := d.Alloc(400)
	d.Free(b)
	// Smaller request splits the cached block; remainder stays cached.
	b2, err := d.Alloc(150)
	if err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Cached != 250 {
		t.Errorf("cached remainder = %d, want 250", st.Cached)
	}
	d.Free(b2)
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}
