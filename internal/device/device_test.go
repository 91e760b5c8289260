package device

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocFreeBasics(t *testing.T) {
	d := New(1000)
	b1, err := d.Alloc(400)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := d.Alloc(600)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Addr == b2.Addr {
		t.Error("overlapping allocations")
	}
	st := d.Stats()
	if st.InUse != 1000 || st.Free != 0 {
		t.Errorf("stats after full alloc: %+v", st)
	}
	if _, err := d.Alloc(1); !errors.Is(err, ErrOOM) {
		t.Errorf("expected OOM, got %v", err)
	}
	d.Free(b1)
	d.Free(b2)
	st = d.Stats()
	if st.InUse != 0 || st.Cached != 1000 {
		t.Errorf("stats after free: %+v", st)
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCacheReuse(t *testing.T) {
	d := New(1000)
	b, _ := d.Alloc(256)
	d.Free(b)
	b2, err := d.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Addr != b.Addr {
		t.Errorf("expected cache reuse at addr %d, got %d", b.Addr, b2.Addr)
	}
	if d.Stats().CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", d.Stats().CacheHits)
	}
}

func TestBestFitPrefersSmallestCachedBlock(t *testing.T) {
	d := New(10000)
	big, _ := d.Alloc(5000)
	sep, _ := d.Alloc(50) // live separator so the cached blocks cannot coalesce
	small, _ := d.Alloc(1000)
	d.Free(big)
	d.Free(small)
	defer d.Free(sep)
	got, err := d.Alloc(900)
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != small.Addr {
		t.Errorf("best fit should reuse the 1000-byte block at %d, got addr %d", small.Addr, got.Addr)
	}
}

// The central fragmentation scenario from §3.2: interleaved long/short-lived
// allocations leave plenty of total free memory but no contiguous run, so a
// large request OOMs with Fragmented=true.
func TestFragmentationOOM(t *testing.T) {
	d := New(1000)
	var longLived, shortLived []Block
	for i := 0; i < 5; i++ {
		s, err := d.Alloc(100) // short-lived (e.g. discarded activation)
		if err != nil {
			t.Fatal(err)
		}
		l, err := d.Alloc(100) // long-lived (e.g. checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		shortLived = append(shortLived, s)
		longLived = append(longLived, l)
	}
	for _, b := range shortLived {
		d.Free(b)
	}
	// 500 bytes are free but in 100-byte islands between live checkpoints.
	_, err := d.Alloc(300)
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("expected OOMError, got %v", err)
	}
	if !oom.Fragmented {
		t.Errorf("expected fragmentation OOM: %+v", oom)
	}
	if oom.FreeTotal != 500 || oom.LargestFree != 100 {
		t.Errorf("OOM diagnosis: %+v", oom)
	}
	for _, b := range longLived {
		d.Free(b)
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

// MD fix for the same scenario: checkpoints go to a pre-allocated contiguous
// region, so the general heap stays unfragmented and the 300-byte request
// succeeds.
func TestDefragRegionPreventsFragmentationOOM(t *testing.T) {
	d := New(1000)
	region, err := d.NewRegion(500) // checkpoints live here
	if err != nil {
		t.Fatal(err)
	}
	var shortLived []Block
	for i := 0; i < 5; i++ {
		s, err := d.Alloc(100)
		if err != nil {
			t.Fatal(err)
		}
		shortLived = append(shortLived, s)
		if _, err := region.Alloc(100); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range shortLived {
		d.Free(b)
	}
	if _, err := d.Alloc(300); err != nil {
		t.Fatalf("MD should prevent fragmentation OOM, got %v", err)
	}
	if region.used != 500 || region.peak != 500 {
		t.Errorf("region used/peak = %d/%d, want 500/500", region.used, region.peak)
	}
	region.Close()
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

func TestEmptyCacheCoalesces(t *testing.T) {
	d := New(1000)
	var blocks []Block
	for i := 0; i < 10; i++ {
		b, _ := d.Alloc(100)
		blocks = append(blocks, b)
	}
	for _, b := range blocks {
		d.Free(b)
	}
	d.emptyCache()
	if got := d.largestContiguous(); got != 1000 {
		t.Errorf("largestContiguous after emptyCache = %d, want 1000", got)
	}
	st := d.Stats()
	if st.Free != 1000 || st.Cached != 0 {
		t.Errorf("stats after emptyCache: %+v", st)
	}
}

func TestOOMFlushesCacheAndRetries(t *testing.T) {
	d := New(1000)
	a, _ := d.Alloc(500)
	b, _ := d.Alloc(500)
	d.Free(a)
	d.Free(b)
	// Cached as two 500-byte blocks; a 900-byte request needs the flush path.
	if _, err := d.Alloc(900); err != nil {
		t.Fatalf("expected cache flush to satisfy request, got %v", err)
	}
}

func TestPeakTracking(t *testing.T) {
	d := New(1000)
	a, _ := d.Alloc(700)
	d.Free(a)
	b, _ := d.Alloc(200)
	st := d.Stats()
	if st.PeakInUse != 700 {
		t.Errorf("PeakInUse = %d, want 700", st.PeakInUse)
	}
	// 700 cached after free; 200 of it reused → reserved is still 700.
	if st.PeakReserved != 700 {
		t.Errorf("PeakReserved = %d, want 700", st.PeakReserved)
	}
	d.Free(b)
	d.resetPeaks()
	st = d.Stats()
	if st.PeakInUse != 0 || st.PeakReserved != 700 {
		t.Errorf("after resetPeaks: %+v", st)
	}
}

func TestAllocationsNeverOverlap(t *testing.T) {
	// Property: across a random alloc/free workload, live blocks never
	// overlap and invariants hold.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := New(1 << 16)
		live := map[int64]Block{}
		for step := 0; step < 300; step++ {
			if len(live) > 0 && r.Intn(2) == 0 {
				for addr, b := range live {
					d.Free(b)
					delete(live, addr)
					break
				}
				continue
			}
			size := int64(r.Intn(2000) + 1)
			b, err := d.Alloc(size)
			if err != nil {
				continue
			}
			for _, other := range live {
				if b.Addr < other.Addr+other.Size && other.Addr < b.Addr+b.Size {
					return false
				}
			}
			live[b.Addr] = b
		}
		return d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFreeUnknownBlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unknown Free")
		}
	}()
	d := New(100)
	d.Free(Block{Addr: 10, Size: 10})
}

func TestRegionExhaustion(t *testing.T) {
	d := New(1000)
	r, err := d.NewRegion(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Alloc(60); !errors.Is(err, ErrOOM) {
		t.Errorf("expected region OOM, got %v", err)
	}
	r.used = 0 // the per-iteration reset
	if _, err := r.Alloc(100); err != nil {
		t.Errorf("after a reset a full-size alloc should fit: %v", err)
	}
}
