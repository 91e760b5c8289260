package arena

import (
	"strconv"
	"sync"
	"testing"
)

func TestGetPutReuse(t *testing.T) {
	a := New[float32]()
	b := a.Get(1000)
	if len(b) != 1000 || cap(b) != 1024 {
		t.Fatalf("Get(1000): len=%d cap=%d, want 1000/1024", len(b), cap(b))
	}
	for i := range b {
		b[i] = float32(i)
	}
	a.Put(b)
	if got := a.Resident(); got != 1024*4 {
		t.Fatalf("Resident after Put = %d, want %d", got, 1024*4)
	}
	c := a.Get(700) // same class → must reuse the pooled buffer
	if cap(c) != 1024 {
		t.Fatalf("reused cap = %d, want 1024", cap(c))
	}
	if gets, misses := a.Stats(); gets != 2 || misses != 1 {
		t.Fatalf("Stats = (%d,%d), want (2,1)", gets, misses)
	}
	if got := a.Resident(); got != 0 {
		t.Fatalf("Resident after reuse = %d, want 0", got)
	}
}

func TestGetZeroAndNilPut(t *testing.T) {
	a := New[float32]()
	if b := a.Get(0); b != nil {
		t.Fatalf("Get(0) = %v, want nil", b)
	}
	a.Put(nil)                   // no-op
	a.Put(make([]float32, 0, 3)) // non-power-of-two cap: dropped, not pooled
	if got := a.Resident(); got != 0 {
		t.Fatalf("Resident = %d after no-op Puts, want 0", got)
	}
}

func TestRelease(t *testing.T) {
	a := New[float32]()
	for i := 0; i < 8; i++ {
		a.Put(a.Get(512))
	}
	if a.Resident() == 0 {
		t.Fatal("expected pooled bytes before Release")
	}
	a.Release()
	if got := a.Resident(); got != 0 {
		t.Fatalf("Resident after Release = %d, want 0", got)
	}
}

// Steady state: once the pool is warm, Get/Put cycles never miss.
func TestSteadyStateNoMisses(t *testing.T) {
	a := New[float32]()
	sizes := []int{3, 64, 1000, 4096, 100000}
	for _, n := range sizes { // warm-up
		a.Put(a.Get(n))
	}
	_, missesWarm := a.Stats()
	for i := 0; i < 100; i++ {
		for _, n := range sizes {
			a.Put(a.Get(n))
		}
	}
	if _, misses := a.Stats(); misses != missesWarm {
		t.Fatalf("steady state missed %d times", misses-missesWarm)
	}
}

// The int pool mirrors the float32 arena's contract: size-classed reuse,
// stray-Put rejection, Release, and a miss-free warm steady state.
func TestIntsGetPutReuse(t *testing.T) {
	a := New[int]()
	b := a.Get(1000)
	if len(b) != 1000 || cap(b) != 1024 {
		t.Fatalf("Get(1000): len=%d cap=%d, want 1000/1024", len(b), cap(b))
	}
	a.Put(b)
	if got, want := a.Resident(), int64(1024*strconv.IntSize/8); got != want {
		t.Fatalf("Resident after Put = %d, want %d", got, want)
	}
	c := a.Get(700)
	if cap(c) != 1024 {
		t.Fatalf("reused cap = %d, want 1024", cap(c))
	}
	if gets, misses := a.Stats(); gets != 2 || misses != 1 {
		t.Fatalf("Stats = (%d,%d), want (2,1)", gets, misses)
	}
	if b := a.Get(0); b != nil {
		t.Fatalf("Get(0) = %v, want nil", b)
	}
	a.Put(nil)
	a.Put(make([]int, 0, 3)) // non-power-of-two cap: dropped
	a.Release()
	if got := a.Resident(); got != 0 {
		t.Fatalf("Resident after Release = %d, want 0", got)
	}
}

func TestIntsSteadyStateNoMisses(t *testing.T) {
	a := New[int]()
	sizes := []int{3, 64, 1000, 4096, 100000}
	for _, n := range sizes {
		a.Put(a.Get(n))
	}
	_, missesWarm := a.Stats()
	for i := 0; i < 100; i++ {
		for _, n := range sizes {
			a.Put(a.Get(n))
		}
	}
	if _, misses := a.Stats(); misses != missesWarm {
		t.Fatalf("steady state missed %d times", misses-missesWarm)
	}
}

// The arena serves every rank goroutine of a world concurrently.
func TestConcurrentAccess(t *testing.T) {
	a := New[float32]()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := a.Get(256)
				b[0] = 1
				a.Put(b)
			}
		}()
	}
	wg.Wait()
}
