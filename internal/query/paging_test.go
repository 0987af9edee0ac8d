package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// unitSlots builds n one-byte slots whose fetch returns a shared stand-in
// column, so a budget of k bytes holds exactly k columns.
func unitSlots(n int) []*pagedSlot {
	col := &column{}
	slots := make([]*pagedSlot, n)
	for i := range slots {
		slots[i] = &pagedSlot{
			name:  fmt.Sprintf("c%d", i),
			bytes: 1,
			colp:  new(atomic.Pointer[column]),
			fetch: func(context.Context) (*column, error) {
				runtime.Gosched() // widen the window in which waiters pile up
				return col, nil
			},
		}
	}
	return slots
}

// pinAll acquires every slot in order, releasing what it pinned on a
// failure, and returns the release.
func pinAll(p *PagePool, slots ...*pagedSlot) (func(), error) {
	for i, s := range slots {
		if err := p.acquire(context.Background(), s); err != nil {
			for _, ps := range slots[:i] {
				p.release(ps)
			}
			return nil, err
		}
	}
	return func() {
		for _, s := range slots {
			p.release(s)
		}
	}, nil
}

// use pins slots together and releases them, as one request does.
func use(t *testing.T, p *PagePool, slots ...*pagedSlot) {
	t.Helper()
	release, err := pinAll(p, slots...)
	if err != nil {
		t.Fatal(err)
	}
	release()
}

// residentSet renders which slots are resident, one byte per slot.
func residentSet(slots []*pagedSlot) string {
	b := make([]byte, len(slots))
	for i, s := range slots {
		b[i] = '.'
		if s.colp.Load() != nil {
			b[i] = 'R'
		}
	}
	return string(b)
}

// checkPool asserts the pool's bookkeeping against its slots under mu:
// resident bytes are those of the resident and loading slots and stay within
// the budget, and the idle list holds exactly the resident, unpinned slots.
func checkPool(t *testing.T, p *PagePool, slots []*pagedSlot) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	var charged int64
	idle := 0
	for _, s := range slots {
		resident := s.colp.Load() != nil
		if resident || s.loading != nil {
			charged += s.bytes
		}
		if want := resident && s.pins == 0; s.idle != want {
			t.Errorf("slot %s: idle %v, resident %v with %d pins", s.name, s.idle, resident, s.pins)
		}
		if s.idle {
			idle++
		}
	}
	listed := 0
	for s := p.idleHead; s != nil; s = s.next {
		listed++
	}
	if listed != idle {
		t.Errorf("idle list holds %d slots, %d are idle", listed, idle)
	}
	if charged != p.resident || (p.budget > 0 && p.resident > p.budget) {
		t.Errorf("resident %d, charged %d, budget %d", p.resident, charged, p.budget)
	}
}

// TestPagePoolReplacement pins the reuse-distance policy on unit-size
// slots: a cycle wider than the budget misses N-K+1 times per turn (LRU
// would miss N), a re-used set survives a one-shot sweep, back-to-back uses
// fetch once, equal acquire sequences evict equally, and under concurrency
// the budget holds and only a fully pinned pool refuses.
func TestPagePoolReplacement(t *testing.T) {
	t.Run("cycle", func(t *testing.T) {
		for _, c := range []struct{ n, k int }{{5, 3}, {8, 4}, {16, 10}} {
			slots := unitSlots(c.n)
			p := NewPagePool(int64(c.k), 0, time.Millisecond)
			for turn := 0; turn < 6; turn++ {
				before := p.Stats()
				for _, s := range slots {
					use(t, p, s)
				}
				checkPool(t, p, slots)
				st := p.Stats()
				fetches, hits := st.Fetches-before.Fetches, st.Hits-before.Hits
				wantFetches := int64(c.n - c.k + 1)
				if turn == 0 {
					wantFetches = int64(c.n)
				}
				if fetches != wantFetches || hits != int64(c.n)-wantFetches {
					t.Fatalf("N=%d K=%d turn %d: %d fetches, %d hits; want %d fetches, %d hits",
						c.n, c.k, turn, fetches, hits, wantFetches, int64(c.n)-wantFetches)
				}
			}
		}
	})

	t.Run("sweep", func(t *testing.T) {
		slots := unitSlots(13)
		hot, sweep := slots[:3], slots[3:]
		p := NewPagePool(4, 0, time.Millisecond)
		for i := 0; i < 4; i++ {
			use(t, p, hot...)
		}
		for _, s := range sweep {
			use(t, p, s)
		}
		checkPool(t, p, slots)
		before := p.Stats()
		use(t, p, hot...)
		if st := p.Stats(); st.Fetches != before.Fetches || st.Hits != before.Hits+3 {
			t.Fatalf("re-used set refetched after a %d-column sweep under a 4-column budget: %+v -> %+v (%s)",
				len(sweep), before, st, residentSet(slots))
		}
	})

	t.Run("back-to-back", func(t *testing.T) {
		slots := unitSlots(4)
		p := NewPagePool(2, 0, time.Millisecond)
		use(t, p, slots[0], slots[1])
		use(t, p, slots[2])
		before := p.Stats()
		for i := 0; i < 3; i++ {
			use(t, p, slots[3])
		}
		if st := p.Stats(); st.Fetches-before.Fetches != 1 || st.Hits-before.Hits != 2 {
			t.Fatalf("three uses of a cold column: %+v -> %+v, want 1 fetch and 2 hits", before, st)
		}
	})

	t.Run("deterministic", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		var requests [][]int
		for i := 0; i < 400; i++ {
			requests = append(requests, rng.Perm(12)[:1+rng.Intn(3)])
		}
		trace := func() []string {
			slots := unitSlots(12)
			p := NewPagePool(5, 0, time.Millisecond)
			var out []string
			for _, req := range requests {
				pinned := make([]*pagedSlot, len(req))
				for i, ord := range req {
					pinned[i] = slots[ord]
				}
				use(t, p, pinned...)
				out = append(out, residentSet(slots))
			}
			if st := p.Stats(); st.Evictions == 0 {
				t.Fatalf("a 12-column mix under a 5-column budget never evicted: %+v", st)
			}
			return out
		}
		a, b := trace(), trace()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("request %d: pools fed one sequence diverged: %s vs %s", i, a[i], b[i])
			}
		}
	})

	t.Run("refuses only when all pinned", func(t *testing.T) {
		slots := unitSlots(5)
		p := NewPagePool(4, 0, time.Millisecond)
		if err := p.acquire(context.Background(), slots[0]); err != nil {
			t.Fatal(err)
		}
		release, err := pinAll(p, slots[1:4]...)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.acquire(context.Background(), slots[4]); !errors.Is(err, ErrPageBudget) {
			t.Fatalf("acquire past a fully pinned budget: %v, want ErrPageBudget", err)
		}
		p.release(slots[0])
		use(t, p, slots[4])
		release()
		checkPool(t, p, slots)
	})

	t.Run("hammer", func(t *testing.T) {
		const workers, maxPins = 4, 3
		for _, c := range []struct {
			name   string
			budget int64
		}{
			// The workers never pin more than the budget: nothing may fail.
			{"roomy", workers * maxPins},
			// They can pin it all: only ErrPageBudget may fail.
			{"tight", 5},
		} {
			slots := unitSlots(20)
			p := NewPagePool(c.budget, 0, time.Millisecond)
			var refused atomic.Int64
			stop := make(chan struct{})
			checked := make(chan struct{})
			go func() {
				defer close(checked)
				for {
					select {
					case <-stop:
						return
					default:
						checkPool(t, p, slots)
						runtime.Gosched()
					}
				}
			}()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 1500; i++ {
						perm := rng.Perm(len(slots))[:1+rng.Intn(maxPins)]
						pinned := make([]*pagedSlot, len(perm))
						for j, ord := range perm {
							pinned[j] = slots[ord]
						}
						release, err := pinAll(p, pinned...)
						if err != nil {
							if !errors.Is(err, ErrPageBudget) {
								t.Errorf("acquire failed with %v, want ErrPageBudget", err)
								return
							}
							refused.Add(1)
							continue
						}
						if st := p.Stats(); st.ResidentBytes > st.Budget {
							t.Errorf("resident %d over budget %d", st.ResidentBytes, st.Budget)
						}
						release()
					}
				}(int64(w))
			}
			wg.Wait()
			close(stop)
			<-checked
			checkPool(t, p, slots)
			st := p.Stats()
			if c.name == "roomy" && refused.Load() != 0 {
				t.Fatalf("%s: %d acquires refused although pins never fill the budget", c.name, refused.Load())
			}
			if st.Evictions == 0 {
				t.Fatalf("%s: 20 columns under a %d-column budget never evicted: %+v", c.name, c.budget, st)
			}
			// No pin leaked: the whole budget can be pinned at once.
			release, err := pinAll(p, slots[:c.budget]...)
			if err != nil {
				t.Fatalf("%s: pinning the whole budget after the hammer: %v", c.name, err)
			}
			release()
		}
	})
}
