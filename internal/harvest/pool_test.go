package harvest

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGetPriorityOrder(t *testing.T) {
	// Fig 4 scenario: invocation 1 expires at t4, invocation 2 at t3 < t4.
	// A get for two units must take one from each, preferring the longer-
	// lived unit first.
	p := New()
	p.Put(0, 1, 1, 4.0) // invocation 1: one unit until t=4
	p.Put(0, 2, 2, 3.0) // invocation 2: two units until t=3
	loans := p.Get(1.0, 4, 2)
	total := int64(0)
	for _, l := range loans {
		total += l.Vol
	}
	if total != 2 {
		t.Fatalf("borrowed %d units, want 2", total)
	}
	if loans[0].Source != 1 {
		t.Fatalf("first loan from source %d, want 1 (largest priority first)", loans[0].Source)
	}
	if loans[1].Source != 2 || loans[1].Vol != 1 {
		t.Fatalf("second loan = %+v, want 1 unit from source 2", loans[1])
	}
	// One unit of invocation 2 remains pooled.
	if v := p.Available(1.0); v != 1 {
		t.Fatalf("Available = %d, want 1", v)
	}
}

func TestGetBestEffort(t *testing.T) {
	p := New()
	p.Put(0, 1, 3, 10)
	loans := p.Get(0, 9, 100)
	if len(loans) != 1 || loans[0].Vol != 3 {
		t.Fatalf("best-effort get = %+v, want single 3-unit loan", loans)
	}
	if p.Available(0) != 0 {
		t.Fatal("pool should be drained")
	}
	if p.Get(0, 9, 5) != nil {
		t.Fatal("get from empty pool should return nil")
	}
}

func TestGetSkipsExpired(t *testing.T) {
	p := New()
	p.Put(0, 1, 5, 2.0)
	p.Put(0, 2, 5, 9.0)
	loans := p.Get(3.0, 7, 10) // source 1 expired at t=2
	if len(loans) != 1 || loans[0].Source != 2 {
		t.Fatalf("loans = %+v, want only source 2", loans)
	}
	if p.Available(3.0) != 0 {
		t.Fatal("expired entry should have been dropped")
	}
}

func TestPreemptiveRelease(t *testing.T) {
	p := New()
	p.Put(0, 1, 4, 10)
	loans := p.Get(0, 9, 3)
	if len(loans) != 1 || loans[0].Vol != 3 {
		t.Fatalf("setup: loans = %+v", loans)
	}
	pooled, revoked := p.ReleaseSource(1, 1)
	if pooled != 1 {
		t.Fatalf("pooled remainder = %d, want 1", pooled)
	}
	if len(revoked) != 1 || revoked[0].Vol != 3 || revoked[0].Borrower != 9 {
		t.Fatalf("revoked = %+v", revoked)
	}
	if p.Available(1) != 0 || p.OutstandingLoans() != 0 {
		t.Fatal("release left units behind")
	}
	// Releasing again is a no-op.
	pooled, revoked = p.ReleaseSource(1, 1)
	if pooled != 0 || revoked != nil {
		t.Fatal("double release not idempotent")
	}
}

func TestReharvest(t *testing.T) {
	p := New()
	p.Put(0, 1, 2, 10)
	loans := p.Get(0, 9, 2)
	p.Reharvest(1, loans[0])
	if v := p.Available(1); v != 2 {
		t.Fatalf("Available after reharvest = %d, want 2", v)
	}
	// The reharvested units keep their original expiry: a later borrower
	// still sees source 1.
	loans2 := p.Get(2, 11, 2)
	if len(loans2) != 1 || loans2[0].Source != 1 || loans2[0].Expiry != 10 {
		t.Fatalf("reharvested loan = %+v", loans2)
	}
}

func TestReharvestAfterSourceReleaseIsNoop(t *testing.T) {
	p := New()
	p.Put(0, 1, 2, 10)
	loans := p.Get(0, 9, 2)
	p.ReleaseSource(1, 1)
	p.Reharvest(2, loans[0]) // source gone: units must NOT re-enter
	if v := p.Available(2); v != 0 {
		t.Fatalf("Available = %d after reharvest of released source, want 0", v)
	}
}

func TestReharvestExpiredLoanDropped(t *testing.T) {
	p := New()
	p.Put(0, 1, 2, 5)
	loans := p.Get(0, 9, 2)
	p.Reharvest(6, loans[0]) // past expiry
	if v := p.Available(6); v != 0 {
		t.Fatalf("expired reharvest re-entered pool: Available = %d", v)
	}
	if s := p.Stats(); s.Expired != 2 {
		t.Fatalf("Stats.Expired = %d, want 2", s.Expired)
	}
}

func TestPutMergesAndKeepsLaterExpiry(t *testing.T) {
	p := New()
	p.Put(0, 1, 2, 5)
	p.Put(0, 1, 3, 8)
	es := p.Entries()
	if len(es) != 1 || es[0].Vol != 5 || es[0].Expiry != 8 {
		t.Fatalf("Entries = %+v", es)
	}
	p.Put(0, 1, 0, 99) // zero volume ignored
	p.Put(0, 1, -4, 99)
	if p.Available(0) != 5 {
		t.Fatal("zero/negative put changed the pool")
	}
}

func TestEntriesSortedByExpiry(t *testing.T) {
	p := New()
	p.Put(0, 1, 1, 3)
	p.Put(0, 2, 1, 9)
	p.Put(0, 3, 1, 6)
	es := p.Entries()
	if es[0].Source != 2 || es[1].Source != 3 || es[2].Source != 1 {
		t.Fatalf("Entries order = %+v", es)
	}
}

func TestIdleIntegral(t *testing.T) {
	p := New()
	p.Put(0, 1, 4, 100)
	// 4 units idle for 5 seconds
	if got := p.IdleIntegral(5); got != 20 {
		t.Fatalf("IdleIntegral = %g, want 20", got)
	}
	p.Get(5, 9, 4)
	// nothing idle afterwards
	if got := p.IdleIntegral(10); got != 20 {
		t.Fatalf("IdleIntegral = %g after drain, want 20", got)
	}
}

func TestStatsCounters(t *testing.T) {
	p := New()
	p.Put(0, 1, 5, 10)
	loans := p.Get(0, 9, 3)
	p.Reharvest(1, loans[0])
	s := p.Stats()
	if s.Put != 5 || s.Got != 3 || s.Reharvested != 3 {
		t.Fatalf("Stats = %+v", s)
	}
}

// Property: volume conservation — for any operation sequence without
// expiry, pooled + lent == put - released - expired.
func TestPropertyVolumeConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New()
		var put, released int64
		var live []*Loan
		now := 0.0
		for op := 0; op < 300; op++ {
			now += rng.Float64()
			switch rng.Intn(4) {
			case 0:
				v := int64(rng.Intn(10) + 1)
				p.Put(now, ID(rng.Intn(20)), v, now+1000) // far expiry: never expires
				put += v
			case 1:
				loans := p.Get(now, ID(100+rng.Intn(20)), int64(rng.Intn(15)))
				live = append(live, loans...)
			case 2:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					p.Reharvest(now, live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 3:
				src := ID(rng.Intn(20))
				pooled, revoked := p.ReleaseSource(now, src)
				released += pooled
				for _, r := range revoked {
					released += r.Vol
					for i, l := range live {
						if l == r {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				}
			}
		}
		var lent int64
		for _, l := range live {
			lent += l.Vol
		}
		return p.Available(now)+lent == put-released
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: get never returns more than requested, and loans are ordered
// by nonincreasing expiry.
func TestPropertyGetBounded(t *testing.T) {
	f := func(seed int64, want uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New()
		for i := 0; i < 10; i++ {
			p.Put(0, ID(i), int64(rng.Intn(5)+1), 1+rng.Float64()*10)
		}
		loans := p.Get(0.5, 99, int64(want))
		var tot int64
		prev := 1e18
		for _, l := range loans {
			tot += l.Vol
			if l.Expiry > prev {
				return false
			}
			prev = l.Expiry
		}
		return tot <= int64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The pool must be safe under concurrent access (§5.1 "Concurrency").
func TestConcurrentAccess(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				src := ID(g*1000 + i)
				p.Put(float64(i), src, 2, float64(i)+50)
				loans := p.Get(float64(i), src+500000, 1)
				for _, l := range loans {
					p.Reharvest(float64(i), l)
				}
				p.ReleaseSource(float64(i)+0.5, src)
			}
		}(g)
	}
	wg.Wait()
	if p.OutstandingLoans() != 0 {
		t.Fatalf("outstanding loans = %d after all releases", p.OutstandingLoans())
	}
}

func BenchmarkPutGetRelease(b *testing.B) {
	p := New()
	for i := 0; i < b.N; i++ {
		src := ID(i)
		p.Put(float64(i), src, 4, float64(i)+10)
		loans := p.Get(float64(i), src+1, 2)
		for _, l := range loans {
			p.Reharvest(float64(i), l)
		}
		p.ReleaseSource(float64(i)+1, src)
	}
}

func TestLendOrderString(t *testing.T) {
	for order, want := range map[LendOrder]string{
		LongestExpiryFirst: "LongestExpiryFirst",
		FIFO:               "FIFO",
		LendOrder(7):       "LendOrder(7)",
	} {
		if got := order.String(); got != want {
			t.Errorf("LendOrder(%d).String() = %q, want %q", int(order), got, want)
		}
	}
}

// Tracking objects, loans and per-source loan lists are recycled, so once
// the free lists are primed a harvest lifecycle allocates nothing —
// whichever side lets go first.
func TestLifecycleSteadyStateZeroAllocs(t *testing.T) {
	p := New()
	var loans, revoked []*Loan
	i := 0
	cycle := func() {
		now := float64(i)
		src, other := ID(2*i), ID(2*i+1)
		i++
		p.Put(now, src, 1000, now+10)
		p.Put(now, other, 1000, now+5)
		// Borrower first: the loans return while both sources run.
		loans = p.AppendLoans(loans[:0], now, 1<<40, 1500)
		for _, l := range loans {
			p.Reharvest(now, l)
		}
		// Source first: the release revokes, the borrower hands the
		// stripped records back.
		loans = p.AppendLoans(loans[:0], now, 1<<40, 1500)
		_, revoked = p.ReleaseSourceTo(revoked[:0], now, src)
		_, revoked = p.ReleaseSourceTo(revoked, now, other)
		if len(loans) != 2 || len(revoked) != 2 {
			t.Fatalf("cycle %d: %d loans, %d revoked, want 2 and 2", i, len(loans), len(revoked))
		}
		for _, l := range revoked {
			p.Reharvest(now, l)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("harvest lifecycle allocates %v times per cycle, want 0", allocs)
	}
	if p.OutstandingLoans() != 0 || p.PooledVol() != 0 {
		t.Fatalf("lifecycle left %d lent, %d pooled", p.OutstandingLoans(), p.PooledVol())
	}
}

// A loan record goes back to the free list exactly once, however often a
// stale holder returns it before it is lent again.
func TestDoubleReharvestDoesNotDuplicateTheRecord(t *testing.T) {
	p := New()
	p.Put(0, 1, 10, 100)
	l := p.Get(0, 9, 4)[0]
	p.Reharvest(1, l)
	p.Reharvest(1, l)
	a, b := p.Get(2, 9, 3), p.Get(2, 10, 3)
	if len(a) != 1 || len(b) != 1 || a[0] == b[0] {
		t.Fatalf("two loans share a record: %p %p", a[0], b[0])
	}
	if got := p.OutstandingLoans(); got != 6 {
		t.Fatalf("outstanding = %d, want 6", got)
	}
}
