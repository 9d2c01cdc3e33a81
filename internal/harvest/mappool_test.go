package harvest

import (
	"reflect"
	"sort"
	"testing"
)

// mapPool is the pool as it was before the per-source records: four maps
// keyed by source ID (tracking objects, loan lists, FIFO sequence,
// expired-live volume). It is kept here, without tracing, hooks and record
// recycling, as the reference FuzzPoolMatchesMapPool replays every script
// against.
type mapPool struct {
	order LendOrder

	bySource map[ID]*Entry
	loans    map[ID][]*mapLoan
	seq      map[ID]int64
	nextSeq  int64

	pooledVol      int64
	expiredLive    map[ID]int64
	expiredLiveVol int64

	totalPut, totalGot, totalExpired, totalReharvested int64
}

type mapLoan struct {
	Source, Borrower ID
	Vol              int64
	Expiry           float64
	lent, out        bool
}

func newMapPool(order LendOrder) *mapPool {
	return &mapPool{
		order:       order,
		bySource:    make(map[ID]*Entry),
		loans:       make(map[ID][]*mapLoan),
		seq:         make(map[ID]int64),
		expiredLive: make(map[ID]int64),
	}
}

func (p *mapPool) put(src ID, vol int64, expiry float64) {
	if vol <= 0 {
		return
	}
	if e, ok := p.bySource[src]; ok {
		e.Vol += vol
		if expiry > e.Expiry {
			e.Expiry = expiry
		}
	} else {
		p.track(src, vol, expiry)
	}
	p.pooledVol += vol
	p.totalPut += vol
}

func (p *mapPool) get(now float64, borrower ID, want int64) []*mapLoan {
	if want <= 0 {
		return nil
	}
	entries := make([]*Entry, 0, len(p.bySource))
	for _, e := range p.bySource {
		entries = append(entries, e)
	}
	if p.order == FIFO {
		sort.Slice(entries, func(i, j int) bool { return p.seq[entries[i].Source] < p.seq[entries[j].Source] })
	} else {
		sort.Slice(entries, func(i, j int) bool { return entryLess(*entries[i], *entries[j]) })
	}
	var out []*mapLoan
	for _, e := range entries {
		if want <= 0 {
			break
		}
		if e.Expiry <= now {
			p.pooledVol -= e.Vol
			p.totalExpired += e.Vol
			p.expiredLive[e.Source] += e.Vol
			p.expiredLiveVol += e.Vol
			p.remove(e.Source)
			continue
		}
		take := e.Vol
		if take > want {
			take = want
		}
		e.Vol -= take
		p.pooledVol -= take
		p.totalGot += take
		loan := &mapLoan{Source: e.Source, Borrower: borrower, Vol: take, Expiry: e.Expiry, lent: true, out: true}
		p.loans[loan.Source] = append(p.loans[loan.Source], loan)
		out = append(out, loan)
		if e.Vol == 0 {
			p.remove(e.Source)
		}
		want -= take
	}
	return out
}

func (p *mapPool) reharvest(now float64, loan *mapLoan) {
	if !loan.out {
		return
	}
	loan.out = false
	if !loan.lent {
		return
	}
	loan.lent = false
	ls := p.loans[loan.Source]
	for i, l := range ls {
		if l == loan {
			last := len(ls) - 1
			ls[i] = ls[last]
			ls = ls[:last]
			if last == 0 {
				delete(p.loans, loan.Source)
			} else {
				p.loans[loan.Source] = ls
			}
			break
		}
	}
	if loan.Expiry <= now {
		p.totalExpired += loan.Vol
		p.expiredLive[loan.Source] += loan.Vol
		p.expiredLiveVol += loan.Vol
		return
	}
	if e, ok := p.bySource[loan.Source]; ok {
		e.Vol += loan.Vol
	} else {
		p.track(loan.Source, loan.Vol, loan.Expiry)
	}
	p.pooledVol += loan.Vol
	p.totalReharvested += loan.Vol
}

func (p *mapPool) releaseAll() (pooled int64, revoked []*mapLoan) {
	sources := make([]ID, 0, len(p.loans))
	for src := range p.loans {
		sources = append(sources, src)
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	for _, src := range sources {
		revoked = append(revoked, p.loans[src]...)
	}
	for _, l := range revoked {
		l.lent = false
	}
	pooled = p.pooledVol
	p.pooledVol = 0
	p.bySource = make(map[ID]*Entry)
	p.loans = make(map[ID][]*mapLoan)
	p.seq = make(map[ID]int64)
	p.expiredLive = make(map[ID]int64)
	p.expiredLiveVol = 0
	return pooled, revoked
}

func (p *mapPool) releaseSource(src ID) (pooled int64, revoked []*mapLoan) {
	if e, ok := p.bySource[src]; ok {
		pooled = e.Vol
		p.pooledVol -= e.Vol
		p.remove(src)
	}
	if ls, ok := p.loans[src]; ok {
		delete(p.loans, src)
		for _, l := range ls {
			l.lent = false
		}
		revoked = ls
	}
	if v, ok := p.expiredLive[src]; ok {
		p.expiredLiveVol -= v
		delete(p.expiredLive, src)
	}
	return pooled, revoked
}

func (p *mapPool) track(src ID, vol int64, expiry float64) {
	p.bySource[src] = &Entry{Source: src, Vol: vol, Expiry: expiry}
	p.seq[src] = p.nextSeq
	p.nextSeq++
}

func (p *mapPool) remove(src ID) {
	delete(p.bySource, src)
	delete(p.seq, src)
}

func (p *mapPool) available(now float64) int64 {
	var v int64
	for _, e := range p.bySource {
		if e.Expiry > now {
			v += e.Vol
		}
	}
	return v
}

func (p *mapPool) entries() []Entry {
	var out []Entry
	for _, e := range p.bySource {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return entryLess(out[i], out[j]) })
	return out
}

func (p *mapPool) lentBy(src ID) int64 {
	var v int64
	for _, l := range p.loans[src] {
		v += l.Vol
	}
	return v
}

func (p *mapPool) outstandingLoans() int64 {
	var v int64
	for _, ls := range p.loans {
		for _, l := range ls {
			v += l.Vol
		}
	}
	return v
}

// loanTuple is what a loan says, whichever pool granted it.
type loanTuple struct {
	Source, Borrower ID
	Vol              int64
	Expiry           float64
}

func tuples(ls []*Loan) []loanTuple {
	var out []loanTuple
	for _, l := range ls {
		out = append(out, loanTuple{l.Source, l.Borrower, l.Vol, l.Expiry})
	}
	return out
}

func mapTuples(ls []*mapLoan) []loanTuple {
	var out []loanTuple
	for _, l := range ls {
		out = append(out, loanTuple{l.Source, l.Borrower, l.Vol, l.Expiry})
	}
	return out
}

// fuzzSources is how many source IDs a script draws from: few enough that
// puts merge, releases hit live sources and records get recycled, more
// than the pool's inline first chunk so its lists also outgrow it.
const fuzzSources = 11

// FuzzPoolMatchesMapPool drives the pool and the map-based pool it
// replaced through one script of Put / AppendLoans / Reharvest /
// ReleaseSourceTo / ReleaseAll calls, under either lending order, and
// requires that they agree after every step on everything a caller can
// see. Expiries are small integers around the clock, so ties are the
// rule and many entries are already expired when they are put or lent.
// Each operation reads three bytes: opcode and two arguments.
func FuzzPoolMatchesMapPool(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 1, 9, 30, 0, 2, 9, 31, 1, 1, 5, 3, 0, 0, 2, 0, 0})
	// FIFO, ties on every expiry, partial lends, return out of order.
	f.Add([]byte{1, 0, 0, 8, 0, 1, 8, 0, 2, 8, 1, 0, 3, 1, 1, 9, 2, 1, 0, 2, 0, 0, 1, 2, 20, 3, 1, 0})
	// Entries that are expired when put, lent after the clock moved past
	// others, loans returned after their expiry.
	f.Add([]byte{0, 0, 0, 0, 0, 1, 17, 5, 3, 0, 5, 2, 0, 1, 0, 30, 5, 7, 0, 2, 0, 0, 2, 0, 0, 1, 1, 4})
	// More sources than the first chunk, a crash in the middle, reuse after.
	f.Add([]byte{0,
		0, 0, 40, 0, 1, 41, 0, 2, 42, 0, 3, 43, 0, 4, 44, 0, 5, 45, 0, 6, 46, 0, 7, 47, 0, 8, 40, 0, 9, 41, 0, 10, 42,
		1, 0, 60, 1, 1, 25, 4, 0, 0, 0, 3, 44, 1, 2, 9, 2, 0, 0, 3, 3, 0})
	// Release a source with loans out, then hand the dead loans back.
	f.Add([]byte{1, 0, 4, 36, 1, 0, 3, 1, 1, 2, 3, 4, 0, 2, 0, 0, 2, 0, 0, 0, 4, 33, 1, 2, 9})

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		order := LendOrder(script[0] & 1)
		got := New()
		got.Order = order
		want := newMapPool(order)
		// Loans the borrowers hold, index-aligned across the two pools.
		var held []*Loan
		var heldRef []*mapLoan
		now := 0.0

		for pc := 1; pc+2 < len(script); pc += 3 {
			op, a, b := script[pc]%6, script[pc+1], script[pc+2]
			switch op {
			case 0: // put: volume 0..7 (0 is ignored), expiry now-2..now+5
				src, vol, expiry := ID(a%fuzzSources), int64(b&7), now+float64(b>>3&7)-2
				got.Put(now, src, vol, expiry)
				want.put(src, vol, expiry)
			case 1: // lend
				borrower, ask := ID(100+int(a%5)), int64(b%24)
				before := len(held)
				held = got.AppendLoans(held, now, borrower, ask)
				ref := want.get(now, borrower, ask)
				if g, w := tuples(held[before:]), mapTuples(ref); !reflect.DeepEqual(g, w) {
					t.Fatalf("op %d: AppendLoans(%d, %d) at %v lent %v, map pool %v", pc/3, borrower, ask, now, g, w)
				}
				heldRef = append(heldRef, ref...)
			case 2: // a borrower returns one loan
				if len(held) == 0 {
					continue
				}
				i := int(a) % len(held)
				got.Reharvest(now, held[i])
				want.reharvest(now, heldRef[i])
				held = append(held[:i], held[i+1:]...)
				heldRef = append(heldRef[:i], heldRef[i+1:]...)
			case 3: // a source completes; its borrowers keep the dead loans until they return them
				src := ID(a % fuzzSources)
				gp, gr := got.ReleaseSourceTo(nil, now, src)
				wp, wr := want.releaseSource(src)
				if gp != wp || !reflect.DeepEqual(tuples(gr), mapTuples(wr)) {
					t.Fatalf("op %d: ReleaseSourceTo(%d) = %d %v, map pool %d %v", pc/3, src, gp, tuples(gr), wp, mapTuples(wr))
				}
			case 4: // the node crashes: borrowers die with their loans
				if a%4 != 0 {
					continue // keep crashes rarer than the rest
				}
				gp, gr := got.ReleaseAll(now)
				wp, wr := want.releaseAll()
				if gp != wp || !reflect.DeepEqual(tuples(gr), mapTuples(wr)) {
					t.Fatalf("op %d: ReleaseAll = %d %v, map pool %d %v", pc/3, gp, tuples(gr), wp, mapTuples(wr))
				}
				held, heldRef = nil, nil
			case 5: // time passes, often onto an expiry
				now += float64(a % 3)
			}

			if g, w := got.Entries(), want.entries(); !reflect.DeepEqual(g, w) {
				t.Fatalf("op %d: Entries = %v, map pool %v", pc/3, g, w)
			}
			if g, w := got.Available(now), want.available(now); g != w {
				t.Fatalf("op %d: Available = %d, map pool %d", pc/3, g, w)
			}
			for src := ID(0); src < fuzzSources; src++ {
				if g, w := got.LentBy(src), want.lentBy(src); g != w {
					t.Fatalf("op %d: LentBy(%d) = %d, map pool %d", pc/3, src, g, w)
				}
			}
			if g, w := got.OutstandingLoans(), want.outstandingLoans(); g != w {
				t.Fatalf("op %d: OutstandingLoans = %d, map pool %d", pc/3, g, w)
			}
			if g, w := got.PooledVol(), want.pooledVol; g != w {
				t.Fatalf("op %d: PooledVol = %d, map pool %d", pc/3, g, w)
			}
			if g, w := got.ExpiredLive(), want.expiredLiveVol; g != w {
				t.Fatalf("op %d: ExpiredLive = %d, map pool %d", pc/3, g, w)
			}
			ws := Stats{Put: want.totalPut, Got: want.totalGot, Expired: want.totalExpired, Reharvested: want.totalReharvested}
			if g := got.Stats(); g != ws {
				t.Fatalf("op %d: Stats = %+v, map pool %+v", pc/3, g, ws)
			}
			// A record recycled while a borrower still holds it would show here.
			if g, w := tuples(held), mapTuples(heldRef); !reflect.DeepEqual(g, w) {
				t.Fatalf("op %d: held loans read %v, map pool %v", pc/3, g, w)
			}
		}
	})
}
