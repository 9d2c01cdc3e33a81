// Package harvest implements Libra's harvest resource pool (§5.1): the
// per-worker-node registry of idle resources harvested from
// over-provisioned function invocations.
//
// A pool tracks one resource type (the paper decouples CPU and memory, so
// each node owns one pool for millicores and one for MB). Each tracking
// object is the paper's (invo_id, hvst_resource_vol, priority) tuple; the
// priority is the source invocation's estimated completion timestamp, and
// get() hands out units with the *largest* priority first — resources that
// potentially stay valid longest.
//
// The pool supports the paper's full lifecycle:
//
//   - put: track idle units harvested from a source invocation;
//   - get: borrow units best-effort for an accelerated invocation (a Loan);
//   - preemptive release: when the source completes (or its safeguard
//     fires), all of its units vanish instantly — both the pooled remainder
//     and the outstanding loans, which the caller must strip from borrowers;
//   - re-harvest: when a borrower completes while the source is still
//     running, the borrowed units re-enter the pool with their original
//     priority.
//
// Tracking objects, loan records and the per-source loan lists are
// recycled through free lists, so a steady-state lifecycle allocates
// nothing; the Loan type says who owns a loan record when.
//
// All operations are guarded by a mutex ("atomic resource operations with
// mutex exclusion", §5.1) so concurrent schedulers can share a node view.
package harvest

import (
	"fmt"
	"sort"
	"sync"

	"libra/internal/obs"
)

// ID identifies a function invocation (the source or borrower of
// harvested units).
type ID int64

// Entry is a snapshot of one tracking object in the pool.
type Entry struct {
	Source ID
	Vol    int64
	// Expiry is the priority: the source's estimated completion timestamp.
	Expiry float64
}

// Loan records units currently borrowed from one source by one borrower.
//
// Loan records are recycled, so a *Loan has an owner at every moment. Get
// hands it to the borrower, and the borrower hands it back with exactly
// one Reharvest call — when it finishes, or when the source's release
// revoked the loan and the units have been stripped from it (that return
// moves no units; it only gives the record back). After that call the
// pointer is dead: the record may already describe another loan. A
// borrower that dies without returning its loans (a node crash) just
// leaves the records to the garbage collector.
type Loan struct {
	Source   ID
	Borrower ID
	Vol      int64
	Expiry   float64

	lent bool // the source still backs it: listed in Pool.loans[Source]
	out  bool // the borrower has not handed it back yet
}

// LendOrder selects which pooled units a get() hands out first.
type LendOrder int

const (
	// LongestExpiryFirst is the paper's priority: units whose source
	// potentially runs longest are lent first (§5.1 "Priority").
	LongestExpiryFirst LendOrder = iota
	// FIFO lends in insertion order regardless of expiry — the ablation
	// baseline for the priority design choice.
	FIFO
)

// String names the lending order for logs and errors.
func (o LendOrder) String() string {
	switch o {
	case LongestExpiryFirst:
		return "LongestExpiryFirst"
	case FIFO:
		return "FIFO"
	}
	return fmt.Sprintf("LendOrder(%d)", int(o))
}

// Pool is a harvest resource pool for a single resource type.
type Pool struct {
	// Order is the lending order; the zero value is the paper's
	// longest-expiry-first priority.
	Order LendOrder

	mu       sync.Mutex
	bySource map[ID]*Entry
	loans    map[ID][]*Loan // keyed by source
	seq      map[ID]int64   // insertion order for FIFO
	nextSeq  int64

	// idle-time accounting for Fig 10: ∫ pooled-but-unused volume dt.
	lastUpdate   float64
	pooledVol    int64
	idleIntegral float64

	// expiredLive tracks, per still-live source, the volume dropped on
	// expiry (the pool stopped lending it, but the units physically remain
	// inside the source's committed reservation until its release). The
	// conservation audit needs it to close the per-node double entry:
	// Σ own + pooled + lent + expired-live == committed.
	expiredLive    map[ID]int64
	expiredLiveVol int64

	// lifecycle tracing (nil = disabled; see SetTracer)
	tracer    obs.Tracer
	traceNode int
	traceAxis string

	// indexHook fires after every mutation (nil = disabled; see
	// SetIndexHook) so a scheduler-side coverage index can dirty-mark the
	// node.
	indexHook func()

	// counters for reports
	totalPut, totalGot, totalExpired, totalReharvested int64

	// scratch is Get's reusable candidate buffer (guarded by mu), so the
	// lend path allocates nothing for its sort.
	scratch []*Entry

	// Recycled records (guarded by mu): tracking objects dropped by remove,
	// loans handed back through Reharvest, and the storage of per-source
	// loan lists that emptied.
	freeEntries []*Entry
	freeLoans   []*Loan
	freeLists   [][]*Loan
}

// New returns an empty pool.
func New() *Pool {
	return &Pool{
		bySource:    make(map[ID]*Entry),
		loans:       make(map[ID][]*Loan),
		seq:         make(map[ID]int64),
		expiredLive: make(map[ID]int64),
	}
}

// SetTracer attaches a lifecycle tracer to the pool; node and axis
// ("cpu" or "mem") label every event the pool emits. A nil tracer (the
// default) disables tracing at the cost of one nil check per potential
// event.
func (p *Pool) SetTracer(tr obs.Tracer, node int, axis string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tracer, p.traceNode, p.traceAxis = tr, node, axis
}

// SetIndexHook registers a callback invoked after every pool mutation
// (Put, Get, Reharvest, ReleaseSource, ReleaseAll). The scheduler's
// incremental coverage index uses it to dirty-mark the node when
// decisions read pool state live. The hook runs with the pool's lock
// held, so it must be trivial and must not call back into the pool;
// spurious invocations (mutations that end up changing nothing) are
// allowed — the index only over-approximates staleness.
func (p *Pool) SetIndexHook(fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.indexHook = fn
}

// notifyIndex fires the mutation hook; callers hold p.mu.
func (p *Pool) notifyIndex() {
	if p.indexHook != nil {
		p.indexHook()
	}
}

func (p *Pool) advance(now float64) {
	if now > p.lastUpdate {
		p.idleIntegral += float64(p.pooledVol) * (now - p.lastUpdate)
		p.lastUpdate = now
	}
}

// Put tracks vol idle units harvested from src, valid until expiry.
// Multiple puts for the same source merge; the later expiry wins (it is
// the fresher estimate). Zero or negative volumes are ignored.
func (p *Pool) Put(now float64, src ID, vol int64, expiry float64) {
	if vol <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advance(now)
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
	if p.tracer != nil {
		p.tracer.Record(obs.Event{T: now, Inv: int64(src), Kind: obs.KindHarvest,
			Node: p.traceNode, Axis: p.traceAxis, Val: float64(vol)})
	}
	p.notifyIndex()
}

// Get borrows up to want units for borrower, preferring units whose
// expiry is farthest in the future. It is best-effort: the returned loans
// may cover less than want (or be empty). Units already expired relative
// to now are skipped and dropped.
//
// Expiry invariant: expiry only governs the *pooled* remainder. A loan,
// once granted, survives its source's expiry estimate — the borrower
// physically holds the units until the source's explicit release
// (ReleaseSource on completion or safeguard retreat, ReleaseAll on node
// crash) or until the borrower returns them via Reharvest. The expiry is
// an estimate of the source's completion; a source running past it still
// owns its lent units, so LentBy and OutstandingLoans keep counting them
// (the OOM fault model depends on this). Dropping an expired entry here
// therefore touches p.bySource only, never p.loans.
func (p *Pool) Get(now float64, borrower ID, want int64) []*Loan {
	return p.AppendLoans(nil, now, borrower, want)
}

// AppendLoans is Get appending to dst: a borrower that keeps its loans in
// one list passes that list and takes no allocation for the result.
func (p *Pool) AppendLoans(dst []*Loan, now float64, borrower ID, want int64) []*Loan {
	if want <= 0 {
		return dst
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advance(now)
	entries := p.scratch[:0]
	for _, e := range p.bySource {
		entries = append(entries, e)
	}
	p.scratch = entries[:0]
	// Insertion sorts: both comparators are strict total orders (Source is
	// unique per pool), so the result is the unique sorted permutation —
	// and unlike sort.Slice this allocates nothing, which matters because
	// every lend on the acceleration path sorts here.
	if p.Order == FIFO {
		for i := 1; i < len(entries); i++ {
			e, s := entries[i], p.seq[entries[i].Source]
			j := i - 1
			for j >= 0 && p.seq[entries[j].Source] > s {
				entries[j+1] = entries[j]
				j--
			}
			entries[j+1] = e
		}
	} else {
		for i := 1; i < len(entries); i++ {
			e := entries[i]
			j := i - 1
			for j >= 0 && entryLess(*e, *entries[j]) {
				entries[j+1] = entries[j]
				j--
			}
			entries[j+1] = e
		}
	}
	for _, e := range entries {
		if want <= 0 {
			break
		}
		if e.Expiry <= now {
			// The source should already have released these; drop stale
			// units defensively rather than lend invalid resources. Its
			// outstanding loans deliberately survive (see the invariant
			// above).
			p.pooledVol -= e.Vol
			p.totalExpired += e.Vol
			p.expiredLive[e.Source] += e.Vol
			p.expiredLiveVol += e.Vol
			p.remove(e.Source)
			if p.tracer != nil {
				p.tracer.Record(obs.Event{T: now, Inv: int64(e.Source), Kind: obs.KindExpire,
					Node: p.traceNode, Axis: p.traceAxis, Val: float64(e.Vol)})
			}
			continue
		}
		take := e.Vol
		if take > want {
			take = want
		}
		e.Vol -= take
		p.pooledVol -= take
		p.totalGot += take
		loan := p.newLoan()
		*loan = Loan{Source: e.Source, Borrower: borrower, Vol: take, Expiry: e.Expiry, lent: true, out: true}
		p.addLoan(loan)
		dst = append(dst, loan)
		if e.Vol == 0 {
			p.remove(e.Source)
		}
		want -= take
		if p.tracer != nil {
			p.tracer.Record(obs.Event{T: now, Inv: int64(borrower), Kind: obs.KindLoanGrant,
				Node: p.traceNode, Peer: int64(loan.Source), Axis: p.traceAxis, Val: float64(take)})
		}
	}
	p.notifyIndex()
	return dst
}

// Reharvest returns a loan's units to the pool (the borrower finished
// while the source is still running, §5.1 "Re-harvesting"). The units
// re-enter with their original expiry. If the loan's source has already
// been released no units move — they are simply gone. Either way the
// call is the borrower giving the record back (see Loan): the pool may
// reuse it for the next loan it grants.
func (p *Pool) Reharvest(now float64, loan *Loan) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.notifyIndex()
	p.advance(now)
	if !loan.out {
		return // handed back before; a second return moves nothing
	}
	loan.out = false
	p.freeLoans = append(p.freeLoans, loan)
	if !loan.lent {
		return // source already released; nothing to return
	}
	p.unlinkLoan(loan)
	if loan.Expiry <= now {
		p.totalExpired += loan.Vol
		p.expiredLive[loan.Source] += loan.Vol
		p.expiredLiveVol += loan.Vol
		if p.tracer != nil {
			p.tracer.Record(obs.Event{T: now, Inv: int64(loan.Source), Kind: obs.KindExpire,
				Node: p.traceNode, Peer: int64(loan.Borrower), Axis: p.traceAxis, Val: float64(loan.Vol)})
		}
		return
	}
	if e, ok := p.bySource[loan.Source]; ok {
		e.Vol += loan.Vol
	} else {
		p.track(loan.Source, loan.Vol, loan.Expiry)
	}
	p.pooledVol += loan.Vol
	p.totalReharvested += loan.Vol
	if p.tracer != nil {
		p.tracer.Record(obs.Event{T: now, Inv: int64(loan.Source), Kind: obs.KindReharvest,
			Node: p.traceNode, Peer: int64(loan.Borrower), Axis: p.traceAxis, Val: float64(loan.Vol)})
	}
}

// ReleaseAll reconciles the whole pool at once — the node-crash path: the
// node's invocations are gone, so every tracking object whose source died
// and every loan whose source or borrower died (here: all of them) is
// dropped. It returns the pooled volume written off and the revoked loans
// in deterministic (source, insertion) order so crash accounting is
// reproducible.
func (p *Pool) ReleaseAll(now float64) (pooled int64, revoked []*Loan) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.notifyIndex()
	p.advance(now)
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
	if p.tracer != nil {
		for _, l := range revoked {
			p.tracer.Record(obs.Event{T: now, Inv: int64(l.Borrower), Kind: obs.KindLoanRevoke,
				Node: p.traceNode, Peer: int64(l.Source), Axis: p.traceAxis, Val: float64(l.Vol)})
		}
	}
	pooled = p.pooledVol
	p.pooledVol = 0
	p.bySource = make(map[ID]*Entry)
	p.loans = make(map[ID][]*Loan)
	p.seq = make(map[ID]int64)
	p.expiredLive = make(map[ID]int64)
	p.expiredLiveVol = 0
	return pooled, revoked
}

// LentBy returns the volume currently out on loan from src. The OOM-kill
// fault model keys on it: harvested memory that is on loan cannot be
// returned to an overrunning source in time.
func (p *Pool) LentBy(src ID) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var v int64
	for _, l := range p.loans[src] {
		v += l.Vol
	}
	return v
}

// ReleaseSource performs the preemptive release for src (§5.1): all its
// pooled units vanish and every outstanding loan from it is revoked. The
// revoked loans are returned so the caller (the worker node) can strip
// the units from the borrowers' allocations in realtime.
func (p *Pool) ReleaseSource(now float64, src ID) (pooled int64, revoked []*Loan) {
	return p.ReleaseSourceTo(nil, now, src)
}

// ReleaseSourceTo is ReleaseSource appending the revoked loans to dst, so
// a caller with a buffer of its own takes no allocation for the list.
func (p *Pool) ReleaseSourceTo(dst []*Loan, now float64, src ID) (pooled int64, revoked []*Loan) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.notifyIndex()
	p.advance(now)
	if e, ok := p.bySource[src]; ok {
		pooled = e.Vol
		p.pooledVol -= e.Vol
		p.remove(src)
	}
	first := len(dst)
	if ls, ok := p.loans[src]; ok {
		delete(p.loans, src)
		for _, l := range ls {
			l.lent = false
		}
		dst = append(dst, ls...)
		clear(ls)
		p.freeLists = append(p.freeLists, ls[:0])
	}
	if v, ok := p.expiredLive[src]; ok {
		p.expiredLiveVol -= v
		delete(p.expiredLive, src)
	}
	if p.tracer != nil {
		for _, l := range dst[first:] {
			p.tracer.Record(obs.Event{T: now, Inv: int64(l.Borrower), Kind: obs.KindLoanRevoke,
				Node: p.traceNode, Peer: int64(l.Source), Axis: p.traceAxis, Val: float64(l.Vol)})
		}
	}
	return pooled, dst
}

// track starts a tracking object for src, on a recycled record if one is
// parked.
func (p *Pool) track(src ID, vol int64, expiry float64) {
	var e *Entry
	if n := len(p.freeEntries); n > 0 {
		e = p.freeEntries[n-1]
		p.freeEntries = p.freeEntries[:n-1]
	} else {
		e = new(Entry)
	}
	*e = Entry{Source: src, Vol: vol, Expiry: expiry}
	p.bySource[src] = e
	p.seq[src] = p.nextSeq
	p.nextSeq++
}

// remove drops a source's entry and its FIFO sequence. The record is
// parked untouched, so a caller still holding it may read it until the
// next track.
func (p *Pool) remove(src ID) {
	if e, ok := p.bySource[src]; ok {
		p.freeEntries = append(p.freeEntries, e)
	}
	delete(p.bySource, src)
	delete(p.seq, src)
}

// newLoan returns a recycled loan record, or a fresh one.
func (p *Pool) newLoan() *Loan {
	if n := len(p.freeLoans); n > 0 {
		l := p.freeLoans[n-1]
		p.freeLoans[n-1] = nil
		p.freeLoans = p.freeLoans[:n-1]
		return l
	}
	return new(Loan)
}

// addLoan lists loan under its source. A source's first loan takes the
// storage of a list that emptied earlier.
func (p *Pool) addLoan(loan *Loan) {
	ls, ok := p.loans[loan.Source]
	if !ok {
		if n := len(p.freeLists); n > 0 {
			ls = p.freeLists[n-1]
			p.freeLists[n-1] = nil
			p.freeLists = p.freeLists[:n-1]
		}
	}
	p.loans[loan.Source] = append(ls, loan)
}

// unlinkLoan takes a lent loan off its source's list.
func (p *Pool) unlinkLoan(loan *Loan) {
	loan.lent = false
	ls := p.loans[loan.Source]
	for i, l := range ls {
		if l == loan {
			last := len(ls) - 1
			ls[i] = ls[last]
			ls[last] = nil
			ls = ls[:last]
			if last == 0 {
				delete(p.loans, loan.Source)
				p.freeLists = append(p.freeLists, ls)
			} else {
				p.loans[loan.Source] = ls
			}
			return
		}
	}
}

// Available returns the pooled (unlent, unexpired) volume at now.
func (p *Pool) Available(now float64) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var v int64
	for _, e := range p.bySource {
		if e.Expiry > now {
			v += e.Vol
		}
	}
	return v
}

// Entries returns a snapshot of the pooled tracking objects, sorted by
// descending expiry. This is the status information piggybacked on the
// node's health ping messages (§6.4) for demand-coverage computation.
func (p *Pool) Entries() []Entry {
	return p.AppendEntries(nil)
}

// AppendEntries appends the Entries snapshot to buf and returns the
// extended slice. Callers on the ping/coverage hot path pass their
// previous snapshot's storage (buf[:0]) so the periodic status refresh
// stops allocating once the buffers reach steady-state size.
func (p *Pool) AppendEntries(buf []Entry) []Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	start := len(buf)
	for _, e := range p.bySource {
		buf = append(buf, *e)
	}
	out := buf[start:]
	// Allocation-free insertion sort under the same strict total order as
	// Get's priority path; snapshots are small (one entry per source).
	for i := 1; i < len(out); i++ {
		e := out[i]
		j := i - 1
		for j >= 0 && entryLess(e, out[j]) {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = e
	}
	return buf
}

// entryLess is the pool's priority order: descending expiry, ascending
// source on ties (sources are unique, so this is a strict total order).
func entryLess(a, b Entry) bool {
	if a.Expiry != b.Expiry {
		return a.Expiry > b.Expiry
	}
	return a.Source < b.Source
}

// PooledVol returns the tracked pooled volume (lent and expired units
// excluded), with no expiry filtering — the raw double-entry figure the
// conservation audit sums against committed reservations.
func (p *Pool) PooledVol() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pooledVol
}

// ExpiredLive returns the volume dropped on expiry whose source has not
// yet released — units the pool no longer lends but which still occupy
// their source's committed reservation.
func (p *Pool) ExpiredLive() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.expiredLiveVol
}

// OutstandingLoans returns the total volume currently lent out.
func (p *Pool) OutstandingLoans() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var v int64
	for _, ls := range p.loans {
		for _, l := range ls {
			v += l.Vol
		}
	}
	return v
}

// IdleIntegral returns ∫ pooled volume dt up to now — the "idle time of
// harvested resources" metric of Fig 10 (units × seconds spent in the
// pool with no invocation using them).
func (p *Pool) IdleIntegral(now float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advance(now)
	return p.idleIntegral
}

// Stats summarises pool activity for the overhead report.
type Stats struct {
	Put, Got, Expired, Reharvested int64
}

// Stats returns cumulative counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{Put: p.totalPut, Got: p.totalGot, Expired: p.totalExpired, Reharvested: p.totalReharvested}
}

func (e Entry) String() string {
	return fmt.Sprintf("{src=%d vol=%d expiry=%.3f}", e.Source, e.Vol, e.Expiry)
}
