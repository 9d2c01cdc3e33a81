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
// A pool holds one record per source invocation that still has units in
// it, out on loan from it, or written off on expiry — a handful at a time,
// one per co-located harvested invocation — so the records live in a plain
// list searched by ID, not in maps. Source and loan records are recycled
// through free lists, so a steady-state lifecycle allocates nothing; the
// Loan type says who owns a loan record when.
//
// All operations are guarded by a mutex ("atomic resource operations with
// mutex exclusion", §5.1) so concurrent schedulers can share a node view.
package harvest

import (
	"fmt"
	"sync"
	"sync/atomic"

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

	src *source // the source's record while it still backs the loan (listed in src.loans), else nil
	out bool    // the borrower has not handed it back yet
}

// source is everything the pool knows about one source invocation: its
// tracking object (while tracked), the loans it backs, and the volume the
// pool wrote off on expiry while the source lives on. The record exists as
// long as any of the three is non-empty.
type source struct {
	// entry is the tracking object. Source names the record for its whole
	// life; Vol and Expiry mean something while tracked.
	entry   Entry
	tracked bool
	seq     int64 // when the current tracking object was started (FIFO order)
	loans   []*Loan
	// expiredLive is the volume dropped on expiry (the pool stopped lending
	// it, but the units physically remain inside the source's committed
	// reservation until its release). The conservation audit needs it to
	// close the per-node double entry:
	// Σ own + pooled + lent + expired-live == committed.
	expiredLive int64
}

// firstChunk is the inline capacity of a pool's source list. A node runs a
// few dozen invocations at most and only some are harvested from at once,
// so most pools never outgrow it, and a cluster's worth of them grow no
// list on the way there.
const firstChunk = 8

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

	mu      sync.Mutex
	sources []*source // unordered; every walk that matters sorts or sums
	nextSeq int64

	// version counts mutations (see Version); it moves wherever the index
	// hook fires.
	version atomic.Uint64

	// idle-time accounting for Fig 10: ∫ pooled-but-unused volume dt.
	lastUpdate   float64
	pooledVol    int64
	idleIntegral float64

	expiredLiveVol int64 // Σ source.expiredLive

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
	scratch []*source

	// Recycled records (guarded by mu): sources whose last unit left (each
	// keeps its loan list's storage) and loans handed back through
	// Reharvest.
	freeSources []*source
	freeLoans   []*Loan

	// sourcesBuf is the first chunk of sources.
	sourcesBuf [firstChunk]*source
}

// New returns an empty pool.
func New() *Pool {
	p := &Pool{}
	p.sources = p.sourcesBuf[:0]
	return p
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

// notifyIndex records a mutation: it moves the version and fires the
// index hook; callers hold p.mu.
func (p *Pool) notifyIndex() {
	p.version.Add(1)
	if p.indexHook != nil {
		p.indexHook()
	}
}

// Version returns a counter that moves on every mutation (Put, Get,
// Reharvest, ReleaseSource of a source the pool knows, ReleaseAll — like
// the index hook, possibly on one that ended up changing nothing). Entries cannot have changed between
// two reads of the same value, so a periodic snapshot taker keeps its last
// copy while the version stands. It takes no lock.
func (p *Pool) Version() uint64 { return p.version.Load() }

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
	if s := p.find(src); s != nil && s.tracked {
		s.entry.Vol += vol
		if expiry > s.entry.Expiry {
			s.entry.Expiry = expiry
		}
	} else {
		p.track(s, src, vol, expiry)
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
// therefore ends the source's tracking object only, never its loans.
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
	cands := p.scratch[:0]
	for _, s := range p.sources {
		if s.tracked {
			cands = append(cands, s)
		}
	}
	p.scratch = cands[:0]
	// Insertion sorts: both comparators are strict total orders (Source is
	// unique per pool), so the result is the unique sorted permutation —
	// and unlike sort.Slice this allocates nothing, which matters because
	// every lend on the acceleration path sorts here.
	if p.Order == FIFO {
		for i := 1; i < len(cands); i++ {
			s := cands[i]
			j := i - 1
			for j >= 0 && cands[j].seq > s.seq {
				cands[j+1] = cands[j]
				j--
			}
			cands[j+1] = s
		}
	} else {
		for i := 1; i < len(cands); i++ {
			s := cands[i]
			j := i - 1
			for j >= 0 && entryLess(s.entry, cands[j].entry) {
				cands[j+1] = cands[j]
				j--
			}
			cands[j+1] = s
		}
	}
	for _, s := range cands {
		if want <= 0 {
			break
		}
		e := s.entry
		if e.Expiry <= now {
			// The source should already have released these; drop stale
			// units defensively rather than lend invalid resources. Its
			// outstanding loans deliberately survive (see the invariant
			// above).
			p.pooledVol -= e.Vol
			p.totalExpired += e.Vol
			s.expiredLive += e.Vol
			p.expiredLiveVol += e.Vol
			s.tracked = false
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
		s.entry.Vol -= take
		p.pooledVol -= take
		p.totalGot += take
		loan := p.newLoan()
		*loan = Loan{Source: e.Source, Borrower: borrower, Vol: take, Expiry: e.Expiry, src: s, out: true}
		s.loans = append(s.loans, loan)
		dst = append(dst, loan)
		if s.entry.Vol == 0 {
			s.tracked = false
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
	src := loan.src
	if src == nil {
		return // source already released; nothing to return
	}
	unlinkLoan(src, loan)
	if loan.Expiry <= now {
		p.totalExpired += loan.Vol
		src.expiredLive += loan.Vol
		p.expiredLiveVol += loan.Vol
		if p.tracer != nil {
			p.tracer.Record(obs.Event{T: now, Inv: int64(loan.Source), Kind: obs.KindExpire,
				Node: p.traceNode, Peer: int64(loan.Borrower), Axis: p.traceAxis, Val: float64(loan.Vol)})
		}
		return
	}
	if src.tracked {
		src.entry.Vol += loan.Vol
	} else {
		p.track(src, loan.Source, loan.Vol, loan.Expiry)
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
	// The list is unordered, so it can be sorted where it stands.
	for i := 1; i < len(p.sources); i++ {
		s := p.sources[i]
		j := i - 1
		for j >= 0 && p.sources[j].entry.Source > s.entry.Source {
			p.sources[j+1] = p.sources[j]
			j--
		}
		p.sources[j+1] = s
	}
	for _, s := range p.sources {
		revoked = append(revoked, s.loans...)
	}
	for _, l := range revoked {
		l.src = nil
	}
	if p.tracer != nil {
		for _, l := range revoked {
			p.tracer.Record(obs.Event{T: now, Inv: int64(l.Borrower), Kind: obs.KindLoanRevoke,
				Node: p.traceNode, Peer: int64(l.Source), Axis: p.traceAxis, Val: float64(l.Vol)})
		}
	}
	pooled = p.pooledVol
	p.pooledVol = 0
	for i, s := range p.sources {
		p.recycle(s)
		p.sources[i] = nil
	}
	p.sources = p.sources[:0]
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
	if s := p.find(src); s != nil {
		for _, l := range s.loans {
			v += l.Vol
		}
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
	p.advance(now)
	i := 0
	for i < len(p.sources) && p.sources[i].entry.Source != src {
		i++
	}
	if i == len(p.sources) {
		// Nothing of src is here — the common case on a node that harvests
		// little — so the pool has not changed and nobody is told it has.
		return 0, dst
	}
	s := p.sources[i]
	if s.tracked {
		pooled = s.entry.Vol
		p.pooledVol -= pooled
	}
	p.expiredLiveVol -= s.expiredLive
	first := len(dst)
	dst = append(dst, s.loans...)
	for _, l := range dst[first:] {
		l.src = nil
		if p.tracer != nil {
			p.tracer.Record(obs.Event{T: now, Inv: int64(l.Borrower), Kind: obs.KindLoanRevoke,
				Node: p.traceNode, Peer: int64(l.Source), Axis: p.traceAxis, Val: float64(l.Vol)})
		}
	}
	last := len(p.sources) - 1
	p.sources[i] = p.sources[last]
	p.sources[last] = nil
	p.sources = p.sources[:last]
	p.recycle(s)
	p.notifyIndex()
	return pooled, dst
}

// find returns src's record, or nil.
func (p *Pool) find(src ID) *source {
	for _, s := range p.sources {
		if s.entry.Source == src {
			return s
		}
	}
	return nil
}

// track starts a tracking object for src on its record s — a new record,
// recycled if one is parked, when s is nil.
func (p *Pool) track(s *source, src ID, vol int64, expiry float64) {
	if s == nil {
		if n := len(p.freeSources); n > 0 {
			s = p.freeSources[n-1]
			p.freeSources[n-1] = nil
			p.freeSources = p.freeSources[:n-1]
		} else {
			s = new(source)
		}
		p.sources = append(p.sources, s)
	}
	s.entry = Entry{Source: src, Vol: vol, Expiry: expiry}
	s.tracked = true
	s.seq = p.nextSeq
	p.nextSeq++
}

// recycle empties a record that left p.sources and parks it; its loan
// list keeps its storage for the record's next source.
func (p *Pool) recycle(s *source) {
	clear(s.loans)
	*s = source{loans: s.loans[:0]}
	p.freeSources = append(p.freeSources, s)
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

// unlinkLoan takes a loan off the list of the source that backs it.
func unlinkLoan(s *source, loan *Loan) {
	loan.src = nil
	for i, l := range s.loans {
		if l == loan {
			last := len(s.loans) - 1
			s.loans[i] = s.loans[last]
			s.loans[last] = nil
			s.loans = s.loans[:last]
			return
		}
	}
}

// Available returns the pooled (unlent, unexpired) volume at now.
func (p *Pool) Available(now float64) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var v int64
	for _, s := range p.sources {
		if s.tracked && s.entry.Expiry > now {
			v += s.entry.Vol
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
	for _, s := range p.sources {
		if s.tracked {
			buf = append(buf, s.entry)
		}
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
	for _, s := range p.sources {
		for _, l := range s.loans {
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
