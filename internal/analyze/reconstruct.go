package analyze

import (
	"sort"
	"sync"

	"kprof/internal/sim"
)

// Node is one reconstructed function invocation. Its callees hang off it
// as a linked list in entry order: FirstChild, then NextSibling.
type Node struct {
	Name  string
	Start sim.Time
	End   sim.Time
	// outOfContext accumulates time this invocation spent switched out
	// (its process suspended), which the paper's analysis excludes: a
	// tsleep that blocks for seconds still reports only its in-context
	// microseconds.
	outOfContext sim.Time
	// childTime accumulates the in-context elapsed of direct children as
	// they close, so Net never walks the children — which the lean
	// streaming path does not even link.
	childTime sim.Time
	// fn carries the decoder's dense name/tag-file index (plus one, zero
	// when unknown) so folding the node into the stats avoids hashing the
	// name.
	fn int32
	// Complete is false for invocations force-closed by mismatch
	// recovery or still open when the capture ended (their self time is
	// unknowable and excluded from stats).
	Complete bool
	// marked records that an inline ('=') mark fired directly inside
	// this invocation; the marks themselves are TraceInline items.
	marked bool

	// first and last bound the callee list; next links n to its caller's
	// following callee. The fold and trace-keeping paths link them; the
	// lean path leaves them nil.
	first, last, next *Node
}

// FirstChild reports the first callee n entered, or nil for a leaf.
func (n *Node) FirstChild() *Node { return n.first }

// NextSibling reports the callee n's caller entered after n, or nil when
// n was the last one (or is a root).
func (n *Node) NextSibling() *Node { return n.next }

// addChild appends c to n's callees.
func (n *Node) addChild(c *Node) {
	if n.last == nil {
		n.first = c
	} else {
		n.last.next = c
	}
	n.last = c
}

// Elapsed is the invocation's in-context elapsed time.
func (n *Node) Elapsed() sim.Time {
	return n.End - n.Start - n.outOfContext
}

// Net is elapsed minus the in-context elapsed of direct children — the
// time spent in this function alone.
func (n *Node) Net() sim.Time {
	return n.Elapsed() - n.childTime
}

// TraceItem is one line of the chronological code-path trace. Node is the
// invocation an enter or exit item belongs to, nil for context-switch
// markers. An inline item's Node is a name-only node standing for its tag,
// one per tag name per analysis, so it.Node.Name is the mark's name; such a
// node has no times and never joins a tree or the statistics.
type TraceItem struct {
	Time  sim.Time
	Node  *Node
	Depth int32
	Kind  TraceKind
}

// TraceKind classifies trace lines.
type TraceKind uint8

// Trace item kinds, in the order the timeline can contain them.
const (
	TraceEnter TraceKind = iota
	TraceExit
	TraceInline
	TraceSwitchOut // swtch entered: context switch out / idle begins
	TraceSwitchIn  // swtch exited: context switch in
)

// SegmentInfo describes one drained slice of a stitched capture: the
// drain-and-stitch pipeline reads the card out whenever it nears capacity,
// and each readout becomes one segment of the reconstructed timeline.
type SegmentInfo struct {
	// Index is the segment's position in drain order.
	Index int
	// Records is the number of records the segment contributed.
	Records int
	// Dropped counts strobes lost at the segment's end: the card filled
	// (or was disarmed) before the drain completed, so events between
	// this segment's last record and the next segment's first are gone.
	Dropped uint64
	// Overflowed reports whether the card's RAM filled during the segment.
	Overflowed bool
	// ForceClosed counts frames force-closed at the segment's lossy end
	// boundary (each is also counted in Analysis.Recovered).
	ForceClosed int
	// Corrupt counts records within the segment the decoder judged
	// corrupted (unresolvable tags and repaired timestamps); the capture
	// total is DecodeStats.CorruptRecords.
	Corrupt int
	// End is the stitched timeline's position at the segment's end
	// boundary: the decoded timestamp of the last record seen when the
	// drain ran (capture-relative, like every Analysis time).
	End sim.Time
}

// Analysis is the full reconstruction of a capture. It holds no decoded
// event list: the reconstruction consumes each event as it is decoded.
// An analysis that Stitch or ReconstructCapture built without DiscardTrace,
// or that Reconstructor.FinishStitch finished, keeps a reference to the
// records it was built from, to build its trace on first use (see Items).
type Analysis struct {
	Stats DecodeStats

	// Segments describes the drained slices of a stitched capture, in
	// drain order; empty for a single-readout capture.
	Segments []SegmentInfo

	Start, End sim.Time

	// Idle is time inside swtch (between '!' entry and the next '!'
	// exit) minus interrupt activity within those windows.
	Idle sim.Time
	// Switches counts entries to the context-switch function.
	Switches int

	// OrphanExits counts exits that matched no open frame anywhere —
	// usually functions entered before the capture began.
	OrphanExits int
	// Recovered counts frames force-closed by mismatch recovery.
	Recovered int

	fns map[string]*FnStat

	// prof is the call-path trie the fold path folds each root into; empty
	// for a lean analysis.
	prof Profile

	// trace holds the code-path trace, built on the first Items call.
	trace struct {
		once  sync.Once
		items []TraceItem
		// build reruns the trace-keeping reconstruction over the
		// analysis's records; nil once it has run, and for analyses with
		// no records to rerun.
		build func() []TraceItem
	}
}

// Items returns the chronological code-path trace and, through its enter
// and exit items, the invocation trees. Each record decodes to one event
// and each event adds at most one item (orphan exits, unknown tags and
// force-closed frames add none), so len(Items) <= Stats.Records; the trace
// is sized to that bound once.
//
// A full analysis from Stitch, ReconstructCapture or
// Reconstructor.FinishStitch builds the trace on the first call, by
// reconstructing its records a second time with the trace kept; every
// later call, from any goroutine, returns the same slice. A lean analysis
// (DiscardTrace) and one closed with Reconstructor.Finish have no trace
// and return nil.
func (a *Analysis) Items() []TraceItem {
	a.trace.once.Do(func() {
		if a.trace.build != nil {
			a.trace.items = a.trace.build()
			a.trace.build = nil
		}
	})
	return a.trace.items
}

// Profile returns the call-path trie of a full analysis, which the pprof
// export and CallGraph read. It is empty for a lean analysis.
func (a *Analysis) Profile() *Profile { return &a.prof }

// FnStat aggregates one function's invocations.
type FnStat struct {
	Name string
	// Calls counts every observed invocation, including untimed ones:
	// orphan exits, frames force-closed by mismatch recovery, and frames
	// still open when the capture ended.
	Calls int
	// TimedCalls counts only the invocations with complete timing; the
	// averages divide by it, so an untimed call never biases them.
	TimedCalls int
	Elapsed    sim.Time // inclusive, in-context
	Net        sim.Time
	// Max/Min are per-call *net* extremes: the paper's (max/avg/min)
	// columns report time in the function alone (Figure 3's soreceive
	// line: 16391 µs net over 166 calls and an avg column of 98).
	Max     sim.Time
	Min     sim.Time
	Inlines int // inline marks carrying this name
	// CtxSwitch marks the context-switch function (the name/tag file's
	// '!' modifier): its in-function time is idle, accounted in the
	// analysis header, so reports skip its row whatever it is named.
	CtxSwitch bool

	// mark is the name-only node the trace's inline items for this name
	// point at, made on the name's first inline mark.
	mark *Node
	// profID is the function's id in the analysis's Profile, zero until
	// the fold first meets it.
	profID int32
}

// stack is one process context's call stack.
type stack struct {
	open []*Node
	// done holds the tentative roots: frames that completed at depth 0
	// while the resumed context was still unknown, which adoption splices
	// under the resumed frame. The lean path keeps none.
	done []*Node
	// doneElapsed is the summed in-context elapsed of the done roots —
	// what splicing them under an adopted frame adds to its childTime.
	doneElapsed sim.Time
	suspendedAt sim.Time
}

// mode selects what a reconstruction keeps beyond the statistics.
type mode uint8

const (
	// leanMode keeps nothing per invocation: callees are not linked, and
	// each node returns to the free list when it closes. A sweep worker's
	// Analysis holds only the per-function stats.
	leanMode mode = iota
	// foldMode links callees and folds each root's tree into the profile
	// at the root's depth-0 exit, then returns the tree's nodes to the
	// free list. It keeps no trace.
	foldMode
	// traceMode keeps the trace timeline and every invocation tree under
	// it, so no node is ever reused.
	traceMode
)

// reconstructor is the analysis state machine.
type reconstructor struct {
	a *Analysis

	mode      mode
	haveStart bool
	// lastSwitchIn tracks the most recent context-switch-in time, so
	// pending-resume adoption does not depend on the retained trace.
	lastSwitchIn sim.Time

	current   *stack   // nil while idle / pending resume
	suspended []*stack // stacks parked inside swtch, FIFO
	pending   bool     // saw swtch exit, context not yet identified

	idleStart sim.Time
	idleOpen  bool
	idleStack *stack // interrupts that run in the idle loop
	idleIntr  sim.Time

	// freeNodes and freeStacks recycle closed nodes and drained context
	// stacks so the steady state allocates nothing per record. The lean
	// path pools each node when it closes and the fold path each tree
	// once folded; the trace-keeping path hands every node to the trace,
	// so none may be reused.
	freeNodes  []*Node
	freeStacks []*stack

	// statArena block-allocates FnStat entries: a boot's symbol table is
	// ~100 functions, so carving them from one slab costs one allocation
	// per analysis instead of one per function. Append-only at fixed
	// capacity — a.fns holds the stable per-entry pointers — with an
	// individual-allocation fallback past the cap. nodeArena is the
	// current Node slab: fresh nodes are carved from it, and a full slab
	// is replaced by a new one, so the trace-keeping path (which retains
	// every node) allocates once per slab rather than once per invocation.
	statArena []FnStat
	nodeArena []Node

	// byIdx caches FnStat pointers by the decoder's dense name/tag-file
	// index, so the per-record stats fold is a slice load; the name-keyed
	// map is only consulted the first time each function appears (and for
	// events with no index — hand-built or unknown-tag).
	byIdx []*FnStat
}

// nodeArenaCap is the Node slab size. One slab covers the call-nesting
// working set of the lean path before the recycle pool warms up.
const nodeArenaCap = 96

// newNode takes a node from the pool or carves a fresh one from
// the current slab, starting a new slab when it is full. A slab is zeroed
// when made, so a fresh node needs only its three set fields written; a
// pooled one is reset whole, links included.
func (r *reconstructor) newNode(name string, start sim.Time, fn int32) *Node {
	var nd *Node
	if n := len(r.freeNodes); n > 0 {
		nd = r.freeNodes[n-1]
		r.freeNodes = r.freeNodes[:n-1]
		*nd = Node{}
	} else {
		if len(r.nodeArena) == cap(r.nodeArena) {
			r.nodeArena = make([]Node, 0, nodeArenaCap)
		}
		r.nodeArena = r.nodeArena[:len(r.nodeArena)+1]
		nd = &r.nodeArena[len(r.nodeArena)-1]
	}
	nd.Name, nd.Start, nd.fn = name, start, fn
	return nd
}

// freeNode recycles a node after its last read. Callers must only do so
// when nothing retains it: never on the trace-keeping path.
func (r *reconstructor) freeNode(n *Node) {
	if r.freeNodes == nil {
		r.freeNodes = make([]*Node, 0, nodeArenaCap)
	}
	r.freeNodes = append(r.freeNodes, n)
}

// newStack takes a context stack from the pool or allocates one.
func (r *reconstructor) newStack() *stack {
	if n := len(r.freeStacks); n > 0 {
		st := r.freeStacks[n-1]
		r.freeStacks = r.freeStacks[:n-1]
		return st
	}
	return &stack{}
}

// freeStack recycles a drained context stack (every mode: the stack
// struct itself is never retained, only the nodes it pointed at).
func (r *reconstructor) freeStack(st *stack) {
	if st == nil {
		return
	}
	for i := range st.open {
		st.open[i] = nil
	}
	for i := range st.done {
		st.done[i] = nil
	}
	st.open = st.open[:0]
	st.done = st.done[:0]
	st.doneElapsed = 0
	st.suspendedAt = 0
	r.freeStacks = append(r.freeStacks, st)
}

// feed processes one decoded event: the first one starts the timeline,
// and each one extends it. The reconstruction reads ev only until feed
// returns; its caller may refill it for the next record.
func (r *reconstructor) feed(ev *Event) {
	if !r.haveStart {
		r.a.Start, r.lastSwitchIn, r.haveStart = ev.Time, ev.Time, true
	}
	r.a.End = ev.Time
	r.step(ev)
}

// fnStatArenaCap covers a fully-attached machine's symbol table with room
// to spare; see statArena.
const fnStatArenaCap = 160

func (r *reconstructor) fnStat(name string) *FnStat {
	s, ok := r.a.fns[name]
	if !ok {
		if r.statArena == nil {
			r.statArena = make([]FnStat, 0, fnStatArenaCap)
		}
		if len(r.statArena) < cap(r.statArena) {
			r.statArena = append(r.statArena, FnStat{Name: name, Min: 1 << 62})
			s = &r.statArena[len(r.statArena)-1]
		} else {
			s = &FnStat{Name: name, Min: 1 << 62}
		}
		r.a.fns[name] = s
	}
	return s
}

// fnStatOf resolves a function's stat through the dense index when the
// decoder stamped one, falling back to the name map otherwise. Both routes
// land on the same FnStat objects in a.fns, so reports and merges see one
// view whichever path filled it.
func (r *reconstructor) fnStatOf(name string, idx int32) *FnStat {
	if idx <= 0 {
		return r.fnStat(name)
	}
	if int(idx) > len(r.byIdx) {
		size := int(idx) + 16
		if size < fnStatArenaCap {
			size = fnStatArenaCap // one growth covers the whole table
		}
		grown := make([]*FnStat, size)
		copy(grown, r.byIdx)
		r.byIdx = grown
	}
	if s := r.byIdx[idx-1]; s != nil {
		return s
	}
	s := r.fnStat(name)
	r.byIdx[idx-1] = s
	return s
}

func (r *reconstructor) item(ev *Event, kind TraceKind, n *Node, depth int) {
	if r.mode != traceMode {
		return
	}
	r.a.trace.items = append(r.a.trace.items, TraceItem{Time: ev.Time, Node: n, Depth: int32(depth), Kind: kind})
}

func (r *reconstructor) step(ev *Event) {
	switch {
	case ev.Kind == Unknown:
		return
	case ev.CtxSwitch && ev.Kind == Entry:
		r.switchOut(ev)
	case ev.CtxSwitch && ev.Kind == Exit:
		r.switchIn(ev)
	case ev.Kind == Inline:
		r.inline(ev)
	case ev.Kind == Entry:
		r.enter(ev)
	case ev.Kind == Exit:
		r.exit(ev)
	}
}

// switchOut: the process entered swtch. Its stack parks; the CPU is idle
// (apart from interrupts) until the next swtch exit.
func (r *reconstructor) switchOut(ev *Event) {
	r.a.Switches++
	// The switcher is whatever the name/tag file marked '!' — not
	// necessarily named "swtch"; flag its stat so reports and the sweep
	// merge can skip the row without knowing the name.
	sw := r.fnStatOf(ev.Name, ev.fnIdx)
	sw.Calls++
	sw.CtxSwitch = true
	r.resolvePendingAsNew(ev.Time)
	if r.current != nil {
		if len(r.current.open) > 0 {
			r.current.suspendedAt = ev.Time
			r.suspended = append(r.suspended, r.current)
		} else {
			// Nothing open: no orphan exit can ever identify this
			// context again, so parking it would only leak. Its done
			// roots are already in the stats.
			r.freeStack(r.current)
		}
		r.current = nil
	}
	r.idleOpen = true
	r.idleStart = ev.Time
	r.idleIntr = 0
	r.item(ev, TraceSwitchOut, nil, 0)
}

// switchIn: some process came out of swtch; which one becomes clear from
// the next orphan exit (or doesn't, in which case it is a fresh context).
func (r *reconstructor) switchIn(ev *Event) {
	if r.idleOpen {
		idle := ev.Time - r.idleStart - r.idleIntr
		if idle < 0 {
			idle = 0
		}
		r.a.Idle += idle
		r.idleOpen = false
	}
	// Interrupt frames opened in the idle loop but never closed (a lost
	// interrupt exit) are force-closed here as recovered: left open they
	// would permanently nest every later idle-window interrupt.
	r.closeAll(r.idleStack, ev.Time)
	r.pending = true
	if r.current != nil {
		// A switch-in with a context still attached means the matching
		// switch-out was lost (dropped strobe). The stack was never
		// parked, so no orphan exit can reclaim it and finish never
		// walks it — recycle it instead of leaking it.
		r.discardOpen(r.current)
		r.dropTentative(r.current)
		r.freeStack(r.current)
		r.current = nil
	}
	r.lastSwitchIn = ev.Time
	r.item(ev, TraceSwitchIn, nil, 0)
}

// resolvePendingAsNew turns an unresolved resumed block into a fresh
// context (a process making its first appearance).
func (r *reconstructor) resolvePendingAsNew(now sim.Time) {
	if !r.pending {
		return
	}
	r.pending = false
	// Completed top-level frames of the anonymous block are already in
	// the stats and the profile; nothing further to attach.
	if r.current == nil {
		r.current = r.newStack()
	}
	r.dropTentative(r.current)
}

// contextStack returns the stack events should apply to right now.
func (r *reconstructor) contextStack() *stack {
	if r.idleOpen {
		return r.idleStack
	}
	if r.current == nil {
		r.current = r.newStack()
	}
	return r.current
}

func (r *reconstructor) enter(ev *Event) {
	if r.pending {
		// New frames in an unresolved block accumulate on a fresh
		// current stack; resolution may later splice them.
		r.pending = r.pendingEnter(ev)
		return
	}
	st := r.contextStack()
	r.push(st, ev)
}

// pendingEnter handles an entry during pending-resume: frames stack up
// normally on a tentative current stack; reports whether still pending.
func (r *reconstructor) pendingEnter(ev *Event) bool {
	if r.current == nil {
		r.current = r.newStack()
	}
	r.push(r.current, ev)
	return true // stays pending until an orphan exit or next switch
}

func (r *reconstructor) push(st *stack, ev *Event) {
	n := r.newNode(ev.Name, ev.Time, ev.fnIdx)
	if r.mode != leanMode && len(st.open) > 0 {
		st.open[len(st.open)-1].addChild(n)
	}
	depth := len(st.open)
	st.open = append(st.open, n)
	r.item(ev, TraceEnter, n, depth)
}

func (r *reconstructor) inline(ev *Event) {
	st := r.contextStack()
	s := r.fnStatOf(ev.Name, ev.fnIdx)
	s.Inlines++
	if r.mode != traceMode {
		return
	}
	if len(st.open) > 0 {
		st.open[len(st.open)-1].marked = true
	}
	if s.mark == nil {
		s.mark = &Node{Name: s.Name}
	}
	r.item(ev, TraceInline, s.mark, len(st.open))
}

func (r *reconstructor) exit(ev *Event) {
	if r.idleOpen {
		// Interrupt activity inside swtch.
		if r.closeOn(r.idleStack, ev, true) {
			return
		}
		// Exit with no matching frame in idle: orphan.
		r.a.OrphanExits++
		return
	}
	if r.pending {
		// Try the tentative stack first (balanced calls since resume).
		if r.current != nil && r.closeOn(r.current, ev, false) {
			return
		}
		// Orphan exit: identifies the resumed process. Adopt the oldest
		// suspended stack whose top frame matches.
		for i, st := range r.suspended {
			if len(st.open) > 0 && st.open[len(st.open)-1].Name == ev.Name {
				r.adopt(i, ev)
				return
			}
		}
		// No match anywhere: truly orphan (entered before capture).
		r.a.OrphanExits++
		r.fnStatOf(ev.Name, ev.fnIdx).Calls++ // count the call even without timing
		r.pending = false
		if r.current == nil {
			r.current = r.newStack()
		}
		r.dropTentative(r.current)
		return
	}
	st := r.contextStack()
	if r.closeOn(st, ev, true) {
		return
	}
	r.a.OrphanExits++
}

// adopt resolves pending-resume onto suspended stack i: credit its frames
// with the out-of-context interval, splice tentative children, close the
// matching frame.
func (r *reconstructor) adopt(i int, ev *Event) {
	st := r.suspended[i]
	copy(r.suspended[i:], r.suspended[i+1:])
	r.suspended[len(r.suspended)-1] = nil
	r.suspended = r.suspended[:len(r.suspended)-1]
	resumeAt := r.lastSwitchInTime()
	for _, n := range st.open {
		n.outOfContext += resumeAt - st.suspendedAt
	}
	// Frames completed since the switch-in belong to the resumed frame,
	// after the callees it made before it was switched out.
	if r.current != nil {
		top := st.open[len(st.open)-1]
		for _, c := range r.current.doneRoots() {
			top.addChild(c)
		}
		top.childTime += r.current.doneElapsed
		// Unclosed tentative frames would be a malformed capture;
		// recover by discarding (counted).
		r.a.Recovered += len(r.current.open)
		r.discardOpen(r.current)
		r.freeStack(r.current)
	}
	r.current = st
	r.pending = false
	r.closeOn(st, ev, true)
}

// lastSwitchInTime reports the time of the most recent switch-in marker
// (the capture start when none has occurred).
func (r *reconstructor) lastSwitchInTime() sim.Time {
	return r.lastSwitchIn
}

// doneRoots reports a stack's completed top-level frames (used when
// splicing a tentative block into an adopted stack).
func (st *stack) doneRoots() []*Node {
	return st.done
}

// discardOpen recycles the frames a stack loses unclosed: a lost
// switch-out, or tentative frames still open at adoption. On the fold
// path they are linked under the stack's bottom frame, along with their
// closed callees.
func (r *reconstructor) discardOpen(st *stack) {
	switch {
	case r.mode == leanMode:
		for _, n := range st.open {
			r.freeNode(n)
		}
	case r.mode == foldMode && len(st.open) > 0:
		r.release(st.open[0])
	}
}

// dropTentative forgets st's tentative roots when their pending block
// resolves without an adoption (a new context, an unmatched orphan exit, a
// lost switch-out or a loss boundary): no tree will splice them. The fold
// path already folded them at their own exit and recycles them here.
func (r *reconstructor) dropTentative(st *stack) {
	for i, n := range st.done {
		if r.mode == foldMode {
			r.release(n)
		}
		st.done[i] = nil
	}
	st.done = st.done[:0]
}

// exitRoot handles a root's depth-0 exit on the linked paths. A root that
// completes while the resumed context is still unknown is tentative: it
// stays on the pending stack's done list for adoption to splice. The fold
// path folds every root here, in exit order, and recycles its tree unless
// it is tentative.
func (r *reconstructor) exitRoot(st *stack, n *Node) {
	tentative := r.pending && st == r.current
	if tentative {
		st.done = append(st.done, n)
	}
	if r.mode == foldMode {
		r.fold(-1, n, !tentative)
	}
}

// closeOn closes the frame named by ev on st. With recovery enabled,
// a mismatched exit force-closes intervening frames (lost events); it
// reports whether the exit was consumed.
func (r *reconstructor) closeOn(st *stack, ev *Event, recover bool) bool {
	idx := -1
	for i := len(st.open) - 1; i >= 0; i-- {
		if st.open[i].Name == ev.Name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	if !recover && idx != len(st.open)-1 {
		return false
	}
	// Force-close anything above the match (missing exits in the
	// capture — e.g. RAM overflow mid-run).
	for len(st.open)-1 > idx {
		top := st.open[len(st.open)-1]
		top.End = ev.Time
		top.Complete = false
		st.open = st.open[:len(st.open)-1]
		st.open[len(st.open)-1].childTime += top.Elapsed()
		r.a.Recovered++
		r.record(top)
		if r.mode == leanMode {
			r.freeNode(top)
		}
	}
	n := st.open[idx]
	n.End = ev.Time
	n.Complete = true
	st.open = st.open[:idx]
	if len(st.open) > 0 {
		st.open[len(st.open)-1].childTime += n.Elapsed()
	} else {
		st.doneElapsed += n.Elapsed()
	}
	r.record(n)
	r.item(ev, TraceExit, n, len(st.open))
	if st == r.idleStack && len(st.open) == 0 && r.idleOpen {
		r.idleIntr += n.Elapsed()
	}
	switch {
	case r.mode == leanMode:
		r.freeNode(n)
	case len(st.open) == 0:
		r.exitRoot(st, n)
	}
	return true
}

// closeAll force-closes every open frame on st, deepest first, counting
// each as recovered — the exits were lost (a missed interrupt return, or
// records dropped at a lossy drain boundary).
func (r *reconstructor) closeAll(st *stack, at sim.Time) {
	for len(st.open) > 0 {
		top := st.open[len(st.open)-1]
		st.open = st.open[:len(st.open)-1]
		top.End = at
		top.Complete = false
		if len(st.open) > 0 {
			st.open[len(st.open)-1].childTime += top.Elapsed()
		}
		r.a.Recovered++
		r.record(top)
		switch {
		case r.mode == leanMode:
			r.freeNode(top)
		case r.mode == foldMode && len(st.open) == 0:
			// A force-closed root never exits, so it is not folded.
			r.release(top)
		}
	}
}

// lossBoundary closes the books at a lossy drain boundary: records were
// dropped between two segments, so every open frame — in the running
// context, the idle stack, and every suspended process — is force-closed
// as recovered rather than left to mis-nest against post-loss events, and
// the context-tracking state starts afresh. It reports how many frames it
// force-closed.
func (r *reconstructor) lossBoundary() int {
	before := r.a.Recovered
	at := r.a.End
	if r.idleOpen {
		idle := at - r.idleStart - r.idleIntr
		if idle > 0 {
			r.a.Idle += idle
		}
		r.idleOpen = false
	}
	r.closeAll(r.idleStack, at)
	if r.current != nil {
		r.closeAll(r.current, at)
		r.dropTentative(r.current)
		r.freeStack(r.current)
		r.current = nil
	}
	for i, st := range r.suspended {
		r.closeAll(st, at)
		r.freeStack(st)
		r.suspended[i] = nil
	}
	r.suspended = r.suspended[:0]
	r.pending = false
	return r.a.Recovered - before
}

// record folds a closed node into the per-function statistics.
func (r *reconstructor) record(n *Node) {
	s := r.fnStatOf(n.Name, n.fn)
	s.Calls++
	if !n.Complete {
		return
	}
	s.TimedCalls++
	s.Elapsed += n.Elapsed()
	net := n.Net()
	s.Net += net
	if net > s.Max {
		s.Max = net
	}
	if net < s.Min {
		s.Min = net
	}
}

// finish closes the books at capture end.
func (r *reconstructor) finish() {
	if r.idleOpen {
		idle := r.a.End - r.idleStart - r.idleIntr
		if idle > 0 {
			r.a.Idle += idle
		}
	}
	// Open frames at capture end: count calls, no timing. Deepest first,
	// so each child's End (and therefore Elapsed) is final before it is
	// folded into its parent's childTime — keeping Net consistent for
	// the trace rendering of frames left open.
	countOpen := func(st *stack) {
		if st == nil {
			return
		}
		for i := len(st.open) - 1; i >= 0; i-- {
			n := st.open[i]
			n.End = r.a.End
			if i > 0 {
				st.open[i-1].childTime += n.Elapsed()
			}
			r.fnStatOf(n.Name, n.fn).Calls++
		}
	}
	countOpen(r.current)
	countOpen(r.idleStack)
	for _, st := range r.suspended {
		countOpen(st)
	}
}

// Functions returns the per-function statistics sorted by net time
// descending (ties by name for determinism).
func (a *Analysis) Functions() []*FnStat {
	out := make([]*FnStat, 0, len(a.fns))
	for _, s := range a.fns {
		out = append(out, s)
	}
	sortStats(out)
	return out
}

// Fn returns one function's stats.
func (a *Analysis) Fn(name string) (*FnStat, bool) {
	s, ok := a.fns[name]
	return s, ok
}

// Elapsed is the capture's wall span.
func (a *Analysis) Elapsed() sim.Time { return a.End - a.Start }

// RunTime is elapsed minus idle: the accumulated run time of Figure 3.
func (a *Analysis) RunTime() sim.Time { return a.Elapsed() - a.Idle }

// Avg reports a stat's mean per-call net time (the paper's avg column).
// Only timed calls divide: Calls also counts orphan exits, recovered
// frames and frames open at capture end, whose durations are unknowable,
// and dividing by them would bias the average low.
func (s *FnStat) Avg() sim.Time {
	if s.TimedCalls == 0 {
		return 0
	}
	return s.Net / sim.Time(s.TimedCalls)
}

// AvgElapsed reports mean per-call inclusive time — Table 1's "times are
// inclusive of subroutines that are called" basis. As with Avg, untimed
// calls are excluded.
func (s *FnStat) AvgElapsed() sim.Time {
	if s.TimedCalls == 0 {
		return 0
	}
	return s.Elapsed / sim.Time(s.TimedCalls)
}

// MinOrZero is Min, or zero when no timed call completed.
func (s *FnStat) MinOrZero() sim.Time {
	if s.Min == 1<<62 {
		return 0
	}
	return s.Min
}

// sortStats orders by net time descending, ties broken by name so reports
// are deterministic.
func sortStats(stats []*FnStat) {
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Net != stats[j].Net {
			return stats[i].Net > stats[j].Net
		}
		return stats[i].Name < stats[j].Name
	})
}
