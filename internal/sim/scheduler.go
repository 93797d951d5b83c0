package sim

import "container/heap"

// Event is a scheduled callback. Events are one-shot; cancelling an event
// that has already fired is a no-op.
type Event struct {
	when   Time
	seq    uint64 // tie-break so simultaneous events fire in schedule order
	index  int    // heap index, -1 once fired or cancelled
	pooled bool   // recycled by RunDue after firing (AtFree/AfterFree)
	fn     func()
}

// Scheduled reports whether the event is still pending.
func (e *Event) Scheduled() bool { return e.index >= 0 }

// Scheduler is a discrete-event scheduler over virtual time.
//
// It deliberately separates *clock advancement* from *event dispatch*: the
// simulated kernel advances the clock in small cost-model increments and
// asks the scheduler which device events fall inside each increment, so that
// interrupts can preempt kernel code mid-function. Callers that just want to
// run events in order can use RunUntil.
type Scheduler struct {
	now    Time
	events eventHeap
	seq    uint64
	free   []*Event // recycled pooled events (AtFree/AfterFree)
}

// NewScheduler returns a scheduler with the clock at zero and no events.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending reports the number of scheduled events.
func (s *Scheduler) Pending() int { return len(s.events) }

// At schedules fn to run at absolute time t. Scheduling in the past (t less
// than Now) panics: it would silently reorder time and is always a bug in
// the caller.
func (s *Scheduler) At(t Time, fn func()) *Event {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	e := &Event{when: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.events, e)
	return e
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Time, fn func()) *Event {
	if d < 0 {
		panic("sim: negative delay")
	}
	return s.At(s.now+d, fn)
}

// AtFree schedules fn at absolute time t on a pooled Event that the
// scheduler reclaims the moment it fires. No handle is returned — a pooled
// event cannot be cancelled or rescheduled, because the caller has no way to
// know whether its pointer still means the same scheduling. Use it for
// fire-and-forget work on hot paths; use At when you need Cancel.
func (s *Scheduler) AtFree(t Time, fn func()) {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.when, e.fn = t, fn
	} else {
		e = &Event{when: t, fn: fn, pooled: true}
	}
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

// AfterFree is AtFree at d after the current time.
func (s *Scheduler) AfterFree(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	s.AtFree(s.now+d, fn)
}

// Reschedule re-arms a fired (non-pooled) event at absolute time t, reusing
// its allocation. The event must be idle: rescheduling a still-pending or
// pooled event, or scheduling into the past, panics.
func (s *Scheduler) Reschedule(e *Event, t Time) {
	switch {
	case e == nil || e.fn == nil:
		panic("sim: Reschedule of nil event")
	case e.pooled:
		panic("sim: Reschedule of pooled event")
	case e.index >= 0:
		panic("sim: Reschedule of pending event")
	case t < s.now:
		panic("sim: event scheduled in the past")
	}
	e.when = t
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

// Cancel removes a pending event. It is safe to call on an event that has
// already fired or been cancelled.
func (s *Scheduler) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	heap.Remove(&s.events, e.index)
	e.index = -1
}

// NextAt reports the time of the earliest pending event.
func (s *Scheduler) NextAt() (Time, bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].when, true
}

// AdvanceTo moves the clock forward to t without dispatching anything.
// It panics if an event is pending before t — the caller is responsible for
// draining due events first (see RunDue). Moving backwards panics.
func (s *Scheduler) AdvanceTo(t Time) {
	if t < s.now {
		panic("sim: clock moved backwards")
	}
	if next, ok := s.NextAt(); ok && next < t {
		panic("sim: AdvanceTo would skip a pending event")
	}
	s.now = t
}

// RunDue fires, in order, every event scheduled at or before the current
// time, and reports how many ran. Events scheduled by the fired callbacks at
// the current time are run as well.
func (s *Scheduler) RunDue() int {
	n := 0
	for len(s.events) > 0 && s.events[0].when <= s.now {
		e := heap.Pop(&s.events).(*Event)
		e.index = -1
		e.fn()
		if e.pooled {
			e.fn = nil
			s.free = append(s.free, e)
		}
		n++
	}
	return n
}

// RunUntil steps the simulation until the clock reaches t or no events
// remain, then sets the clock to t if it is still behind.
func (s *Scheduler) RunUntil(t Time) {
	for {
		next, ok := s.NextAt()
		if !ok || next > t {
			break
		}
		s.now = next
		s.RunDue()
	}
	if s.now < t {
		s.now = t
	}
}

// eventHeap orders events by (when, seq) so simultaneous events preserve
// their scheduling order.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
