package sim

import "fmt"

// When reports the virtual time the event is scheduled for.
func (e *Event) When() Time { return e.when }

// Step advances the clock to the next event and fires every event scheduled
// for that instant. It reports false if no events remain.
func (s *Scheduler) Step() bool {
	next, ok := s.NextAt()
	if !ok {
		return false
	}
	s.now = next
	s.RunDue()
	return true
}

// DurationString formats t as a plain microsecond count ("1045 us"), used in
// report bodies where the paper prints interval times.
func (t Time) DurationString() string {
	return fmt.Sprintf("%d us", t.Micros())
}
