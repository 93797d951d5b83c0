// Package sim provides the deterministic discrete-event substrate that the
// simulated kernel and the Profiler hardware model are built on: a virtual
// clock, an event scheduler with stable FIFO ordering for simultaneous
// events, and a seeded pseudo-random number generator.
//
// All of kprof's timing is virtual. Nothing in this package reads the wall
// clock, so a simulation run is a pure function of its inputs and seed.
package sim

import "fmt"

// Time is a point in virtual time, measured in nanoseconds from the start of
// the simulation. It doubles as a duration; the arithmetic is ordinary
// integer arithmetic.
type Time int64

// Convenient duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micros reports t truncated to whole microseconds. The Profiler's 1 MHz
// counter sees time at this granularity.
func (t Time) Micros() int64 { return int64(t / Microsecond) }

// String formats the time the way the paper's code-path traces do:
// "S:mmm uuu" (seconds, milliseconds, microseconds), e.g. "0:005 074".
func (t Time) String() string {
	us := t.Micros()
	neg := ""
	if us < 0 {
		neg, us = "-", -us
	}
	return fmt.Sprintf("%s%d:%03d %03d", neg, us/1e6, us/1e3%1e3, us%1e3)
}
