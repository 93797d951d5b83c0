package analyze

import (
	"kprof/internal/hw"
	"kprof/internal/sim"
	"kprof/internal/tagfile"
)

// The repair-off reference decoder: the decode tests hold the production
// Push/PushBatch path to it.

// NewDecoder returns a decoder for records captured under the given clock
// configuration (zero values select the prototype card's 1 MHz, 24 bits).
// Timestamp repair is off; see NewRepairingDecoder.
func NewDecoder(cfg hw.Config, tags *tagfile.File) *Decoder {
	return NewRepairingDecoder(cfg, tags, RepairConfig{})
}

// Next decodes one record. The unwrap is a modular difference against the
// previous stamp, so decoded time never moves backwards regardless of the
// raw stamp values (the out-of-order guard: a stamp that appears to regress
// reads as a near-wrap forward interval, as on the real counter). Next
// bypasses timestamp repair — repair needs one record of lookahead, which
// the Push/Flush pair provides.
func (d *Decoder) Next(r hw.Record) Event {
	if !d.first {
		delta := (r.Stamp - d.last) & d.mask
		d.now += sim.Time(delta) * d.tick
	}
	d.first = false
	d.last = r.Stamp
	d.records++
	return d.event(r, d.now, false)
}

// Decode unwraps a whole capture at once (see Decoder for the streaming
// path) and resolves tags against the name/tag file.
func Decode(c hw.Capture, tags *tagfile.File) ([]Event, DecodeStats) {
	d := NewDecoder(c.ClockConfig(), tags)
	events := make([]Event, 0, len(c.Records))
	for _, r := range c.Records {
		events = append(events, d.Next(r))
	}
	stats := d.Stats()
	stats.Overflowed = c.Overflowed
	stats.Dropped = c.Dropped
	return events, stats
}
