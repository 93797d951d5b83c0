package main

import (
	"fmt"
	"time"

	"kprof/internal/hw"
	"kprof/internal/sim"
)

// readoutRepeats is how many readouts the median readout cost is taken
// over.
const readoutRepeats = 15

// readoutNs returns the median host ns of one hw.ReadoutViaSocketInto
// drain of a card of build cfg filled to the default drain high-water
// (three quarters of its depth). The drain loop is internal to
// core.Session, so the readout layer is measured from outside on a card
// built and filled the same way.
func readoutNs(cfg hw.Config) (float64, error) {
	var now sim.Time
	card := hw.NewWithConfig(cfg, func() sim.Time { now += sim.Microsecond; return now })
	sock := hw.NewEPROMSocket(0xD0000, card)
	card.Arm()
	highWater := card.Depth() * 3 / 4
	for card.Stored() < highWater {
		card.Latch(uint16(500 + card.Stored()%64))
	}
	samples := make([]float64, readoutRepeats)
	for i := range samples {
		t := time.Now()
		c, err := hw.ReadoutViaSocketInto(sock, card.Stored(), nil)
		samples[i] = float64(time.Since(t).Nanoseconds())
		if err != nil {
			return 0, fmt.Errorf("readout: %w", err)
		}
		if c.Len() != highWater {
			return 0, fmt.Errorf("readout returned %d records, card holds %d", c.Len(), highWater)
		}
	}
	return median(samples), nil
}
