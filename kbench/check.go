package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
)

// digests returns the SHA-256 of each named output ("summary", "pprof",
// "fleet.report", "fleet.json").
func digests(outputs map[string][]byte) map[string]string {
	d := make(map[string]string, len(outputs))
	for name, b := range outputs {
		sum := sha256.Sum256(b)
		d[name] = hex.EncodeToString(sum[:])
	}
	return d
}

// outputCheck holds the output digests of a run's first repeat and
// compares every later repeat against them. Simulated time is
// deterministic per seed, so repeats of one seed must write identical
// bytes; any drift is a behaviour change.
type outputCheck struct {
	first map[string]string
}

// observe records one repeat's output digests and returns an error naming
// every output that differs from the first repeat's or is missing from
// one of them.
func (c *outputCheck) observe(d map[string]string) error {
	if c.first == nil {
		c.first = d
		return nil
	}
	var bad []string
	for name, sum := range d {
		want, ok := c.first[name]
		if !ok {
			bad = append(bad, name+" (new)")
		} else if sum != want {
			bad = append(bad, name)
		}
	}
	for name := range c.first {
		if _, ok := d[name]; !ok {
			bad = append(bad, name+" (missing)")
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("output differs from the first repeat of this seed: %v", bad)
	}
	return nil
}
