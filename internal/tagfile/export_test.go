package tagfile

// PairsRemaining reports how many entry/exit tag pairs automatic
// assignment can still fit below MaxTag — the tag budget an
// instrumentation plan has left to spend. Because assignment is
// append-only (NextTag never reuses holes), the remaining capacity is
// exactly the pairs between NextTag and the top of the tag space.
func (f *File) PairsRemaining() int {
	next := f.NextTag()
	if next > MaxTag-1 {
		return 0
	}
	return int(MaxTag-1-next)/2 + 1
}
