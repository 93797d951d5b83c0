package fdesc

// OpenCount reports how many descriptors are in use.
func (t *Table) OpenCount() int {
	n := 0
	for _, f := range t.slots {
		if f != nil {
			n++
		}
	}
	return n
}
