package vm

// TotalPages reports the address space size in pages.
func (s *VMSpace) TotalPages() int {
	n := 0
	for _, e := range s.Entries {
		n += e.Pages
	}
	return n
}

// ResidentPages reports how many pages are faulted in.
func (s *VMSpace) ResidentPages() int {
	n := 0
	for _, e := range s.Entries {
		n += e.Resident
	}
	return n
}
