package fleet

// Progress reports the pipeline's current state.
func (st *Store) Progress() Progress {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.progressLocked()
}
