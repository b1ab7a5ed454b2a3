package fixture

// goodSwap is the blessed sequence: Load a snapshot, Clone it, repair
// the clone, Store the repaired copy. Clone launders the taint, so the
// mutations on the clone are accepted.
func goodSwap(s *server) {
	st := s.cur.Load()
	clone := st.set.Clone()
	clone.UpdateEdges(1, 2)
	clone.labels = append(clone.labels, 5)
	s.cur.Store(&state{set: clone, gen: st.gen + 1})
}

// goodRead only reads through the snapshot; reads are always fine.
func goodRead(s *server) int {
	st := s.cur.Load()
	return st.set.n + len(st.set.labels)
}

// goodRebind clears taint when the name is rebound to a fresh value.
func goodRebind(s *server) {
	loc := s.cur.Load().set
	loc = &set{}
	loc.n = 1
	_ = loc
}
