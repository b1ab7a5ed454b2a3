package fixture

import "sync/atomic"

type set struct {
	labels []int
	n      int
}

func (s *set) Clone() *set {
	c := *s
	c.labels = append([]int(nil), s.labels...)
	return &c
}

func (s *set) UpdateEdges(u, v int) {
	s.n += u + v
}

type state struct {
	set *set
	gen int
}

type server struct {
	cur atomic.Pointer[state]
}

// badFieldWrite mutates the published snapshot in place.
func badFieldWrite(s *server) {
	st := s.cur.Load()
	st.gen = 7 // want "write through a snapshot"
}

// badDeepWrite writes through a nested field of the snapshot.
func badDeepWrite(s *server) {
	st := s.cur.Load()
	st.set.labels[0] = 1 // want "write through a snapshot"
}

// badDirect writes through the Load result without binding it.
func badDirect(s *server) {
	s.cur.Load().gen = 9 // want "write through a snapshot"
}

// badAlias reaches the snapshot through a second binding.
func badAlias(s *server) {
	st := s.cur.Load()
	inner := st.set
	inner.n = 3 // want "write through a snapshot"
}

// badIncrement is still a write, even spelled as ++.
func badIncrement(s *server) {
	st := s.cur.Load()
	st.gen++ // want "write through a snapshot"
}

// badMutator calls a mutating method on the snapshot.
func badMutator(s *server) {
	st := s.cur.Load()
	st.set.UpdateEdges(1, 2) // want "mutating method UpdateEdges"
}
