package check

// visitedSet is the explorers' visited set: the 64-bit state digests in
// one power-of-two array with linear probing — the table of hash
// compaction (Stern & Dill, Improved Probabilistic Verification by Hash
// Compaction, CHARME 1995), which stores nothing but the digest. A probe
// starts at the slot the key's low bits name: the DPOR+sym keys are
// minima over the permutation group, so their high bits lean toward
// zero, while their low bits stay uniform. Slot value 0 marks an empty
// slot, and the digest 0 lives in a flag instead. The array doubles
// when an insert would take it past 7/8 load, so a state costs between
// 9 and 18 bytes. The zero value is an empty set.
type visitedSet struct {
	slots []uint64
	n     int  // digests in slots
	zero  bool // digest 0 is in the set
}

// minVisitedSlots is the slot count of a set's first array.
const minVisitedSlots = 1 << 8

// len is the number of digests in the set.
func (s *visitedSet) len() int {
	if s.zero {
		return s.n + 1
	}
	return s.n
}

// find returns the slot holding k, or the empty slot where k would go
// and false. The set must have slots, and k must not be 0.
func (s *visitedSet) find(k uint64) (int, bool) {
	mask := uint64(len(s.slots) - 1)
	for i := k & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return int(i), true
		case 0:
			return int(i), false
		}
	}
}

// has reports whether k is in the set.
func (s *visitedSet) has(k uint64) bool {
	if k == 0 {
		return s.zero
	}
	if s.slots == nil {
		return false
	}
	_, ok := s.find(k)
	return ok
}

// insert adds k and reports whether it was fresh (not in the set
// before), in one probe unless adding k doubles the array.
func (s *visitedSet) insert(k uint64) bool {
	if k == 0 {
		fresh := !s.zero
		s.zero = true
		return fresh
	}
	if s.slots == nil {
		s.grow()
	}
	i, ok := s.find(k)
	if ok {
		return false
	}
	if (s.n+1)*8 > len(s.slots)*7 {
		s.grow()
		i, _ = s.find(k)
	}
	s.slots[i] = k
	s.n++
	return true
}

// grow doubles the array (or makes the first one) and re-inserts every
// digest.
func (s *visitedSet) grow() {
	old := s.slots
	s.slots = make([]uint64, max(2*len(old), minVisitedSlots))
	for _, k := range old {
		if k != 0 {
			i, _ := s.find(k)
			s.slots[i] = k
		}
	}
}
