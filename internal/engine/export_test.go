package engine

// FastPathWorms counts the live worms that are coasting or asleep, so
// tests can show that the fast path was exercised, not just agreed with.
func (e *Engine) FastPathWorms() (coasting, asleep int) {
	for _, w := range e.worms {
		if w.coasting {
			coasting++
		}
		if w.asleep {
			asleep++
		}
	}
	return coasting, asleep
}

// Lane returns replica r's engine.
func (rs *ReplicaSet) Lane(r int) *Engine { return &rs.lanes[r] }
