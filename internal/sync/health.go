package sync

import (
	stdsync "sync"
)

// State is a peer's position in the health FSM. The order is meaningful:
// states only worsen under timeouts and only heal to Healthy (from anything
// short of Excluded) on liveness evidence.
type State int

const (
	// Healthy: the peer is answering within the estimator's expectations.
	Healthy State = iota
	// Degraded: one exchange saw DegradeAfter retransmission intervals
	// expire in a row with nothing heard from the peer. The rendezvous
	// keeps retrying; the state is a visible early warning, not a behavior
	// change.
	Degraded
	// Suspect: one exchange saw SuspectAfter such intervals. The degradation
	// policy (node.OnPeerLoss) now has jurisdiction: a peer that stays
	// suspect for the reconnect window is excluded or fails the run,
	// connection liveness notwithstanding.
	Suspect
	// Excluded is terminal: the peer was removed from the run.
	Excluded
)

// String names the state (RunInfo and /metrics vocabulary).
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Suspect:
		return "suspect"
	case Excluded:
		return "excluded"
	default:
		return "unknown"
	}
}

// Monitor is the per-peer health FSM, driven by each exchange's run of
// unanswered retransmission intervals and healed by evidence. Safe for
// concurrent use: timeouts arrive from parked senders, evidence from the
// connection's read loop.
type Monitor struct {
	mu           stdsync.Mutex
	state        State
	heard        uint64 // evidence events so far
	degradeAfter int
	suspectAfter int
	suspicions   int64 // transitions into Suspect
	recoveries   int64 // Suspect/Degraded healed by evidence
}

// NewMonitor returns a Healthy monitor with the given per-exchange timeout
// thresholds (degradeAfter < suspectAfter; NewCoordinator normalizes).
func NewMonitor(degradeAfter, suspectAfter int) *Monitor {
	return &Monitor{degradeAfter: degradeAfter, suspectAfter: suspectAfter}
}

// Streak is one exchange's run of retransmission timeouts with nothing
// heard from its peer in between. Each exchange owns one; the zero value
// has no timeouts.
type Streak struct {
	n     int    // timeouts since the peer was last heard from
	heard uint64 // the monitor's evidence count at the last timeout
}

// Timeout records that the exchange owning s saw a retransmission interval
// expire unanswered, and returns the state plus whether this timeout
// changed it. Only that exchange's streak counts, and any evidence since
// its previous timeout restarts it. Many senders sharing a lossy but live
// link each lose a frame now and then, and the peer keeps answering the
// others; neither their scattered timeouts nor one unlucky exchange may
// add up to a suspicion. A peer that has gone silent fails every interval
// of every exchange, so one streak soon reaches the threshold. A timeout
// never improves the state; only evidence heals it.
func (m *Monitor) Timeout(s *Streak) (State, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == Excluded {
		return m.state, false
	}
	if s.heard != m.heard {
		s.n, s.heard = 0, m.heard
	}
	s.n++
	next := m.state
	switch {
	case s.n >= m.suspectAfter:
		next = Suspect
	case s.n >= m.degradeAfter && next < Degraded:
		next = Degraded
	}
	changed := next != m.state
	if changed {
		m.state = next
		if next == Suspect {
			m.suspicions++
		}
	}
	return m.state, changed
}

// Evidence records proof the peer is alive — a frame received from it, its
// safe counter advancing, a late ACK — and heals Degraded/Suspect back to
// Healthy. Excluded is terminal; evidence cannot resurrect an excluded
// peer (its components are already frozen in every surviving clock).
func (m *Monitor) Evidence() (State, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == Excluded {
		return m.state, false
	}
	m.heard++
	changed := m.state != Healthy
	if changed {
		m.state = Healthy
		m.recoveries++
	}
	return m.state, changed
}

// Exclude pins the FSM at Excluded.
func (m *Monitor) Exclude() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state = Excluded
}

// State returns the current state.
func (m *Monitor) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// HealthStats is a point-in-time view of a monitor.
type HealthStats struct {
	State      State
	Suspicions int64
	Recoveries int64
}

// Stats snapshots the monitor.
func (m *Monitor) Stats() HealthStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return HealthStats{State: m.state, Suspicions: m.suspicions, Recoveries: m.recoveries}
}
