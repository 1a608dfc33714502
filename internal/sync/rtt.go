package sync

import (
	stdsync "sync"
	"time"
)

// Jacobson/Karn smoothing parameters, as shift counts: srtt gains 1/8 of
// each error, rttvar 1/4 of each deviation, and the RTO is srtt + 4·rttvar.
const (
	srttShift   = 3 // alpha = 1/8
	rttvarShift = 2 // beta = 1/4
	rttvarMult  = 4
)

// Estimator is a per-peer Jacobson RTT estimator: an exponentially weighted
// moving average of the round-trip time plus a smoothed mean deviation,
// combined into an adaptive retransmission timeout clamped to [min, max].
// Safe for concurrent use — every local process mid-rendezvous with the
// peer shares one estimator, so they all benefit from each other's samples.
type Estimator struct {
	mu     stdsync.Mutex
	srtt   time.Duration
	rttvar time.Duration
	// unprimed is closed (a broadcast) and cleared by the first sample,
	// which replaces the configured initial guess outright.
	unprimed chan struct{}
	min, max time.Duration
	samples  int64
	spurious int64
}

// NewEstimator returns an estimator seeded with an initial RTT guess and
// RTO clamp bounds. Until the first sample arrives the guess acts as the
// smoothed RTT with a variance of half itself (the TCP convention for a
// connection with no samples yet).
func NewEstimator(init, min, max time.Duration) *Estimator {
	return &Estimator{srtt: init, rttvar: init / 2, min: min, max: max, unprimed: make(chan struct{})}
}

// Unprimed returns a channel that the first sample closes, or nil once the
// estimator is primed. A retransmission timer armed from the initial guess
// selects on it to restart from the first measured RTO (RFC 6298 §5.3);
// after priming the nil channel makes that select case free.
func (e *Estimator) Unprimed() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.unprimed
}

// Observe feeds one RTT sample. The first sample replaces the initial
// guess outright (srtt = sample, rttvar = sample/2); later samples apply
// the Jacobson update.
func (e *Estimator) Observe(sample time.Duration) {
	if sample < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.samples++
	if e.unprimed != nil {
		close(e.unprimed)
		e.unprimed = nil
		e.srtt = sample
		e.rttvar = sample / 2
		return
	}
	err := sample - e.srtt
	if err < 0 {
		err = -err
	}
	e.rttvar += (err - e.rttvar) >> rttvarShift
	e.srtt += (sample - e.srtt) >> srttShift
}

// noteSpurious counts one exchange classified as a spurious retransmit.
func (e *Estimator) noteSpurious() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.spurious++
}

// RTO returns the current retransmission timeout: srtt + 4·rttvar, clamped
// to [min, max].
func (e *Estimator) RTO() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	rto := e.srtt + rttvarMult*e.rttvar
	if rto < e.min {
		rto = e.min
	}
	if rto > e.max {
		rto = e.max
	}
	return rto
}

// SRTT returns the smoothed RTT.
func (e *Estimator) SRTT() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.srtt
}

// RTTStats is a point-in-time view of an estimator.
type RTTStats struct {
	SRTT     time.Duration
	RTTVar   time.Duration
	RTO      time.Duration
	Samples  int64
	Spurious int64
}

// Stats snapshots the estimator.
func (e *Estimator) Stats() RTTStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	rto := e.srtt + rttvarMult*e.rttvar
	if rto < e.min {
		rto = e.min
	}
	if rto > e.max {
		rto = e.max
	}
	return RTTStats{SRTT: e.srtt, RTTVar: e.rttvar, RTO: rto, Samples: e.samples, Spurious: e.spurious}
}
