// Package fault is the deterministic fault injector for the distributed
// runtime: a seeded wrapper over a node Transport that drops, delays,
// duplicates, and reorders vector frames, resets and partitions links, and
// crashes nodes on schedule — all driven by a declarative Plan, with no
// wall-clock randomness anywhere. Two runs of the same computation under
// the same plan and seed inject the same fates into the same frames, which
// is what makes chaos runs replayable and their traces diffable.
//
// The injector sits below the wire codec and above the transport: it sees
// the length-prefixed frame stream each connection writes, splits it back
// into frames, and applies per-link fates to SYN/ACK frames only. HELLO,
// BYE, and report streams pass through untouched — faults model a lossy
// network during the run, not a corrupted handshake, and the recovery
// protocol under test (retransmission, dedup, reconnection, journals) is
// exactly the machinery that must turn this loss back into the fault-free
// stamps.
package fault

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// LinkFault describes the fates injected on one directed link (frames sent
// by node From toward node To; -1 is a wildcard). Frame indices count the
// SYN/ACK frames sent on the link, starting at 0; handshake and report
// frames are invisible to the schedule, so indices are stable across runs.
type LinkFault struct {
	From int `json:"from"`
	To   int `json:"to"`

	// Probabilistic fates, drawn from the link's seeded generator: each
	// frame draws once per fate, in a fixed order, so the fate stream is a
	// pure function of (seed, link, frame index).
	Drop    float64 `json:"drop,omitempty"`
	Dup     float64 `json:"dup,omitempty"`
	Reorder float64 `json:"reorder,omitempty"`

	// DelayMS stalls a frame (and everything queued behind it on the
	// connection) when the delay draw fires.
	DelayMS   int     `json:"delayMs,omitempty"`
	DelayProb float64 `json:"delayProb,omitempty"`

	// DropFrames drops exactly these frame indices — the deterministic
	// counterpart of Drop, used where replay must be byte-identical.
	DropFrames []int `json:"dropFrames,omitempty"`

	// ResetAfter closes the link's connection after that many frames have
	// been sent on it; each entry is consumed once, in order, so a
	// reconnected session is not immediately killed again.
	ResetAfter []int `json:"resetAfter,omitempty"`

	// PartitionAfter/PartitionFrames drop every frame in the index window
	// [PartitionAfter, PartitionAfter+PartitionFrames) — a temporary
	// one-way partition measured in traffic, not wall time.
	PartitionAfter  int `json:"partitionAfter,omitempty"`
	PartitionFrames int `json:"partitionFrames,omitempty"`

	// Jitter, when non-nil, adds a per-frame latency drawn from a
	// distribution — the normal-case network model of the asynchronous
	// substrate, as opposed to DelayMS/DelayProb's occasional fixed stall.
	// Every frame on the link draws one jitter value (under the same
	// fixed-draw-order discipline as the probabilistic fates), so the
	// latency schedule is replayable per seed.
	Jitter *JitterSpec `json:"jitter,omitempty"`
}

// Jitter distribution names.
const (
	JitterFixed     = "fixed"
	JitterLognormal = "lognormal"
	JitterPareto    = "pareto"
)

// JitterSpec describes a per-frame latency distribution. Fixed adds MeanMS
// to every frame; lognormal draws MeanMS·exp(Sigma·N(0,1)) (MeanMS is the
// median — WAN-style body with occasional slow frames); pareto draws from a
// Pareto with shape Alpha scaled so the mean is MeanMS (heavy tail:
// occasional frames many times the mean). Draws are clamped to CapMS
// (default 10·MeanMS), which bounds the head-of-line stall any one frame
// can inflict on the link.
type JitterSpec struct {
	Dist   string  `json:"dist"`
	MeanMS float64 `json:"meanMs"`
	Sigma  float64 `json:"sigma,omitempty"` // lognormal shape; default 0.5
	Alpha  float64 `json:"alpha,omitempty"` // pareto shape; default 2.5, must be > 1
	CapMS  float64 `json:"capMs,omitempty"` // clamp; default 10·MeanMS
}

// Validate checks the spec's distribution and parameters.
func (j *JitterSpec) Validate() error {
	switch j.Dist {
	case JitterFixed, JitterLognormal, JitterPareto:
	default:
		return fmt.Errorf("fault: unknown jitter distribution %q (want fixed, lognormal, or pareto)", j.Dist)
	}
	if j.MeanMS < 0 {
		return fmt.Errorf("fault: negative jitter mean %vms", j.MeanMS)
	}
	if j.Sigma < 0 {
		return fmt.Errorf("fault: negative jitter sigma %v", j.Sigma)
	}
	if j.Dist == JitterPareto && j.Alpha != 0 && j.Alpha <= 1 {
		return fmt.Errorf("fault: pareto alpha %v must exceed 1 (the mean diverges otherwise)", j.Alpha)
	}
	if j.CapMS < 0 {
		return fmt.Errorf("fault: negative jitter cap %vms", j.CapMS)
	}
	return nil
}

// Crash schedules a node kill: after the node has sent AfterFrames vector
// frames (across all its links), the transport invokes CrashFn — tsnode
// wires os.Exit, tests wire a panic or a Stop. Every SYN/ACK handed to the
// transport counts, whether the plan drops it or its write fails, so a node
// that sends at least AfterFrames vector frames always crashes.
type Crash struct {
	Node        int `json:"node"`
	AfterFrames int `json:"afterFrames"`
}

// Plan is a declarative fault schedule, JSON-encodable for tsnode
// -fault-plan. The zero plan injects nothing.
type Plan struct {
	// Seed drives every probabilistic fate. Each directed link derives its
	// own generator from (Seed, from, to), so links are independent and a
	// run is replayable regardless of connection interleaving.
	Seed    int64       `json:"seed"`
	Links   []LinkFault `json:"links,omitempty"`
	Crashes []Crash     `json:"crashes,omitempty"`
}

// Validate checks probabilities and indices.
func (p *Plan) Validate() error {
	for i, l := range p.Links {
		for _, pr := range []struct {
			name string
			v    float64
		}{{"drop", l.Drop}, {"dup", l.Dup}, {"reorder", l.Reorder}, {"delayProb", l.DelayProb}} {
			if pr.v < 0 || pr.v > 1 {
				return fmt.Errorf("fault: link %d: %s probability %v outside [0,1]", i, pr.name, pr.v)
			}
		}
		if l.From < -1 || l.To < -1 {
			return fmt.Errorf("fault: link %d: negative endpoint (use -1 for wildcard)", i)
		}
		if l.DelayMS < 0 {
			return fmt.Errorf("fault: link %d: negative delay %dms", i, l.DelayMS)
		}
		for _, f := range l.DropFrames {
			if f < 0 {
				return fmt.Errorf("fault: link %d: negative drop index %d", i, f)
			}
		}
		prev := -1
		for _, r := range l.ResetAfter {
			if r <= prev {
				return fmt.Errorf("fault: link %d: resetAfter must be positive and ascending", i)
			}
			prev = r
		}
		if l.PartitionAfter < 0 || l.PartitionFrames < 0 {
			return fmt.Errorf("fault: link %d: negative partition window", i)
		}
		if l.Jitter != nil {
			if err := l.Jitter.Validate(); err != nil {
				return fmt.Errorf("fault: link %d: %w", i, err)
			}
		}
	}
	for i, c := range p.Crashes {
		if c.Node < 0 || c.AfterFrames <= 0 {
			return fmt.Errorf("fault: crash %d: want node >= 0 and afterFrames > 0", i)
		}
	}
	return nil
}

// rule returns the first link fault matching the directed link, or nil.
func (p *Plan) rule(from, to int) *LinkFault {
	for i := range p.Links {
		l := &p.Links[i]
		if (l.From == -1 || l.From == from) && (l.To == -1 || l.To == to) {
			return l
		}
	}
	return nil
}

// crashAfter returns the scheduled crash threshold for a node (0 = none).
func (p *Plan) crashAfter(node int) int {
	for _, c := range p.Crashes {
		if c.Node == node {
			return c.AfterFrames
		}
	}
	return 0
}

// ParsePlan decodes and validates a JSON plan.
func ParsePlan(b []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("fault: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// ReadPlanFile loads a plan from a JSON file (the tsnode -fault-plan
// format).
func ReadPlanFile(path string) (*Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: read plan: %w", err)
	}
	return ParsePlan(b)
}

// ParseJitterProfile parses the tsnode -jitter-profile vocabulary:
// "dist[:meanMs[:shape]]" where dist is fixed, lognormal, or pareto, meanMs
// defaults to 2, and shape is sigma (lognormal) or alpha (pareto).
// Examples: "fixed:1", "lognormal:2:0.5", "pareto:2:2.5".
func ParseJitterProfile(s string) (*JitterSpec, error) {
	parts := strings.Split(s, ":")
	spec := &JitterSpec{Dist: parts[0], MeanMS: 2}
	if len(parts) > 3 {
		return nil, fmt.Errorf("fault: jitter profile %q has %d fields, want dist[:meanMs[:shape]]", s, len(parts))
	}
	if len(parts) >= 2 {
		v, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("fault: jitter profile %q: bad mean: %w", s, err)
		}
		spec.MeanMS = v
	}
	if len(parts) == 3 {
		v, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("fault: jitter profile %q: bad shape: %w", s, err)
		}
		switch spec.Dist {
		case JitterLognormal:
			spec.Sigma = v
		case JitterPareto:
			spec.Alpha = v
		default:
			return nil, fmt.Errorf("fault: jitter profile %q: %s takes no shape parameter", s, spec.Dist)
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// ApplyJitter imposes a jitter spec on every link of the plan: existing
// rules without jitter gain it, and a wildcard rule is appended so links no
// rule matched are covered too (rule matching is first-match, so appending
// keeps existing fates intact).
func (p *Plan) ApplyJitter(spec *JitterSpec) {
	for i := range p.Links {
		if p.Links[i].Jitter == nil {
			p.Links[i].Jitter = spec
		}
	}
	p.Links = append(p.Links, LinkFault{From: -1, To: -1, Jitter: spec})
}
