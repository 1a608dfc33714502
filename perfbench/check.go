package main

import (
	"fmt"

	"syncstamp/internal/core"
	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/vector"
)

// checkStamps is the pair workloads' output check: it rebuilds the global
// trace from the per-process logs with csp.Reconstruct and compares every
// agreed stamp with core.StampTrace over the same decomposition. It returns
// how many of the want messages are wrong or missing; logs that cannot be
// reconstructed at all lose every message.
func checkStamps(dec *decomp.Decomposition, logs [][]csp.Record, want int) int {
	res, err := csp.Reconstruct(dec, logs)
	if err != nil {
		return want
	}
	oracle, err := core.StampTrace(res.Trace, dec)
	if err != nil || len(oracle) != len(res.Stamps) {
		return want
	}
	bad := max(want-len(oracle), 0)
	for i, v := range oracle {
		if !vector.Eq(v, res.Stamps[i]) {
			bad++
		}
	}
	return bad
}

// diffLogs counts the messages whose log records differ between a
// reference run and another run of the same programs: a differing or
// missing record on either side counts its message once.
func diffLogs(ref, got [][]csp.Record) int {
	bad := 0
	for p := range ref {
		var g []csp.Record
		if p < len(got) {
			g = got[p]
		}
		for i, r := range ref[p] {
			if i >= len(g) || !sameRecord(r, g[i]) {
				bad++
			}
		}
	}
	return (bad + 1) / 2
}

func sameRecord(a, b csp.Record) bool {
	return a.Kind == b.Kind && a.Peer == b.Peer && vector.Eq(a.Stamp, b.Stamp) && fmt.Sprint(a.Note) == fmt.Sprint(b.Note)
}
