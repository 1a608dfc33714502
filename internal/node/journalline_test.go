package node

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unicode/utf8"

	"syncstamp/internal/obs"
	"syncstamp/internal/vector"
)

// journalLineNotes covers every string class the encoder treats
// differently: plain ASCII, the empty string, HTML characters, quote and
// backslash, control bytes, a line separator json escapes for JavaScript,
// valid non-ASCII, and invalid UTF-8.
var journalLineNotes = []string{
	"", "tick", "checkpoint 7", "<>&", "a<b", "a>b", "a&b", `say "hi"`, `back\slash`, "tab\there",
	"line\nfeed", "\x00\x1f\x7f", "sep\u2028arator", "café", "bad\xffbyte", "\xc3",
}

// checkJournalLine fails t unless appendRecordLine renders rec exactly as
// json.Marshal does, newline included.
func checkJournalLine(t *testing.T, rec JournalRecord) {
	t.Helper()
	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if got := appendRecordLine(nil, &rec); !bytes.Equal(got, want) {
		t.Fatalf("record %#v:\n got %q\nwant %q", rec, got, want)
	}
}

// TestJournalLineMatchesMarshal is the encoder's identity property over a
// seeded sweep of every field: zero, negative and extreme ints, nil vs
// empty vs non-empty stamps, every note class, and the Node field flight
// dumps set.
func TestJournalLineMatchesMarshal(t *testing.T) {
	if n := reflect.TypeOf(JournalRecord{}).NumField(); n != 7 {
		t.Fatalf("JournalRecord has %d fields; appendRecordLine and this sweep encode 7", n)
	}
	ints := []int{0, 1, -1, 42, -977, math.MaxInt, math.MinInt}
	stamps := []vector.V{nil, {}, {0}, {3, -2, 0, 17}, {math.MaxInt, math.MinInt}}
	kinds := []string{journalSend, journalRecv, journalInternal, journalRestart, "", "syn", "k<ind>"}
	for _, n := range ints {
		checkJournalLine(t, JournalRecord{Kind: journalSend, Proc: n, Peer: n, Node: n})
	}
	for _, s := range stamps {
		checkJournalLine(t, JournalRecord{Kind: journalRecv, Proc: 2, Peer: 3, Seq: 9, Stamp: s})
	}
	for _, note := range journalLineNotes {
		checkJournalLine(t, JournalRecord{Kind: journalInternal, Proc: 1, Note: note})
	}
	checkJournalLine(t, JournalRecord{Kind: journalSend, Seq: math.MaxUint64})

	rng := rand.New(rand.NewSource(1))
	pick := func() int { return ints[rng.Intn(len(ints))] }
	for i := 0; i < 2000; i++ {
		rec := JournalRecord{
			Kind:  kinds[rng.Intn(len(kinds))],
			Proc:  pick(),
			Peer:  pick(),
			Seq:   uint64(rng.Intn(3)) * rng.Uint64(),
			Stamp: stamps[rng.Intn(len(stamps))],
			Note:  journalLineNotes[rng.Intn(len(journalLineNotes))],
			Node:  pick(),
		}
		if rng.Intn(2) == 0 {
			rec.Stamp = make(vector.V, rng.Intn(6))
			for k := range rec.Stamp {
				rec.Stamp[k] = rng.Intn(2001) - 1000
			}
		}
		checkJournalLine(t, rec)
	}
}

// FuzzJournalLine holds the identity over arbitrary field values.
func FuzzJournalLine(f *testing.F) {
	for _, note := range journalLineNotes {
		f.Add(journalInternal, 1, 0, uint64(0), []byte{}, note, 0)
	}
	f.Add(journalSend, 0, -3, uint64(7), []byte{1, 0, 255}, "", 2)
	f.Add("", -1, 1, uint64(math.MaxUint64), []byte(nil), "<\u2028>", -5)
	f.Fuzz(func(t *testing.T, kind string, proc, peer int, seq uint64, stamp []byte, note string, node int) {
		rec := JournalRecord{Kind: kind, Proc: proc, Peer: peer, Seq: seq, Note: note, Node: node}
		if stamp != nil {
			rec.Stamp = make(vector.V, len(stamp))
			for k, b := range stamp {
				rec.Stamp[k] = int(int8(b)) * (proc | 1)
			}
		}
		checkJournalLine(t, rec)
	})
}

// TestJournalLineFlightDumpRoundTrip writes a flight dump whose events
// need every escape class through the journal's encoder and reads it back
// with encoding/json: every event, Node included, must survive.
func TestJournalLineFlightDumpRoundTrip(t *testing.T) {
	var events []obs.Event
	for i, note := range journalLineNotes {
		if !utf8.ValidString(note) {
			// Invalid UTF-8 is replaced with U+FFFD by json.Marshal, so
			// it cannot round-trip through any JSON encoding.
			continue
		}
		events = append(events,
			obs.Event{Node: i + 1, Proc: i, Peer: -1, Seq: 2 * i, Phase: obs.PhaseInternal, Stamp: vector.V{i, -i}, Note: note},
			obs.Event{Node: -i, Proc: i, Peer: i + 1, Seq: 2*i + 1, Phase: obs.PhaseAdopt, Stamp: vector.V{i + 1, 0, 5}})
	}
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	if err := WriteFlightDump(path, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip:\n%+v\n%+v", got, events)
	}
	// The file is line for line what json.Marshal writes.
	content, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, e := range events {
		b, err := json.Marshal(JournalRecord{Kind: e.Phase.String(), Proc: e.Proc, Peer: e.Peer, Seq: uint64(e.Seq), Stamp: e.Stamp, Note: e.Note, Node: e.Node})
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, b...), '\n')
	}
	if !bytes.Equal(content, want) {
		t.Fatalf("dump bytes differ from json.Marshal lines:\n got %q\nwant %q", content, want)
	}
}

// benchSegment is a spill-shaped segment: n send/recv records with
// d-component stamps, as a collector leaf hands to AppendBatch.
func benchSegment(n, d int) []JournalRecord {
	recs := make([]JournalRecord, n)
	for i := range recs {
		stamp := make(vector.V, d)
		for k := range stamp {
			stamp[k] = i*7 + k
		}
		recs[i] = JournalRecord{Kind: journalSend, Proc: i % 97, Peer: i % 13, Stamp: stamp}
		if i%2 == 1 {
			recs[i].Kind = journalRecv
		}
	}
	return recs
}

// TestJournalLineAppendBatchAllocs pins the spill path's allocation cost
// per segment, not per record: a warm AppendBatch of 4096 records encodes
// into the recycled group-commit buffers, leaving only the commit's own
// bookkeeping.
func TestJournalLineAppendBatchAllocs(t *testing.T) {
	j, _, err := OpenJournal(filepath.Join(t.TempDir(), "seg.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recs := benchSegment(4096, 16)
	appendSeg := func() {
		if _, err := j.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: group commit alternates between two buffers, and each grows to
	// segment size on its first use.
	appendSeg()
	appendSeg()
	allocs := testing.AllocsPerRun(5, appendSeg)
	if allocs > 2 {
		t.Errorf("warm AppendBatch of %d records allocates %.0f objects per call, budget 2", len(recs), allocs)
	}
}
