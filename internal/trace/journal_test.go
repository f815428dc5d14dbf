package trace

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/history"
)

// TestJournalSequential checks that a single-goroutine journal is
// indistinguishable from a Log built by Append.
func TestJournalSequential(t *testing.T) {
	const procs, vars, n = 3, 2, 3000 // spans several blocks per shard
	j := NewJournal(procs, vars)
	want := NewLog(procs, vars)
	for i := 0; i < n; i++ {
		e := Event{Kind: Issue, Proc: i % procs, Time: int64(i), Var: i % vars, Val: int64(i)}
		got := j.Append(e)
		if exp := want.Append(e); got != exp {
			t.Fatalf("append %d: got %+v want %+v", i, got, exp)
		}
	}
	snap := j.Snapshot()
	if len(snap.Events) != n {
		t.Fatalf("snapshot has %d events, want %d", len(snap.Events), n)
	}
	for i := range snap.Events {
		if snap.Events[i] != want.Events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, snap.Events[i], want.Events[i])
		}
	}
	if j.Len() != n {
		t.Fatalf("Len = %d, want %d", j.Len(), n)
	}
}

// TestJournalConcurrent hammers the journal from one goroutine per
// process plus cross-proc writers, then checks the snapshot is a dense,
// per-proc-ordered total order containing every event exactly once.
func TestJournalConcurrent(t *testing.T) {
	const procs, perProc = 8, 2000
	j := NewJournal(procs, 1)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				// Val encodes (proc, local index) so the checker below can
				// verify per-proc program order survived the merge.
				j.Append(Event{Kind: Apply, Proc: p, Val: int64(p*perProc + i)})
			}
		}(p)
	}
	wg.Wait()
	snap := j.Snapshot()
	if len(snap.Events) != procs*perProc {
		t.Fatalf("snapshot has %d events, want %d", len(snap.Events), procs*perProc)
	}
	seen := make(map[int64]bool, procs*perProc)
	next := make([]int64, procs)
	for i, e := range snap.Events {
		if e.Seq != i {
			t.Fatalf("event %d has Seq %d: numbering not dense", i, e.Seq)
		}
		if seen[e.Val] {
			t.Fatalf("event %d duplicated", e.Val)
		}
		seen[e.Val] = true
		if want := int64(e.Proc*perProc) + next[e.Proc]; e.Val != want {
			t.Fatalf("proc %d order broken: got event %d, want %d", e.Proc, e.Val, want)
		}
		next[e.Proc]++
	}
}

// TestJournalSnapshotPrefix checks that consecutive snapshots of a
// journal under concurrent appends are prefixes of one another — the
// contract mid-run audits rely on — and that the snapshot taken after
// the writers finish holds every event. Writers append a fixed number
// of events: a snapshot costs time linear in the journal, so free-
// running writers would grow it without bound.
func TestJournalSnapshotPrefix(t *testing.T) {
	const procs, perProc = 4, 20000
	j := NewJournal(procs, 1)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				j.Append(Event{Kind: Apply, Proc: p, Val: int64(i)})
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var prev *Log
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		snap := j.Snapshot()
		if prev != nil {
			if len(snap.Events) < len(prev.Events) {
				t.Fatalf("snapshot shrank: %d < %d", len(snap.Events), len(prev.Events))
			}
			for k := range prev.Events {
				if snap.Events[k] != prev.Events[k] {
					t.Fatalf("snapshot is not an extension of its predecessor at %d", k)
				}
			}
		}
		prev = snap
	}
	if len(prev.Events) != procs*perProc {
		t.Fatalf("final snapshot has %d events, want %d", len(prev.Events), procs*perProc)
	}
}

// checkRoundTrip records events into a journal and requires both the
// stamped events and the snapshot to equal a Log built with Append.
func checkRoundTrip(t testing.TB, procs int, events []Event) {
	t.Helper()
	j := NewJournal(procs, 1)
	want := NewLog(procs, 1)
	for i, e := range events {
		if got, exp := j.Append(e), want.Append(e); got != exp {
			t.Fatalf("append %d: got %+v want %+v", i, got, exp)
		}
	}
	snap := j.Snapshot()
	if len(snap.Events) != len(want.Events) {
		t.Fatalf("snapshot has %d events, want %d", len(snap.Events), len(want.Events))
	}
	for i := range snap.Events {
		if snap.Events[i] != want.Events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, snap.Events[i], want.Events[i])
		}
	}
}

// TestJournalRoundTripProperty records random event streams that cover
// every kind, negative write sequence numbers (forwarded-read tokens),
// extreme values, non-monotone times, events with both Write and From
// (ReadServe) and runs of repeated writes, and checks each decodes back
// exactly.
func TestJournalRoundTripProperty(t *testing.T) {
	edges := []int64{0, 1, -1, 63, 64, -64, -65, 1 << 31, -1 << 31, math.MinInt64, math.MaxInt64}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		val := func() int64 {
			if rng.Intn(3) == 0 {
				return edges[rng.Intn(len(edges))]
			}
			return rng.Int63n(2000) - 1000
		}
		procs := 1 + rng.Intn(5)
		events := make([]Event, 0, 300)
		var prev Event
		for i := 0; i < cap(events); i++ {
			e := Event{Kind: EventKind(i % NumKinds), Proc: rng.Intn(procs), Time: val(), Buffered: rng.Intn(2) == 0}
			e.Write = history.WriteID{Proc: int(val()), Seq: int(val())}
			e.Var, e.Val = int(val()), val()
			// Repeat a prefix of the previous event's write fields at its
			// process: all of them as Send after Issue, or all but Val
			// as consecutive Returns of one variable.
			switch rng.Intn(4) {
			case 0:
				e.Proc, e.Write, e.Var, e.Val = prev.Proc, prev.Write, prev.Var, prev.Val
			case 1:
				e.Proc, e.Write, e.Var = prev.Proc, prev.Write, prev.Var
			case 2:
				e.Proc, e.Write = prev.Proc, prev.Write
			}
			if rng.Intn(2) == 0 {
				e.From = history.WriteID{Proc: int(val()), Seq: int(val())}
			}
			events = append(events, e)
			prev = e
		}
		checkRoundTrip(t, procs, events)
	}
}

// fuzzEvents decodes a fuzz input into an event stream over procs
// processes. Each event is a control byte — kind, Buffered, "repeat
// the previous event's process and write", "set From" — followed by
// varint fields; a truncated or overlong field reads as zero, so every
// input yields events.
func fuzzEvents(procs int, data []byte) []Event {
	field := func() int64 {
		v, n := binary.Varint(data)
		switch {
		case n > 0:
			data = data[n:]
		case n < 0:
			data = data[-n:]
		default:
			data = nil
		}
		return v
	}
	var events []Event
	var prev Event
	for len(data) > 0 {
		c := data[0]
		data = data[1:]
		e := Event{Kind: EventKind(int(c&kindMask) % NumKinds), Buffered: c&flagBuffered != 0}
		if c&flagSameWrite != 0 {
			e.Proc, e.Write, e.Var, e.Val = prev.Proc, prev.Write, prev.Var, prev.Val
			e.Time = field()
		} else {
			e.Proc = int(uint64(field()) % uint64(procs))
			e.Time = field()
			e.Write = history.WriteID{Proc: int(field()), Seq: int(field())}
			e.Var, e.Val = int(field()), field()
		}
		if c&flagFrom != 0 {
			e.From = history.WriteID{Proc: int(field()), Seq: int(field())}
		}
		events = append(events, e)
		prev = e
	}
	return events
}

// FuzzJournalRoundTrip checks that any recorded event stream snapshots
// back to exactly the Log that Append builds.
func FuzzJournalRoundTrip(f *testing.F) {
	f.Add(uint8(3), []byte{0x00, 0x02, 0x10, 0x02, 0x04, 0x02, 0x54, 0x41, 0x02})
	f.Add(uint8(1), []byte{0x8f, 0x00, 0x01, 0x00, 0x01, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, procs uint8, data []byte) {
		n := 1 + int(procs%8)
		checkRoundTrip(t, n, fuzzEvents(n, data))
	})
}

// encodedBytes sums the journal's encoded record bytes.
func encodedBytes(j *Journal) (n int) {
	for i := range j.shards {
		s := &j.shards[i]
		n += len(s.cur)
		for _, b := range s.blocks {
			n += len(b)
		}
	}
	return n
}

// benchEvents is a replicated-write stream at 3 processes, in the mix
// the live cluster records: three of four operations are writes (Issue
// and Send at the writer, Receipt and Apply at both other replicas),
// the fourth a read's Return.
func benchEvents(ops int) []Event {
	const procs = 3
	var events []Event
	t := int64(0)
	for i := 0; i < ops; i++ {
		p := i % procs
		t += 1000 + int64(i*7919%500)
		w := history.WriteID{Proc: p, Seq: i/procs + 1}
		if i%4 == 3 {
			events = append(events, Event{Kind: Return, Proc: p, Time: t, Var: i % 8, Val: int64(i * 31), From: w})
			continue
		}
		e := Event{Kind: Issue, Proc: p, Time: t, Write: w, Var: i % 8, Val: int64(i * 31)}
		events = append(events, e)
		e.Kind, e.Time = Send, t+200
		events = append(events, e)
		for q := 1; q < procs; q++ {
			e.Proc, e.Kind, e.Time = (p+q)%procs, Receipt, t+int64(20000*q)
			events = append(events, e)
			e.Kind, e.Time = Apply, e.Time+300
			events = append(events, e)
		}
	}
	return events
}

// BenchmarkJournalRecord measures recording one event: ns/op, heap
// B/op (block allocations, the journal's memory cost per event) and
// bytes/event of encoded records.
func BenchmarkJournalRecord(b *testing.B) {
	events := benchEvents(1 << 12)
	const perJournal = 1 << 16 // bounds the benchmark's memory
	j, bytes := NewJournal(3, 8), 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%perJournal == 0 && i > 0 {
			bytes += encodedBytes(j)
			j = NewJournal(3, 8)
		}
		e := events[i%len(events)]
		j.Record(&e)
	}
	bytes += encodedBytes(j)
	b.ReportMetric(float64(bytes)/float64(b.N), "bytes/event")
}

// BenchmarkJournalSnapshot measures merging a 100k-event journal into a
// Log, per snapshot and per event.
func BenchmarkJournalSnapshot(b *testing.B) {
	events := benchEvents(1 << 15)[:100000]
	j := NewJournal(3, 8)
	for i := range events {
		j.Record(&events[i])
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if n := len(j.Snapshot().Events); n != len(events) {
			b.Fatalf("snapshot has %d events, want %d", n, len(events))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}
