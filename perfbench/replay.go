package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/durability"
	"repro/internal/protocol"
)

// Replay micro-timings: the public functions of the wire codec, the
// metadata codec, the replica and the WAL, timed on inputs captured from
// the seeded workloads.

// replayPasses repeats each replay so a timing covers enough calls.
const replayPasses = 8

// replayWire times Request/Response AppendBinary and their decoders on
// captured serve traffic; it returns ns per frame for each direction.
func replayWire(samples []wireSample) (encNs, decNs float64, err error) {
	frames := make([][]byte, 0, 2*len(samples))
	for _, s := range samples {
		frames = append(frames, s.req.AppendBinary(nil), s.resp.AppendBinary(nil, s.req.Token))
	}
	var buf []byte
	t := time.Now()
	for range replayPasses {
		for _, s := range samples {
			buf = s.req.AppendBinary(buf[:0])
			buf = s.resp.AppendBinary(buf[:0], s.req.Token)
		}
	}
	enc := time.Since(t)
	t = time.Now()
	for range replayPasses {
		for i, s := range samples {
			if _, _, err := protocol.DecodeRequest(frames[2*i]); err != nil {
				return 0, 0, fmt.Errorf("replay: captured request does not decode: %w", err)
			}
			if _, _, err := protocol.DecodeResponse(frames[2*i+1], s.req.Token); err != nil {
				return 0, 0, fmt.Errorf("replay: captured response does not decode: %w", err)
			}
		}
	}
	dec := time.Since(t)
	n := float64(replayPasses * len(frames))
	return float64(enc.Nanoseconds()) / n, float64(dec.Nanoseconds()) / n, nil
}

// replayCodec pushes each captured link stream through a fresh
// UpdateEncoder/UpdateDecoder pair in the auto mode, returning encoded
// bytes per update and ns per encode+decode.
func replayCodec(links [][]protocol.Update) (bytesPer, nsPer float64, err error) {
	var total, frames int
	var elapsed time.Duration
	var buf []byte
	for range replayPasses {
		for _, link := range links {
			enc, dec := protocol.NewUpdateEncoder(protocol.MetaAuto), protocol.NewUpdateDecoder(protocol.MetaAuto)
			t := time.Now()
			for _, u := range link {
				buf, _ = enc.Append(buf[:0], u)
				if _, _, _, err := dec.Decode(buf); err != nil {
					return 0, 0, fmt.Errorf("replay: captured update does not round-trip: %w", err)
				}
				total += len(buf)
			}
			elapsed += time.Since(t)
			frames += len(link)
		}
	}
	return float64(total) / float64(frames), float64(elapsed.Nanoseconds()) / float64(frames), nil
}

// replicaCall is one call replica p0 received, recorded by a first,
// untimed replay so the timed passes repeat it exactly.
type replicaCall struct {
	kind byte // 'w' LocalWrite, 'r' Read, 's' Status, 'a' Apply
	x    int
	v    int64
	u    *protocol.Update
}

// replicaCalls feeds replica p0's captured inputs — its local writes and
// reads and its receipts, in the order it saw them — to a fresh OptP
// replica, buffering receipts until Status says they are deliverable,
// and returns the resulting call sequence.
func replicaCalls(events []p0Event) ([]replicaCall, error) {
	r := protocol.New(protocol.OptP, 0, reorderProcs, reorderVars)
	var calls []replicaCall
	var pending []*protocol.Update
	deliverable := func(u *protocol.Update) bool {
		calls = append(calls, replicaCall{kind: 's', u: u})
		if r.Status(*u) != protocol.Deliverable {
			return false
		}
		calls = append(calls, replicaCall{kind: 'a', u: u})
		r.Apply(*u)
		return true
	}
	for i := range events {
		e := &events[i]
		switch {
		case e.write:
			calls = append(calls, replicaCall{kind: 'w', x: e.x, v: e.v})
			r.LocalWrite(e.x, e.v)
		case e.read:
			calls = append(calls, replicaCall{kind: 'r', x: e.x})
			r.Read(e.x)
		case !deliverable(&e.u):
			pending = append(pending, &e.u)
		default:
			for progress := true; progress; {
				progress = false
				for j := 0; j < len(pending); j++ {
					if deliverable(pending[j]) {
						pending = append(pending[:j], pending[j+1:]...)
						progress = true
						j--
					}
				}
			}
		}
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("replay: %d receipts at p0 never became deliverable", len(pending))
	}
	return calls, nil
}

// replayReplica times OptP's Status and Apply on replica p0's captured
// call sequence. Status is read-only, so a pass that skips it leaves the
// replica's states unchanged; Apply is timed against a pass that makes
// only the local calls. Each difference is the median over passes.
// It returns ns per Status call and per Apply call.
func replayReplica(events []p0Event) (statusNs, applyNs float64, err error) {
	calls, err := replicaCalls(events)
	if err != nil {
		return 0, 0, err
	}
	var statuses, applies int
	for _, c := range calls {
		switch c.kind {
		case 's':
			statuses++
		case 'a':
			applies++
		}
	}
	pass := func(status, apply bool) float64 {
		r := protocol.New(protocol.OptP, 0, reorderProcs, reorderVars)
		t := time.Now()
		for _, c := range calls {
			switch c.kind {
			case 'w':
				r.LocalWrite(c.x, c.v)
			case 'r':
				r.Read(c.x)
			case 's':
				if status {
					r.Status(*c.u)
				}
			case 'a':
				if apply {
					r.Apply(*c.u)
				}
			}
		}
		return float64(time.Since(t).Nanoseconds())
	}
	var sDiff, aDiff []float64
	for range replayPasses {
		all, noStatus, local := pass(true, true), pass(false, true), pass(false, false)
		sDiff = append(sDiff, (all-noStatus)/float64(statuses))
		aDiff = append(aDiff, (noStatus-local)/float64(applies))
	}
	return median(sDiff), median(aDiff), nil
}

// replayWAL appends a recovered journal's entries to a fresh WAL headed
// by the recovered snapshot; it returns ns per Append.
func replayWAL(dir string, snap []byte, entries []durability.Entry) (float64, error) {
	defer os.RemoveAll(dir)
	if len(entries) == 0 {
		return 0, fmt.Errorf("replay: recovered journal has no entries")
	}
	w, err := durability.Create(dir, false, snap)
	if err != nil {
		return 0, fmt.Errorf("replay: create journal: %w", err)
	}
	t := time.Now()
	for range replayPasses {
		for _, e := range entries {
			if err := w.Append(e); err != nil {
				w.Close()
				return 0, fmt.Errorf("replay: append: %w", err)
			}
		}
	}
	ns := float64(time.Since(t).Nanoseconds()) / float64(replayPasses*len(entries))
	if err := w.Close(); err != nil {
		return 0, fmt.Errorf("replay: close journal: %w", err)
	}
	return ns, nil
}

// auditLayers runs the full checker audit and records its cost and
// verdicts; an audit that is not clean (or, for OptP, any unnecessary
// delay) fails the round.
func auditLayers(cl *core.Cluster, l layers, ops int64, tr *tracer, parent, trace uint64) error {
	log := cl.Log()
	events := len(log.Events)
	l["trace.events_per_op"] = float64(events) / float64(ops)
	stats := log.Stats(cl.Protocol().String())
	l["protocol.delay_ratio"] = float64(stats.Delays) / float64(max(stats.Receipts, 1))
	t := time.Now()
	rep, err := cl.Audit()
	d := time.Since(t)
	tr.leaf(parent, trace, "checker.Audit", t, t.Add(d))
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	l["checker.audit_s"] = d.Seconds()
	l["checker.audit_ns_per_event"] = float64(d.Nanoseconds()) / float64(events)
	l["checker.safe"] = b2f(rep.Safe())
	l["checker.causally_consistent"] = b2f(rep.CausallyConsistent())
	l["checker.exactly_once"] = b2f(rep.ExactlyOnce())
	l["checker.in_p"] = b2f(rep.InP())
	l["protocol.unnecessary_delays"] = float64(rep.UnnecessaryDelays)
	if !rep.Safe() || !rep.CausallyConsistent() || !rep.ExactlyOnce() || !rep.InP() || rep.UnnecessaryDelays != 0 {
		return fmt.Errorf("audit not clean: safe=%v causal=%v exactly-once=%v in-P=%v unnecessary=%d",
			rep.Safe(), rep.CausallyConsistent(), rep.ExactlyOnce(), rep.InP(), rep.UnnecessaryDelays)
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
