package trace

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/history"
)

// Journal is the live runtime's concurrent event recorder. Each
// process appends to its own shard, a compact encoded byte log, while a
// single global ticket counter stamps every event with its position in
// the cluster-wide total order. Snapshot decodes and merges the shards
// back into an ordinary Log whenever a checker or experiment wants one.
//
// A shard is a list of fixed-size blocks, never copied or reallocated,
// of which only the newest is partly filled. A record is a header byte
// (Kind in the low 5 bits, then the flags below), a uvarint ticket
// delta, a zigzag Time delta, then Write.Proc, Write.Seq, Var and Val
// as zigzag varints unless they repeat the previous record's (Send
// after Issue, Apply after Receipt), then From if it is set. Proc is
// implied by the shard.
//
// Why the checker still sees a total order: an event's ticket is drawn
// inside the operation that produces it, before the operation releases
// whatever makes the event observable elsewhere (the node lock, the
// transport send). If event e₁ happens-before e₂ — same process
// program order, or a message send/receive pair — then e₁'s ticket was
// drawn strictly before e₂'s, so ticket order is a total order
// consistent with every per-process sequence E_i and with message
// causality. Tickets are drawn under the shard lock, so they also rise
// within each shard and the merge never sorts.
//
// Mid-run snapshots truncate at the first missing ticket: a gap is an
// event recorded after its shard was read, and every later event might
// causally depend on it. Cutting there makes every Snapshot a true
// prefix of the final log. After Quiesce/Close nothing is cut.
type Journal struct {
	numProcs  int
	numVars   int
	shareSets [][]int

	ticket atomic.Int64 // the next event's Seq is ticket.Add(1)-1
	shards []shard
}

const (
	// blockSize is the shard block capacity. A record never straddles
	// two blocks; maxRecord bounds it (header + eight varints).
	blockSize = 4 << 10
	maxRecord = 1 + 8*binary.MaxVarintLen64

	kindMask      = 1<<5 - 1
	flagBuffered  = 1 << 5
	flagSameWrite = 1 << 6 // Write, Var, Val repeat the previous record's
	flagFrom      = 1 << 7
)

var _ [kindMask + 1 - NumKinds]struct{} // every kind fits the header

// shard is one process's encoded log. mu guards the blocks and the
// delta base prev; the pad keeps neighbouring shards' hot fields off
// one cache line.
type shard struct {
	mu     sync.Mutex
	blocks [][]byte // sealed blocks, never written again
	cur    []byte   // the open block: len bytes written, cap blockSize
	prev   Event    // the last record, the base of the next one's deltas
	_      [64]byte
}

// NewJournal returns an empty journal for n processes over m variables.
func NewJournal(n, m int) *Journal {
	return &Journal{numProcs: n, numVars: m, shards: make([]shard, n)}
}

// NumProcs returns the process count the journal was built for.
func (j *Journal) NumProcs() int { return j.numProcs }

// NumVars returns the variable count the journal was built for.
func (j *Journal) NumVars() int { return j.numVars }

// SetShareSets records the run's partial-replication assignment so
// every Snapshot carries it to the audit. Must be called before the
// first Snapshot; the journal does not copy the slices.
func (j *Journal) SetShareSets(sets [][]int) { j.shareSets = sets }

// Record stores *e, stamping its global ticket into e.Seq in place —
// the copy-free form of Append for hot paths. It is safe for
// concurrent use; it locks only e.Proc's shard, which a process's own
// events already reach serialized. e.Proc must be in [0, NumProcs).
// Record does not retain e.
func (j *Journal) Record(e *Event) {
	s := &j.shards[e.Proc]
	s.mu.Lock()
	e.Seq = int(j.ticket.Add(1) - 1)
	s.put(e)
	s.mu.Unlock()
}

// Append records e, stamping its global ticket into Seq, and returns
// the stored event.
func (j *Journal) Append(e Event) Event {
	j.Record(&e)
	return e
}

// put encodes e after s.prev; the caller holds s.mu.
func (s *shard) put(e *Event) {
	if cap(s.cur)-len(s.cur) < maxRecord {
		if len(s.cur) > 0 {
			s.blocks = append(s.blocks, s.cur)
		}
		s.cur = make([]byte, 0, blockSize)
	}
	h := byte(e.Kind)
	if e.Buffered {
		h |= flagBuffered
	}
	if e.Write == s.prev.Write && e.Var == s.prev.Var && e.Val == s.prev.Val {
		h |= flagSameWrite
	}
	if !e.From.IsBottom() {
		h |= flagFrom
	}
	b := binary.AppendUvarint(append(s.cur, h), uint64(e.Seq-s.prev.Seq))
	b = binary.AppendVarint(b, e.Time-s.prev.Time)
	if h&flagSameWrite == 0 {
		b = binary.AppendVarint(b, int64(e.Write.Proc))
		b = binary.AppendVarint(b, int64(e.Write.Seq))
		b = binary.AppendVarint(b, int64(e.Var))
		b = binary.AppendVarint(b, e.Val)
	}
	if h&flagFrom != 0 {
		b = binary.AppendVarint(b, int64(e.From.Proc))
		b = binary.AppendVarint(b, int64(e.From.Seq))
	}
	s.cur, s.prev = b, *e
}

// Len returns the number of tickets drawn so far.
func (j *Journal) Len() int { return int(j.ticket.Load()) }

// Snapshot merges the shards into a Log ordered by ticket: it copies
// each shard's block headers under its lock, decodes outside it, and
// k-way merges the ticket-ordered shards up to the first ticket gap.
func (j *Journal) Snapshot() *Log {
	lanes := make([]*lane, 0, len(j.shards))
	for i := range j.shards {
		s := &j.shards[i]
		s.mu.Lock()
		r := &lane{blocks: append(s.blocks[:len(s.blocks):len(s.blocks)], s.cur), e: Event{Proc: i}}
		s.mu.Unlock()
		if r.next() {
			lanes = append(lanes, r)
		}
	}
	// Every event read above drew its ticket before this load.
	events := make([]Event, 0, j.Len())
	for m := 0; len(lanes) > 0; {
		// Search from the lane just taken from: Send follows Issue.
		k := 0
		for ; k < len(lanes) && lanes[m].e.Seq != len(events); k++ {
			m = (m + 1) % len(lanes)
		}
		if k == len(lanes) {
			break // ticket gap: keep the causally-closed prefix
		}
		events = append(events, lanes[m].e)
		if !lanes[m].next() {
			lanes = append(lanes[:m], lanes[m+1:]...)
			m = 0
		}
	}
	l := NewLog(j.numProcs, j.numVars)
	l.Events = events
	l.ShareSets = j.shareSets
	return l
}

// lane decodes one shard's records in order into e. buf is the unread
// rest of the current block.
type lane struct {
	buf    []byte
	blocks [][]byte
	e      Event
}

// next decodes the lane's next record, reporting false at its end.
func (r *lane) next() bool {
	for len(r.buf) == 0 {
		if len(r.blocks) == 0 {
			return false
		}
		r.buf, r.blocks = r.blocks[0], r.blocks[1:]
	}
	h := r.buf[0]
	u, n := binary.Uvarint(r.buf[1:])
	r.buf = r.buf[1+n:]
	r.e.Kind, r.e.Buffered = EventKind(h&kindMask), h&flagBuffered != 0
	r.e.Seq += int(u)
	r.e.Time += r.varint()
	if h&flagSameWrite == 0 {
		r.e.Write = history.WriteID{Proc: int(r.varint()), Seq: int(r.varint())}
		r.e.Var, r.e.Val = int(r.varint()), r.varint()
	}
	r.e.From = history.Bottom
	if h&flagFrom != 0 {
		r.e.From = history.WriteID{Proc: int(r.varint()), Seq: int(r.varint())}
	}
	return true
}

func (r *lane) varint() int64 {
	v, n := binary.Varint(r.buf)
	r.buf = r.buf[n:]
	return v
}
