package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// replicate-reorder runs core with no service and no sockets: P=8
// replicas, 256 variables, OptP with the auto metadata codec, over a
// transport the benchmark owns. The transport holds every message and
// the benchmark goroutine delivers them in a seeded order, so receipt
// order — and every count derived from it — is a function of the seed.
const (
	reorderProcs  = 8
	reorderVars   = 256
	reorderWindow = 64 // each destination's queue is shuffled in blocks of this many
	reorderWrites = 24000
)

// holdNet is the benchmark's transport: Send queues, deliverBlock
// delivers a shuffled block of one destination's queue.
type holdNet struct {
	mu       sync.Mutex
	handlers []transport.Handler
	queues   [][]transport.Message
	rng      *rand.Rand
	sent     int64

	// Traced rounds time each handler call, sample the destination's
	// pending buffer after it, and capture what replay needs.
	timed      bool
	pending    func(d int) int
	recvNs     int64
	delivered  int64
	pendingSum int64
	pendingMax int
	links      [][]protocol.Update // sends to p0, per sender, in send order
	p0         []p0Event           // p0's inputs in the order it saw them
}

// p0Event is one input of replica p0: a local op or a receipt.
type p0Event struct {
	write, read bool
	x           int
	v           int64
	u           protocol.Update
}

func newHoldNet(seed int64) *holdNet {
	return &holdNet{
		handlers: make([]transport.Handler, reorderProcs),
		queues:   make([][]transport.Message, reorderProcs),
		rng:      rand.New(rand.NewSource(seed)),
	}
}

func (h *holdNet) Register(id int, fn transport.Handler) { h.handlers[id] = fn }

func (h *holdNet) Send(m transport.Message) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.queues[m.To] = append(h.queues[m.To], m)
	h.sent++
	if h.links != nil && m.To == 0 {
		h.links[m.From] = append(h.links[m.From], m.Update)
	}
}

// Flush delivers everything still held.
func (h *holdNet) Flush() {
	for d := range h.queues {
		for h.deliverBlock(d, 1) > 0 {
		}
	}
}

func (h *holdNet) Close() error { return nil }

// deliverBlock delivers up to reorderWindow messages from the head of
// d's queue in a seeded random order, once at least atLeast are queued. It
// returns how many it delivered. Displacement is bounded by the block.
func (h *holdNet) deliverBlock(d, atLeast int) int {
	h.mu.Lock()
	q := h.queues[d]
	if len(q) < atLeast || len(q) == 0 {
		h.mu.Unlock()
		return 0
	}
	n := len(q)
	if n > reorderWindow {
		n = reorderWindow
	}
	block := make([]transport.Message, n)
	copy(block, q[:n])
	h.queues[d] = q[:copy(q, q[n:])]
	h.rng.Shuffle(n, func(i, j int) { block[i], block[j] = block[j], block[i] })
	h.mu.Unlock()
	for _, m := range block {
		if d == 0 && h.p0 != nil {
			h.p0 = append(h.p0, p0Event{u: m.Update})
		}
		if h.timed {
			t := time.Now()
			h.handlers[d](m)
			h.recvNs += time.Since(t).Nanoseconds()
			n := h.pending(d)
			h.pendingSum += int64(n)
			h.pendingMax = max(h.pendingMax, n)
		} else {
			h.handlers[d](m)
		}
	}
	h.delivered += int64(n)
	return n
}

// reorderOp is one generated operation.
type reorderOp struct {
	p, x int
	read bool
}

// reorderInputs generates a round's ops from the seed: writes rotate
// across processes, every 4th op is a read, and process p writes only
// the variables x ≡ p (mod 8), so each variable has a single writer.
func reorderInputs(seed int64, writes int) []reorderOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]reorderOp, 0, writes+writes/3+1)
	for i, w := 0, 0; w < writes; i++ {
		if i%4 == 3 {
			ops = append(ops, reorderOp{p: (i / 4) % reorderProcs, x: rng.Intn(reorderVars), read: true})
			continue
		}
		p := w % reorderProcs
		ops = append(ops, reorderOp{p: p, x: p + reorderProcs*rng.Intn(reorderVars/reorderProcs)})
		w++
	}
	return ops
}

// reorderCounts are the round's exact counts; the same seed must repeat
// them.
type reorderCounts struct {
	sent, metaBytes, payloadBytes, frames uint64
}

// reorderRound runs one round of replicate-reorder.
func reorderRound(seed int64, round int, writes int, traced bool, tr *tracer) (*roundResult, reorderCounts, error) {
	if !traced {
		tr = nil
	}
	trace := uint64(round + 1)
	roundSpan := tr.id()
	t0 := time.Now()
	net := newHoldNet(seed)
	if traced {
		net.timed = true
		net.links = make([][]protocol.Update, reorderProcs)
		net.p0 = []p0Event{}
	}
	cl, err := core.NewCluster(core.Config{
		Processes: reorderProcs, Variables: reorderVars, Protocol: protocol.OptP,
		Meta: protocol.MetaAuto, Transport: net,
	})
	if err != nil {
		return nil, reorderCounts{}, fmt.Errorf("setup: %w", err)
	}
	defer cl.Close()
	net.pending = func(d int) int { return cl.Node(d).PendingUpdates() }
	ops := reorderInputs(seed, writes)
	vs := newValueSpace(reorderVars)
	checks := make([]*sessionCheck, reorderProcs)
	for p := range checks {
		checks[p] = newSessionCheck(vs)
	}
	res := &roundResult{setup: time.Since(t0)}
	tr.leaf(roundSpan, trace, "setup", t0, t0.Add(res.setup))
	res.wlat = make([]int64, 0, writes)
	res.rlat = make([]int64, 0, len(ops)-writes)

	heap0 := liveHeap()
	u0 := readUsage()
	loopSpan := tr.id()
	start := time.Now()
	for i, op := range ops {
		if op.read {
			a := time.Now()
			v, err := cl.ReadAt(op.p, op.x)
			b := time.Now()
			if err != nil {
				return nil, reorderCounts{}, fmt.Errorf("read p%d x%d: %w", op.p, op.x, err)
			}
			res.rlat = append(res.rlat, b.Sub(a).Nanoseconds())
			checks[op.p].read(op.x, v, op.x%reorderProcs == op.p)
			if op.p == 0 && net.p0 != nil {
				net.p0 = append(net.p0, p0Event{read: true, x: op.x})
			}
		} else {
			v := vs.next(op.x)
			a := time.Now()
			err := cl.WriteAt(op.p, op.x, v)
			b := time.Now()
			if err != nil {
				return nil, reorderCounts{}, fmt.Errorf("write p%d x%d: %w", op.p, op.x, err)
			}
			res.wlat = append(res.wlat, b.Sub(a).Nanoseconds())
			checks[op.p].wrote(v)
			if op.p == 0 && net.p0 != nil {
				net.p0 = append(net.p0, p0Event{write: true, x: op.x, v: v})
			}
			if traced && i%256 == 0 {
				tr.leaf(loopSpan, trace, "core.WriteAt", a, b)
			}
		}
		for d := 0; d < reorderProcs; d++ {
			net.deliverBlock(d, reorderWindow)
		}
	}
	q0 := time.Now()
	net.Flush()
	if err := quiesce(cl); err != nil {
		return nil, reorderCounts{}, err
	}
	end := time.Now()
	res.elapsed = end.Sub(start)
	tr.add(loopSpan, roundSpan, trace, "loop", start, q0)
	tr.leaf(roundSpan, trace, "drain+core.Quiesce", q0, end)
	u1 := readUsage()
	res.ops = int64(writes)
	if h1 := liveHeap(); h1 > heap0 {
		res.heap = float64(h1-heap0) / float64(writes)
	}
	res.cpu = float64((u1.cpu - u0.cpu).Microseconds()) / float64(writes)

	for p, c := range checks {
		if c.violations > 0 {
			res.fail(fmt.Errorf("p%d: %d read violations, first: %s", p+1, c.violations, c.first))
		}
	}
	acked := make([]int64, reorderVars)
	for x := range acked {
		acked[x] = vs.issued[x].Load()
	}
	if err := checkFinal(cl.ReadAt, reorderProcs, reorderVars, acked, vs); err != nil {
		res.fail(fmt.Errorf("replicas did not converge: %w", err))
	}
	if want := int64(writes) * (reorderProcs - 1); net.sent != want || net.delivered != want {
		res.fail(fmt.Errorf("sent %d, delivered %d messages, want %d", net.sent, net.delivered, want))
	}
	cs := cl.MetaCodec().Stats()
	counts := reorderCounts{sent: uint64(net.sent), metaBytes: cs.MetaBytes, payloadBytes: cs.PayloadBytes, frames: cs.Frames}

	if traced {
		l := layers{}
		res.layers = l
		l["core.receive_ns_per_msg"] = float64(net.recvNs) / float64(net.delivered)
		l["core.write_ns_p50"] = percentile(res.wlat, 0.5)
		l["core.pending_mean"] = float64(net.pendingSum) / float64(net.delivered)
		l["core.pending_max"] = float64(net.pendingMax)
		l["core.quiesce_ms"] = float64(end.Sub(q0).Microseconds()) / 1e3
		l["transport.msgs_per_write"] = float64(net.sent) / float64(writes)
		l["transport.meta_bytes_per_update"] = float64(cs.MetaBytes) / float64(cs.Frames)
		runtimeLayers(l, u0, u1, res.ops)
		if l["transport.wire_bytes_per_update"], l["transport.codec_ns_per_update"], err = replayCodec(net.links); err != nil {
			return nil, reorderCounts{}, err
		}
		if l["protocol.status_ns"], l["protocol.apply_ns"], err = replayReplica(net.p0); err != nil {
			return nil, reorderCounts{}, err
		}
		l["bench.failed_ratio"] = 0
		if err := auditLayers(cl, l, res.ops, tr, roundSpan, trace); err != nil {
			res.fail(err)
		}
	}
	tr.add(roundSpan, 0, trace, "round."+wlReorder, t0, time.Now())
	return res, counts, nil
}
