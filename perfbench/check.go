package main

import (
	"fmt"
	"sync/atomic"
)

// Every workload follows one discipline: each variable has a single
// writer, and its k-th write stores encode(x, k). A read value therefore
// names its variable and its place in the writer's sequence, so stale,
// invented and misrouted reads are all decidable without a history.

func encode(x int, k int64) int64 { return int64(x)<<32 | k }

func decode(v int64) (x int, k int64) { return int(v >> 32), v & (1<<32 - 1) }

// valueSpace tracks, per variable, how many writes its writer has
// issued; a read may return only one of those (or ⊥).
type valueSpace struct {
	issued []atomic.Int64
}

func newValueSpace(vars int) *valueSpace {
	return &valueSpace{issued: make([]atomic.Int64, vars)}
}

// next reserves the writer's next value for x. Only x's writer calls it.
func (vs *valueSpace) next(x int) int64 {
	return encode(x, vs.issued[x].Add(1))
}

// sessionCheck checks one session's reads online: every read returns ⊥
// or a value its variable's writer issued (validity), never less than the
// session's own last acknowledged write to it (read-your-writes), and
// never less than an earlier read of it (monotonic reads). Unlike
// conformance.Check it also decides validity, and it keeps O(variables)
// state instead of the whole operation trace of a run.
type sessionCheck struct {
	vs         *valueSpace
	floor      []int64 // per variable: newest k the session is entitled to
	violations int
	first      string
}

func newSessionCheck(vs *valueSpace) *sessionCheck {
	return &sessionCheck{vs: vs, floor: make([]int64, len(vs.issued))}
}

// wrote records an acknowledged write of v.
func (c *sessionCheck) wrote(v int64) {
	x, k := decode(v)
	if k > c.floor[x] {
		c.floor[x] = k
	}
}

// read checks a read of x that returned v; own marks x as written by
// this session, so a stale value breaks read-your-writes rather than
// monotonic reads.
func (c *sessionCheck) read(x int, v int64, own bool) {
	if v == 0 {
		if c.floor[x] > 0 {
			c.fail(staleKind(own), x, v)
		}
		return
	}
	vx, k := decode(v)
	if vx != x || k < 1 || k > c.vs.issued[x].Load() {
		c.fail("never-written value", x, v)
		return
	}
	if k < c.floor[x] {
		c.fail(staleKind(own), x, v)
		return
	}
	c.floor[x] = k
}

func staleKind(own bool) string {
	if own {
		return "read-your-writes"
	}
	return "monotonic-reads"
}

func (c *sessionCheck) fail(kind string, x int, v int64) {
	if c.violations == 0 {
		_, k := decode(v)
		c.first = fmt.Sprintf("%s: read of x%d returned %#x (k=%d), floor k=%d", kind, x, v, k, c.floor[x])
	}
	c.violations++
}

// checkFinal verifies that every replica holds each variable's last
// value: exactly the last acknowledged write when every write succeeded,
// otherwise something between it and the last issued one.
func checkFinal(read func(p, x int) (int64, error), procs, vars int, acked []int64, vs *valueSpace) error {
	for x := 0; x < vars; x++ {
		issued := vs.issued[x].Load()
		for p := 0; p < procs; p++ {
			v, err := read(p, x)
			if err != nil {
				return fmt.Errorf("final read p%d x%d: %w", p, x, err)
			}
			var k int64
			if v != 0 {
				var vx int
				if vx, k = decode(v); vx != x {
					return fmt.Errorf("p%d x%d holds x%d's value %#x", p, x, vx, v)
				}
			}
			if k < acked[x] || k > issued {
				return fmt.Errorf("p%d x%d holds k=%d, want acked %d ≤ k ≤ issued %d", p, x, k, acked[x], issued)
			}
		}
	}
	return nil
}
