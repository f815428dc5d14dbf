package service

import (
	"testing"

	"repro/internal/protocol"
)

// TestDedupFloorBoundsSession completes many windows' worth of writes
// in one session and checks the session keeps at most window entries,
// an op below the floor is refused as too old, and an op inside the
// window still returns its cached response.
func TestDedupFloorBoundsSession(t *testing.T) {
	const window, sid = 8, 42
	d := newDedupTable(window, 4)
	const n = 10 * window
	for op := uint64(1); op <= n; op++ {
		if c := d.claim(sid, op); !c.owned {
			t.Fatalf("op %d: fresh claim not owned: %+v", op, c)
		}
		d.complete(sid, op, protocol.Response{Status: protocol.StatusOK, Val: int64(op)})
		if got := len(d.sessions[sid].entries); got > window {
			t.Fatalf("after op %d the session holds %d entries, window is %d", op, got, window)
		}
	}
	if c := d.claim(sid, n-window); !c.tooOld {
		t.Fatalf("op below the floor: got %+v, want tooOld", c)
	}
	c := d.claim(sid, n-1)
	if !c.cached || c.resp.Val != n-1 {
		t.Fatalf("op inside the window: got %+v, want cached value %d", c, n-1)
	}
}
