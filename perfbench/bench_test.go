package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/service"
)

// serveJittered starts a 3-replica OptP cluster with real propagation
// delay behind a server, and one client connection to it.
func serveJittered(t *testing.T) *client.Client {
	t.Helper()
	cl, err := core.NewCluster(core.Config{
		Processes: 3, Variables: 8, Protocol: protocol.OptP,
		MinDelay: 2 * time.Millisecond, MaxDelay: 8 * time.Millisecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	srv, err := service.New(service.Config{Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// writeThenReadElsewhere writes x at replica 0 and reads it back at
// replicas 1 and 2, feeding the session check, until it reports a
// violation or rounds run out.
func writeThenReadElsewhere(t *testing.T, s *client.Session, rounds int) *sessionCheck {
	t.Helper()
	const x = 3
	vs := newValueSpace(8)
	check := newSessionCheck(vs)
	ctx := context.Background()
	for i := 0; i < rounds && check.violations == 0; i++ {
		v := vs.next(x)
		if err := s.Use(0).Write(ctx, x, v); err != nil {
			t.Fatal(err)
		}
		check.wrote(v)
		for p := 1; p < 3; p++ {
			got, err := s.Use(p).Read(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			check.read(x, got, true)
		}
	}
	return check
}

// The session check must catch a token-less session on a jittered
// cluster, and pass the same access pattern with tokens.
func TestCheckCatchesNoTokenSession(t *testing.T) {
	c := serveJittered(t)
	if check := writeThenReadElsewhere(t, c.NoTokenSession(), 50); check.violations == 0 {
		t.Fatal("token-less session: no read-your-writes violation detected")
	} else {
		t.Log(check.first)
	}
	if check := writeThenReadElsewhere(t, c.Session(), 20); check.violations != 0 {
		t.Fatalf("token session: %s", check.first)
	}
}

func TestCheckCatchesNeverWrittenValue(t *testing.T) {
	vs := newValueSpace(8)
	for range 5 {
		vs.next(3)
	}
	for _, tc := range []struct {
		name string
		v    int64
		bad  bool
	}{
		{"bottom", 0, false},
		{"issued", encode(3, 2), false},
		{"newest", encode(3, 5), false},
		{"not yet issued", encode(3, 6), true},
		{"other variable's value", encode(4, 1), true},
		{"k zero", encode(3, 0) | 1<<40, true},
	} {
		c := newSessionCheck(vs)
		c.read(3, tc.v, false)
		if got := c.violations > 0; got != tc.bad {
			t.Errorf("%s (%#x): violation=%v, want %v", tc.name, tc.v, got, tc.bad)
		}
	}
	c := newSessionCheck(vs)
	c.read(3, encode(3, 4), false)
	if c.read(3, encode(3, 2), false); c.violations != 1 {
		t.Errorf("monotonic-reads: going back from k=4 to k=2 not caught")
	}
	c = newSessionCheck(vs)
	c.wrote(encode(3, 5))
	if c.read(3, 0, true); c.violations != 1 {
		t.Errorf("read-your-writes: ⊥ after own write not caught")
	}
}

// replicate-reorder's counts are a function of the seed alone.
func TestReorderDeterministic(t *testing.T) {
	const writes = 4000
	run := func(seed int64) (layers, reorderCounts) {
		r, c, err := reorderRound(seed, 0, writes, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.wrong != nil {
			t.Fatal(r.wrong)
		}
		return r.layers, c
	}
	l1, c1 := run(5)
	l2, c2 := run(5)
	if c1 != c2 {
		t.Fatalf("counts differ under one seed: %+v vs %+v", c1, c2)
	}
	for _, k := range []string{"protocol.delay_ratio", "transport.meta_bytes_per_update", "transport.msgs_per_write", "protocol.unnecessary_delays"} {
		if l1[k] != l2[k] {
			t.Errorf("%s differs under one seed: %v vs %v", k, l1[k], l2[k])
		}
	}
	if l1["protocol.delay_ratio"] == 0 {
		t.Error("no receipt was buffered: the reordering does not reach the pending buffer")
	}
	if l1["transport.msgs_per_write"] != reorderProcs-1 {
		t.Errorf("msgs_per_write = %v, want %d", l1["transport.msgs_per_write"], reorderProcs-1)
	}
}

// BENCHMARK.json names exactly the metrics the benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
	runnable := map[string]bool{}
	for _, w := range workloads {
		runnable[w] = true
	}
	for _, w := range doc.Workloads {
		if !runnable[w.Name] {
			t.Errorf("BENCHMARK.json workload %s is not one the benchmark runs", w.Name)
		}
		delete(runnable, w.Name) // a repeated name fails the next lookup
	}
}
