package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/transport"
)

// serialLog is a trace.Sink that records events exactly as the old
// globally-locked Cluster log did: one at a time, in global order,
// Seq pre-assigned. The cluster invokes sinks under its serializing
// tee, so no internal locking is needed — which is itself part of the
// contract under test (-race would flag a violation).
type serialLog struct {
	log *trace.Log
}

func (s *serialLog) Record(e trace.Event) {
	if want := len(s.log.Events); e.Seq != want {
		panic("sink saw out-of-order event") // surfaces as a test failure
	}
	s.log.Events = append(s.log.Events, e)
}

// TestJournalMergeObservationallyIdentical runs a concurrent workload
// under every protocol kind and checks that the lazily-merged journal
// log is observationally identical to the same run recorded serially
// under a global order (the attached sink): identical event sequences,
// identical checker verdicts, identical stats.
func TestJournalMergeObservationallyIdentical(t *testing.T) {
	for _, kind := range protocol.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			sink := &serialLog{log: trace.NewLog(3, 2)}
			c, err := NewCluster(Config{
				Processes: 3, Variables: 2, Protocol: kind,
				FIFO: true, MaxDelay: 200 * time.Microsecond, Seed: int64(kind) + 1,
				TokenInterval: 200 * time.Microsecond,
				Sink:          sink,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			equivWorkload(t, c, []int{0, 1, 2}, 1)
			requireSerialIdentical(t, c, sink, kind.String())
		})
	}
}

// TestJournalMergeEveryEventKind extends the merge-identity check to
// the event kinds a fault-free run never records: the chaos stack's
// frame fates, crash/restart with the failure detector, and partial
// replication's forwarded reads. Each run must record every kind it
// targets.
func TestJournalMergeEveryEventKind(t *testing.T) {
	for _, run := range []struct {
		name  string
		cfg   Config
		wal   bool // restart needs a WAL directory
		drive func(t *testing.T, c *Cluster)
		kinds []trace.EventKind
	}{
		{
			name: "chaos",
			cfg: Config{
				Processes: 3, Variables: 2, Protocol: protocol.OptP,
				MaxDelay: 200 * time.Microsecond, Seed: 3,
				Chaos: transport.ChaosConfig{LossRate: 0.1, DupRate: 0.1, Seed: 3},
			},
			drive: func(t *testing.T, c *Cluster) { equivWorkload(t, c, []int{0, 1, 2}, 1) },
			kinds: []trace.EventKind{trace.NetDrop, trace.Retransmit, trace.DupDiscard},
		},
		{
			name: "crash-restart",
			cfg: Config{
				Processes: 3, Variables: 2, Protocol: protocol.OptP,
				MaxDelay: 200 * time.Microsecond, Seed: 5,
				HeartbeatInterval: time.Millisecond,
			},
			wal: true,
			drive: func(t *testing.T, c *Cluster) {
				const victim = 1
				equivWorkload(t, c, []int{0, 1, 2}, 1)
				if err := c.Crash(victim); err != nil {
					t.Fatalf("crash: %v", err)
				}
				equivWorkload(t, c, []int{0, 2}, 1000)
				awaitEvent(t, c, trace.Suspect)
				if _, err := c.Restart(victim); err != nil {
					t.Fatalf("restart: %v", err)
				}
				equivWorkload(t, c, []int{0, 1, 2}, 2000)
				awaitEvent(t, c, trace.Alive)
			},
			kinds: []trace.EventKind{trace.Crash, trace.Recover, trace.Suspect, trace.Alive},
		},
		{
			name: "partial",
			cfg: Config{
				Processes: 4, Variables: 4, Protocol: protocol.PartialRep,
				ShareSets: protocol.Modulo(4, 4, 2).Raw(),
				MaxDelay:  200 * time.Microsecond, Seed: 7,
			},
			drive: func(t *testing.T, c *Cluster) { equivWorkload(t, c, []int{0, 1, 2, 3}, 1) },
			kinds: []trace.EventKind{trace.ReadFwd, trace.ReadServe},
		},
	} {
		run := run
		t.Run(run.name, func(t *testing.T) {
			t.Parallel()
			sink := &serialLog{log: trace.NewLog(run.cfg.Processes, run.cfg.Variables)}
			cfg := run.cfg
			cfg.Sink = sink
			if run.wal {
				cfg.WALDir = t.TempDir()
			}
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			run.drive(t, c)
			merged := requireSerialIdentical(t, c, sink, cfg.Protocol.String())
			for _, k := range run.kinds {
				n := 0
				for _, e := range merged.Events {
					if e.Kind == k {
						n++
					}
				}
				if n == 0 {
					t.Errorf("run recorded no %v events", k)
				}
			}
		})
	}
}

// equivWorkload has each of procs write 40 times over the cluster's
// variables and read after every third write; values start at base so
// later phases of one run write fresh values.
func equivWorkload(t *testing.T, c *Cluster, procs []int, base int) {
	t.Helper()
	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			vars := c.Variables()
			for i := 1; i <= 40; i++ {
				if err := c.WriteAt(p, i%vars, int64(p*100000+base+i)); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if _, err := c.ReadAt(p, (i+1)%vars); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
}

// awaitEvent waits until the journal holds an event of kind k.
func awaitEvent(t *testing.T, c *Cluster, k trace.EventKind) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, e := range c.Log().Events {
			if e.Kind == k {
				return
			}
		}
	}
	t.Fatalf("no %v event within 10s", k)
}

// requireSerialIdentical quiesces and closes c, then requires its
// merged journal to equal the serially recorded sink stream event for
// event, with identical checker verdicts and stats. It returns the
// merged log.
func requireSerialIdentical(t *testing.T, c *Cluster, sink *serialLog, name string) *trace.Log {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	// Stop the token loop, the detector and the transport before
	// reading the sink: WS-send keeps announcing empty token rounds
	// after quiescence, and those marker events would race the reads
	// below (Close is idempotent with the deferred one).
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	merged := c.Log()
	serial := sink.log
	if len(merged.Events) != len(serial.Events) {
		t.Fatalf("merged log has %d events, serial recording %d",
			len(merged.Events), len(serial.Events))
	}
	for i := range merged.Events {
		if merged.Events[i] != serial.Events[i] {
			t.Fatalf("event %d differs:\nmerged: %+v\nserial: %+v",
				i, merged.Events[i], serial.Events[i])
		}
	}
	// The sink never sees the share-set assignment; the audit needs it.
	serial.ShareSets = merged.ShareSets

	mRep, err := checker.Audit(merged)
	if err != nil {
		t.Fatalf("audit of merged log: %v", err)
	}
	sRep, err := checker.Audit(serial)
	if err != nil {
		t.Fatalf("audit of serial log: %v", err)
	}
	if !mRep.Safe() || !mRep.CausallyConsistent() || !mRep.ExactlyOnce() {
		t.Fatalf("merged log fails audit:\n%v", mRep)
	}
	if mRep.String() != sRep.String() {
		t.Fatalf("verdicts differ:\nmerged:\n%v\nserial:\n%v", mRep, sRep)
	}
	if m, s := merged.Stats(name), serial.Stats(name); m != s {
		t.Fatalf("stats differ:\nmerged: %+v\nserial: %+v", m, s)
	}
	return merged
}

// TestCloseVsWrite regression-tests the lock-free closed flag: Close
// racing a storm of writers and readers must neither deadlock nor
// panic, operations after Close must report ErrClosed, and Close must
// stay idempotent.
func TestCloseVsWrite(t *testing.T) {
	c, err := NewCluster(Config{Processes: 4, Variables: 2, FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			<-start
			for i := 1; ; i++ {
				if err := c.WriteAt(p, i%2, int64(i)); err != nil {
					return // ErrClosed ends the storm
				}
				if _, err := c.ReadAt(p, i%2); err != nil {
					return
				}
			}
		}(p)
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if err := c.WriteAt(0, 0, 1); err != ErrClosed {
		t.Fatalf("write after close: got %v, want ErrClosed", err)
	}
	if _, err := c.ReadAt(0, 0); err != ErrClosed {
		t.Fatalf("read after close: got %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
