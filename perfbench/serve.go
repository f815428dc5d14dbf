package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/durability"
	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/vclock"
)

const (
	wlWrite     = "serve-write"
	wlRead      = "serve-read"
	wlWriteHome = "serve-write-home"
	wlReadHome  = "serve-read-home"
	wlReorder   = "replicate-reorder"
	wlDurable   = "serve-durable"
)

// The serve workloads run OptP on 3 replicas with 256 variables over
// FIFO in-process links, behind a default service.Config.
const serveProcs, serveVars = 3, 256

// serveSpec shapes one serve workload. Session i is the single writer of
// variable i.
type serveSpec struct {
	conns, sessPerConn int
	readPct            int     // share of ops that are reads, in percent
	rate               float64 // open loop: offered ops/s; 0 means closed loop
	pin                bool    // pin op k of session s to replica (s+k)%3
	home               bool    // pin every write of session s to its home replica s%3
	wal                bool    // WALDir set, WALSync off (the dsmd -wal-dir default)
	opsPerRound        int     // >0: each round runs this many ops, not a duration
}

// serve-write and serve-read move a session's writes between replicas;
// their -home variants issue every write of a session at one replica and
// route reads as before (see README.md, "Known defect"). serve-write-home
// offers a fixed rate below the write path's capacity, since a closed
// loop's throughput follows the shared host's speed phases.
var serveSpecs = map[string]serveSpec{
	wlWrite:     {conns: 2, sessPerConn: 32, readPct: 25},
	wlRead:      {conns: 2, sessPerConn: 64, readPct: 90, rate: 20000, pin: true},
	wlWriteHome: {conns: 2, sessPerConn: 32, readPct: 25, rate: 10000, home: true},
	wlReadHome:  {conns: 2, sessPerConn: 64, readPct: 90, rate: 10000, pin: true, home: true},
	wlDurable:   {conns: 2, sessPerConn: 32, readPct: 25, home: true, wal: true, opsPerRound: 64 * 600},
}

// roundResult is one round's measurements. A round builds a fresh
// system, measures it, checks its outputs and tears it down.
type roundResult struct {
	setup   time.Duration
	elapsed time.Duration
	ops     int64 // completed ops (writes applied everywhere, on replicate-reorder)
	failed  int64
	wlat    []int64 // ns
	rlat    []int64 // ns
	heap    float64 // live-heap growth per op, bytes
	cpu     float64 // user+sys per op, µs
	layers  layers  // traced rounds only
	wrong   error   // the round's first failed output check
}

func (r *roundResult) attempted() int64 { return r.ops + r.failed }

// rate is the round's completed ops per timed second.
func (r *roundResult) rate() float64 { return float64(r.ops) / r.elapsed.Seconds() }

// fail records a failed output check; the round still finishes and
// reports its measurements, but the run is not correct.
func (r *roundResult) fail(err error) {
	if r.wrong == nil {
		r.wrong = err
	}
}

// connCounts counts the server side of every client connection.
type connCounts struct {
	writes, reads, bytesOut, bytesIn atomic.Int64
}

type countingListener struct {
	net.Listener
	c *connCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *connCounts
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.reads.Add(1)
	c.c.bytesIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.c.writes.Add(1)
	c.c.bytesOut.Add(int64(n))
	return n, err
}

// benchSession is one client session and its online checks.
type benchSession struct {
	idx   int // also the variable it writes
	cs    *client.Session
	rng   *rand.Rand
	check *sessionCheck
	acked int64 // k of the last acknowledged write
	wlat  []int64
	rlat  []int64
	late  []int64 // open loop: send time minus due time, ns
	ok    int64
	fail  int64
	wire  []wireSample
}

// wireSample is one captured request/response pair for codec replay.
type wireSample struct {
	req  protocol.Request
	resp protocol.Response
}

// serveEnv is one round's live stack.
type serveEnv struct {
	spec     serveSpec
	traced   bool
	cl       *core.Cluster
	srv      *service.Server
	clients  []*client.Client
	sessions []*benchSession
	vs       *valueSpace
	counts   connCounts
	reg      *obs.Registry // server metrics (traced)
	creg     *obs.Registry // client metrics (traced)
	walDir   string
	vis      *visibility
}

func newServeEnv(spec serveSpec, seed int64, round int, traced bool, dir string) (*serveEnv, error) {
	e := &serveEnv{spec: spec, traced: traced, vs: newValueSpace(serveVars), vis: &visibility{stop: make(chan struct{})}}
	ccfg := core.Config{Processes: serveProcs, Variables: serveVars, Protocol: protocol.OptP, FIFO: true, Seed: seed}
	if spec.wal {
		e.walDir = filepath.Join(dir, fmt.Sprintf("wal-%d", round))
		ccfg.WALDir = e.walDir
	}
	var err error
	if e.cl, err = core.NewCluster(ccfg); err != nil {
		e.close()
		return nil, err
	}
	scfg := service.Config{Cluster: e.cl, WrapListener: func(l net.Listener) net.Listener {
		return countingListener{Listener: l, c: &e.counts}
	}}
	ccl := client.Config{}
	if traced {
		e.reg, e.creg = obs.NewRegistry(), obs.NewRegistry()
		scfg.Metrics = e.reg
		ccl.Metrics = e.creg
		ccl.TraceSample = 0.05
	}
	if e.srv, err = service.New(scfg); err != nil {
		e.close()
		return nil, err
	}
	ccl.Addr = e.srv.Addr()
	for i := 0; i < spec.conns; i++ {
		c, err := client.DialConfig(ccl)
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, c)
		for j := 0; j < spec.sessPerConn; j++ {
			idx := len(e.sessions)
			e.sessions = append(e.sessions, &benchSession{
				idx:   idx,
				cs:    c.Session(),
				rng:   rand.New(rand.NewSource(seed*1_000_003 + int64(round)*10_007 + int64(idx))),
				check: newSessionCheck(e.vs),
			})
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	close(e.vis.stop)
	e.vis.wg.Wait()
	for _, c := range e.clients {
		c.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.cl != nil {
		e.cl.Close()
	}
	if e.walDir != "" {
		os.RemoveAll(e.walDir)
	}
}

// step issues op k of session s, checks its result and records its
// latency measured from `from`.
func (e *serveEnv) step(s *benchSession, k int, from time.Time, tr *tracer, loopSpan, trace uint64) {
	read := s.rng.Intn(100) < e.spec.readPct
	switch {
	case e.spec.home && !read:
		s.cs.Use(s.idx % serveProcs)
	case e.spec.pin:
		s.cs.Use((s.idx + k) % serveProcs)
	case e.spec.home:
		s.cs.Use(-1)
	}
	x := s.idx
	if read && s.rng.Intn(4) != 0 { // one read in four checks read-your-writes
		x = s.rng.Intn(len(e.sessions) - 1)
		if x >= s.idx {
			x++
		}
	}
	capture := e.traced && k%8 == 0 && len(s.wire) < 512
	var before vclock.VC
	if capture {
		before = s.cs.Token()
	}
	ctx := context.Background() // the client's CallTimeout bounds every call
	start := time.Now()
	var v int64
	var err error
	if read {
		v, err = s.cs.Read(ctx, x)
	} else {
		v = e.vs.next(x)
		err = s.cs.Write(ctx, x, v)
	}
	end := time.Now()
	if err != nil {
		s.fail++
		return
	}
	s.ok++
	lat := end.Sub(from).Nanoseconds()
	name := "client.write"
	if read {
		name = "client.read"
		s.rlat = append(s.rlat, lat)
		s.check.read(x, v, x == s.idx)
	} else {
		s.wlat = append(s.wlat, lat)
		_, s.acked = decode(v)
		s.check.wrote(v)
	}
	if e.traced {
		if k%64 == 0 {
			tr.leaf(loopSpan, trace, name, start, end)
		}
		if !read && k%16 == 0 {
			e.vis.sample(e.cl, s.cs.Token(), end)
		}
		if capture {
			kind := protocol.ReqWrite
			if read {
				kind = protocol.ReqRead
			}
			after := s.cs.Token()
			s.wire = append(s.wire, wireSample{
				req:  protocol.Request{Tag: uint64(k), Kind: kind, Proc: -1, Var: x, Val: v, Token: before, SID: uint64(s.idx + 1), OpSeq: uint64(k + 1)},
				resp: protocol.Response{Tag: uint64(k), Status: protocol.StatusOK, Val: v, Token: after},
			})
		}
	}
}

// loop drives every session, closed or open loop, until the deadline
// (or, with quota > 0, until each session has issued quota ops).
func (e *serveEnv) loop(start, deadline time.Time, quota int, tr *tracer, loopSpan, trace uint64) {
	var wg sync.WaitGroup
	period := time.Duration(0)
	if e.spec.rate > 0 {
		period = time.Duration(float64(len(e.sessions)) / e.spec.rate * float64(time.Second))
	}
	for _, s := range e.sessions {
		wg.Add(1)
		go func(s *benchSession) {
			defer wg.Done()
			if period == 0 {
				for k := 0; quota > 0 && k < quota || quota == 0 && time.Now().Before(deadline); k++ {
					e.step(s, k, time.Now(), tr, loopSpan, trace)
				}
				return
			}
			phase := time.Duration(s.rng.Int63n(int64(period)))
			for k := 0; ; k++ {
				due := start.Add(phase + time.Duration(k)*period)
				if !due.Before(deadline) {
					return
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				s.late = append(s.late, time.Since(due).Nanoseconds())
				e.step(s, k, due, tr, loopSpan, trace)
			}
		}(s)
	}
	wg.Wait()
}

// visibility samples, for some acknowledged writes, the time until every
// replica's applied frontier dominates the writer's token. Closing stop
// ends the samplers still waiting.
type visibility struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	lat  []int64
	busy atomic.Int32
}

// maxVisWaiters bounds the concurrent visibility samplers.
const maxVisWaiters = 32

func (v *visibility) sample(cl *core.Cluster, tok vclock.VC, acked time.Time) {
	if v.busy.Add(1) > maxVisWaiters {
		v.busy.Add(-1)
		return
	}
	v.wg.Add(1)
	go func() {
		defer v.wg.Done()
		defer v.busy.Add(-1)
		for p := 0; p < cl.Processes(); p++ {
			n := cl.Node(p)
			for !n.FrontierDominates(tok) {
				ch, cancel := n.FrontierWait(tok)
				select {
				case <-ch:
					cancel()
				case <-v.stop:
					cancel()
					return
				}
			}
		}
		d := time.Since(acked).Nanoseconds()
		v.mu.Lock()
		v.lat = append(v.lat, d)
		v.mu.Unlock()
	}()
}

// serveRound runs one round of a serve workload.
func serveRound(name string, seed int64, round int, dur time.Duration, traced bool, tr *tracer, dir string) (*roundResult, error) {
	spec := serveSpecs[name]
	if !traced {
		tr = nil
	}
	trace := uint64(round + 1)
	roundSpan := tr.id()
	t0 := time.Now()
	e, err := newServeEnv(spec, seed, round, traced, dir)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer e.close()
	res := &roundResult{setup: time.Since(t0)}
	tr.leaf(roundSpan, trace, "setup", t0, t0.Add(res.setup))

	quota := 0
	if spec.opsPerRound > 0 {
		quota = spec.opsPerRound / len(e.sessions)
	}
	var gens0 []uint64
	if spec.wal {
		gens0 = walGens(e.walDir)
	}
	heap0 := liveHeap()
	u0 := readUsage()
	loopSpan := tr.id()
	start := time.Now()
	e.loop(start, start.Add(dur), quota, tr, loopSpan, trace)
	res.elapsed = time.Since(start)
	tr.add(loopSpan, roundSpan, trace, "loop", start, start.Add(res.elapsed))

	acked := make([]int64, serveVars)
	for _, s := range e.sessions {
		res.ops += s.ok
		res.failed += s.fail
		res.wlat = append(res.wlat, s.wlat...)
		res.rlat = append(res.rlat, s.rlat...)
		acked[s.idx] = s.acked
		if s.check.violations > 0 {
			res.fail(fmt.Errorf("session %d: %d session-guarantee violations, first: %s", s.idx, s.check.violations, s.check.first))
		}
	}
	if res.ops == 0 {
		return nil, errors.New("no op completed")
	}
	q0 := time.Now()
	if err := quiesce(e.cl); err != nil {
		res.fail(err)
		return res, nil
	}
	tr.leaf(roundSpan, trace, "core.Quiesce", q0, time.Now())
	u1 := readUsage()
	if h1 := liveHeap(); h1 > heap0 {
		res.heap = float64(h1-heap0) / float64(res.ops)
	}
	res.cpu = float64((u1.cpu - u0.cpu).Microseconds()) / float64(res.ops)

	c0 := time.Now()
	if err := checkFinal(e.cl.ReadAt, serveProcs, serveVars, acked, e.vs); err != nil {
		res.fail(fmt.Errorf("after quiesce: %w", err))
	}
	tr.leaf(roundSpan, trace, "check", c0, time.Now())

	if traced {
		res.layers = layers{}
		if err := e.serviceLayers(res); err != nil {
			return nil, err
		}
		runtimeLayers(res.layers, u0, u1, res.ops)
	}
	if spec.wal {
		if err := e.durableChecks(res, gens0, u0, u1, acked, tr, roundSpan, trace); err != nil {
			return nil, err
		}
	}
	if traced {
		if err := auditLayers(e.cl, res.layers, res.ops, tr, roundSpan, trace); err != nil {
			res.fail(err)
		}
	}
	tr.add(roundSpan, 0, trace, "round."+name, t0, time.Now())
	return res, nil
}

// quiesceTimeout bounds the wait for replication to settle.
const quiesceTimeout = time.Minute

func quiesce(cl *core.Cluster) error {
	ctx, cancel := context.WithTimeout(context.Background(), quiesceTimeout)
	defer cancel()
	return cl.Quiesce(ctx)
}

// serviceLayers fills the service, client, core-visibility, trace and
// wire-codec entries of a traced serve round.
func (e *serveEnv) serviceLayers(res *roundResult) error {
	l, ops := res.layers, float64(res.ops)
	l["service.conn_writes_per_op"] = float64(e.counts.writes.Load()) / ops
	l["service.conn_reads_per_op"] = float64(e.counts.reads.Load()) / ops
	l["service.bytes_out_per_op"] = float64(e.counts.bytesOut.Load()) / ops
	l["service.bytes_in_per_op"] = float64(e.counts.bytesIn.Load()) / ops
	st := e.srv.Trace()
	var serverNs int64
	for i, name := range serviceStages {
		h := st.StageHistogram(reqtrace.Stage(i))
		l["service.stage."+name+"_p50_us"] = float64(h.Quantile(0.5)) / 1e3
		l["service.stage."+name+"_p99_us"] = float64(h.Quantile(0.99)) / 1e3
		serverNs += h.Sum()
	}
	pl := obs.L("protocol", protocol.OptP.String())
	batches := e.reg.Counter("dsm_svc_write_batches_total", "", pl).Value()
	batched := e.reg.Counter("dsm_svc_batched_writes_total", "", pl).Value()
	l["service.batch_size_mean"] = ratio(float64(batched), float64(batches))
	l["service.coalesced_ratio"] = ratio(float64(e.reg.Counter("dsm_svc_coalesced_writes_total", "", pl).Value()), float64(batched))
	l["service.shed"] = float64(e.reg.Counter("dsm_svc_shed_total", "", pl).Value())
	l["service.frontier_timeouts"] = float64(e.reg.Counter("dsm_svc_frontier_timeouts_total", "", pl).Value())
	var callNs, awaitNs int64
	for _, c := range e.clients {
		callNs += c.Trace().TotalHistogram().Sum()
		awaitNs += c.Trace().StageHistogram(reqtrace.StageAwait).Sum()
	}
	l["service.unexplained_share"] = 1 - ratio(float64(serverNs), float64(callNs))
	l["client.await_share"] = ratio(float64(awaitNs), float64(callNs))
	l["client.write_p99_ms"] = percentile(res.wlat, 0.99) / 1e6
	l["client.read_p99_ms"] = percentile(res.rlat, 0.99) / 1e6
	l["client.retries"] = float64(e.creg.Counter("dsm_cli_retries_total", "").Value())
	l["client.reconnects"] = float64(e.creg.Counter("dsm_cli_reconnects_total", "").Value())
	l["bench.failed_ratio"] = float64(res.failed) / float64(res.attempted())

	e.vis.wg.Wait()
	if len(e.vis.lat) > 0 {
		l["core.visibility_p50_us"] = percentile(e.vis.lat, 0.5) / 1e3
		l["core.visibility_p90_us"] = percentile(e.vis.lat, 0.9) / 1e3
	}
	var late []int64
	var wire []wireSample
	for _, s := range e.sessions {
		late = append(late, s.late...)
		wire = append(wire, s.wire...)
	}
	if len(late) > 0 {
		l["bench.gen_late_p90_us"] = percentile(late, 0.9) / 1e3
	}
	if len(wire) == 0 {
		return nil
	}
	var err error
	l["protocol.wire_encode_ns"], l["protocol.wire_decode_ns"], err = replayWire(wire)
	return err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// durableChecks crash-stops and restarts one replica, checks that it
// converges with every acknowledged write present, and (traced) fills
// the durability ledger.
func (e *serveEnv) durableChecks(res *roundResult, gens0 []uint64, u0, u1 usage, acked []int64, tr *tracer, parent, trace uint64) error {
	gens1 := walGens(e.walDir)
	// The restart below may rotate segments away, so size them now.
	var size float64
	for i, g := range gens1 {
		size += float64(segSize(filepath.Join(e.walDir, fmt.Sprintf("node%d", i)), g))
	}
	var entries []durability.Entry
	var snap []byte
	if e.traced {
		var err error
		if snap, entries, err = durability.Recover(filepath.Join(e.walDir, "node0")); err != nil {
			return fmt.Errorf("recover node0 journal: %w", err)
		}
	}
	const victim = 1
	r0 := time.Now()
	if err := e.cl.Crash(victim); err != nil {
		return fmt.Errorf("crash p%d: %w", victim+1, err)
	}
	if _, err := e.cl.Restart(victim); err != nil {
		res.fail(fmt.Errorf("restart p%d: %w", victim+1, err))
		return nil
	}
	restart := time.Since(r0)
	tr.leaf(parent, trace, "core.CrashRestart", r0, r0.Add(restart))
	if err := quiesce(e.cl); err != nil {
		res.fail(fmt.Errorf("after restart of p%d: %w", victim+1, err))
		return nil
	}
	if err := checkFinal(e.cl.ReadAt, serveProcs, serveVars, acked, e.vs); err != nil {
		res.fail(fmt.Errorf("after restart of p%d: %w", victim+1, err))
	}
	if !e.traced {
		return nil
	}
	l, ops := res.layers, float64(res.ops)
	sockets := e.counts.bytesIn.Load() + e.counts.bytesOut.Load()
	if w := u1.wchar - u0.wchar; w > 0 {
		l["durability.bytes_written_per_op"] = float64(w-sockets) / ops
	}
	var rot float64
	for i := range gens1 {
		rot += float64(gens1[i] - gens0[i])
	}
	n := float64(len(gens1))
	l["durability.rotations_per_kop"] = rot / n / ops * 1000
	l["durability.segment_MB_final"] = size / n / 1e6
	l["durability.restart_ms"] = float64(restart.Microseconds()) / 1e3
	ns, err := replayWAL(filepath.Join(e.walDir, "replay"), snap, entries)
	if err != nil {
		return err
	}
	l["durability.append_ns"] = ns
	return nil
}

// walGens returns each replica's newest segment generation.
func walGens(dir string) []uint64 {
	var gens []uint64
	for p := 0; p < serveProcs; p++ {
		names, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("node%d", p), "seg-*.wal"))
		var g uint64
		for _, n := range names {
			var x uint64
			if _, err := fmt.Sscanf(filepath.Base(n), "seg-%08d.wal", &x); err == nil && x > g {
				g = x
			}
		}
		gens = append(gens, g)
	}
	return gens
}

func segSize(dir string, gen uint64) int64 {
	fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("seg-%08d.wal", gen)))
	if err != nil {
		return 0
	}
	return fi.Size()
}
