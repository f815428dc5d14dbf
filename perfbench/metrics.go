package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric; home is the workload that does
// the work a per-layer metric measures (see README.md).
type metricDef struct {
	name, unit, home string
}

// endToEnd is what a user of dsmd (or of core, on replicate-reorder)
// sees; every workload reports all of them.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "write_p50_ms", unit: "ms"},
	{name: "write_p90_ms", unit: "ms"},
	{name: "read_p50_ms", unit: "ms"},
	{name: "read_p90_ms", unit: "ms"},
	{name: "heap_B_per_op", unit: "B"},
}

var serviceStages = []string{"admission", "dedup", "frontier_wait", "batch_queue", "apply", "respond"}

// perLayer is the traced run's ledger.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"service.conn_writes_per_op", "count", wlWriteHome},
		{"service.conn_reads_per_op", "count", wlWriteHome},
		{"service.bytes_out_per_op", "B", wlWriteHome},
		{"service.bytes_in_per_op", "B", wlWriteHome},
	}
	for _, s := range serviceStages {
		home := wlWriteHome
		if s == "frontier_wait" {
			home = wlReadHome
		}
		d = append(d,
			metricDef{"service.stage." + s + "_p50_us", "us", home},
			metricDef{"service.stage." + s + "_p99_us", "us", home})
	}
	return append(d, []metricDef{
		{"service.batch_size_mean", "count", wlWriteHome},
		{"service.coalesced_ratio", "ratio", wlWriteHome},
		{"service.shed", "count", wlWriteHome},
		{"service.frontier_timeouts", "count", wlWriteHome},
		{"service.unexplained_share", "ratio", wlWriteHome},
		{"client.write_p99_ms", "ms", wlWriteHome},
		{"client.read_p99_ms", "ms", wlWriteHome},
		{"client.await_share", "ratio", wlWriteHome},
		{"client.retries", "count", wlWriteHome},
		{"client.reconnects", "count", wlWriteHome},
		{"core.visibility_p50_us", "us", wlReadHome},
		{"core.visibility_p90_us", "us", wlReadHome},
		{"core.receive_ns_per_msg", "ns", wlReorder},
		{"core.write_ns_p50", "ns", wlReorder},
		{"core.pending_mean", "count", wlReorder},
		{"core.pending_max", "count", wlReorder},
		{"core.quiesce_ms", "ms", wlReorder},
		{"protocol.delay_ratio", "ratio", wlReorder},
		{"protocol.unnecessary_delays", "count", wlReorder},
		{"protocol.status_ns", "ns", wlReorder},
		{"protocol.apply_ns", "ns", wlReorder},
		{"protocol.wire_encode_ns", "ns", wlWriteHome},
		{"protocol.wire_decode_ns", "ns", wlWriteHome},
		{"transport.msgs_per_write", "count", wlReorder},
		{"transport.meta_bytes_per_update", "B", wlReorder},
		{"transport.wire_bytes_per_update", "B", wlReorder},
		{"transport.codec_ns_per_update", "ns", wlReorder},
		{"trace.events_per_op", "count", wlWriteHome},
		{"durability.bytes_written_per_op", "B", wlDurable},
		{"durability.rotations_per_kop", "count", wlDurable},
		{"durability.segment_MB_final", "MB", wlDurable},
		{"durability.append_ns", "ns", wlDurable},
		{"durability.restart_ms", "ms", wlDurable},
		{"checker.audit_s", "s", wlWriteHome},
		{"checker.audit_ns_per_event", "ns", wlWriteHome},
		{"checker.safe", "bool", wlWriteHome},
		{"checker.causally_consistent", "bool", wlWriteHome},
		{"checker.exactly_once", "bool", wlWriteHome},
		{"checker.in_p", "bool", wlWriteHome},
		{"runtime.alloc_B_per_op", "B", wlWriteHome},
		{"runtime.allocs_per_op", "count", wlWriteHome},
		{"runtime.gc_per_kop", "count", wlWriteHome},
		{"runtime.cpu_us_per_op", "us", wlWriteHome},
		{"obs.trace_overhead", "ratio", wlWriteHome},
		{"bench.gen_late_p90_us", "us", wlReadHome},
		{"bench.failed_ratio", "ratio", wlWriteHome},
	}...)
}()

// layers collects per-layer metric values by name.
type layers map[string]float64

// percentile returns the q-quantile (0..1) of xs by nearest rank,
// sorting xs in place.
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return float64(xs[min(max(i, 0), len(xs)-1)])
}

// quantile returns the q-quantile (0..1) of xs by nearest rank, sorting a
// copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median returns the median of xs (sorting a copy).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
	gcs     uint32
	wchar   int64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
		wchar:   procIOWchar(),
	}
}

// procIOWchar reads the bytes this process has passed to write(2) so far
// (sockets and files alike), or 0 where /proc is unavailable.
func procIOWchar() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("wchar: ")); ok {
			n, _ := strconv.ParseInt(string(v), 10, 64)
			return n
		}
	}
	return 0
}

// liveHeap forces a collection and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runtimeLayers derives the runtime.* ledger entries from two snapshots.
func runtimeLayers(l layers, u0, u1 usage, ops int64) {
	l["runtime.alloc_B_per_op"] = float64(u1.alloc-u0.alloc) / float64(ops)
	l["runtime.allocs_per_op"] = float64(u1.mallocs-u0.mallocs) / float64(ops)
	l["runtime.gc_per_kop"] = float64(u1.gcs-u0.gcs) / float64(ops) * 1000
	l["runtime.cpu_us_per_op"] = float64((u1.cpu - u0.cpu).Microseconds()) / float64(ops)
}

// span is one traced interval the benchmark recorded around a call into
// a layer. Spans of one round share Trace; Parent links a span to the
// span that caused it.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Trace   uint64 `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer; later spans are counted
// but dropped.
const maxSpans = 1 << 18

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call it.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	next    uint64
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID so children can name their parent before the
// parent ends.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records span id (from t.id) over [start, end).
func (t *tracer) add(id, parent, trace uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
}

// leaf records a span with no children.
func (t *tracer) leaf(parent, trace uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(t.id(), parent, trace, name, start, end)
}

// write dumps the spans as JSON Lines.
func (t *tracer) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
