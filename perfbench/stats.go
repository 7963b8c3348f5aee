package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricDef is one reported metric. The lists below are the benchmark's
// contract: BENCHMARK.json names exactly these, and a test holds the two
// equal.
type metricDef struct {
	name   string
	unit   string
	better string
}

// e2eDefs are the end-to-end metrics, printed on every untraced run.
var e2eDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"ingest_points_per_s", "1/s", "higher"},
	{"ingest_cpu_us_per_point", "us", "lower"},
	{"ingest_p50_ms", "ms", "lower"},
	{"ingest_p90_ms", "ms", "lower"},
	{"query_per_s", "1/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p90_ms", "ms", "lower"},
	{"rss_bytes_per_series", "bytes", "lower"},
	{"stored_bytes_per_point", "bytes", "lower"},
	{"wal_bytes_per_point", "bytes", "lower"},
	{"recover_s", "s", "lower"},
	{"restart_history_kept", "ratio", "higher"},
	{"nyquist_err_median", "ratio", "lower"},
}

// layerDefs are the per-layer metrics, printed on every traced run.
var layerDefs = []metricDef{
	{"api.ingest_self_ns_per_point", "ns", "lower"},
	{"api.query_self_us_p50", "us", "lower"},
	{"api.query_self_us_p99", "us", "lower"},
	{"api.query_response_bytes", "bytes", "lower"},
	{"tsdb.append_ns_per_point", "ns", "lower"},
	{"tsdb.compacted_per_point", "ratio", "lower"},
	{"tsdb.sealed_blocks_per_kpoint", "count", "lower"},
	{"tsdb.heap_bytes_per_series", "bytes", "lower"},
	{"tsdb.query_us_p50", "us", "lower"},
	{"tsdb.query_us_p99", "us", "lower"},
	{"tsdb.match_us_p50", "us", "lower"},
	{"tsdb.match_us_p99", "us", "lower"},
	{"tsdb.cache_hit_ratio", "ratio", "higher"},
	{"tsdb.cache_lookups", "count", "higher"},
	{"tsdb.cache_evictions_per_query", "count", "lower"},
	{"monitor.observe_ns_per_point", "ns", "lower"},
	{"monitor.heap_bytes_per_series", "bytes", "lower"},
	{"monitor.probes", "count", "higher"},
	{"monitor.retunes", "count", "higher"},
	{"monitor.estimated_ratio", "ratio", "higher"},
	{"wal.seal_hook_ns_per_point", "ns", "lower"},
	{"wal.records_per_kpoint", "count", "lower"},
	{"wal.sync_ms_p50", "ms", "lower"},
	{"wal.sync_ms_p99", "ms", "lower"},
	{"wal.replay_points_per_s", "1/s", "higher"},
	{"wal.errors", "count", "lower"},
	{"gen.lag_p99_ms", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// window is the length of the stretches a timed phase is cut into. A
// phase's timing metrics are medians over its windows, so a burst of
// interference from outside the benchmark moves one window, not the
// result.
const window = 500 * time.Millisecond

// sample is one timed operation: when it finished (from the phase
// start), how long it took, and how many points it carried.
type sample struct {
	end time.Duration
	ms  float64
	n   int64
}

// winStat summarizes one slice of a phase: a window of an open loop or
// a round of a closed loop.
type winStat struct {
	points        int64
	rate          float64 // points per second of slice
	busyRate      float64 // operations per second spent waiting on them
	p50, p90, p99 float64 // operation latency, ms
	cpuUs         float64 // daemon CPU µs per point (ingest slices)
	steal         float64 // share of the VM's CPU time the host stole
}

// windowStats cuts a phase of length dur into whole windows — the
// trailing partial window folds into the last whole one — and
// summarizes each; a window without operations has ops == nil.
func windowStats(ops []sample, dur time.Duration) []winStat {
	nw := max(int(dur/window), 1)
	groups := make([][]sample, nw)
	for _, o := range ops {
		i := min(int(o.end/window), nw-1)
		groups[i] = append(groups[i], o)
	}
	out := make([]winStat, nw)
	for i, g := range groups {
		span := window
		if i == nw-1 {
			span = dur - time.Duration(nw-1)*window
		}
		if len(g) > 0 {
			out[i] = statOf(g, span)
		}
	}
	return out
}

// statOf summarizes the operations of one stretch of length span.
func statOf(ops []sample, span time.Duration) winStat {
	var w winStat
	lat := make([]float64, len(ops))
	busy := 0.0
	for j, o := range ops {
		w.points += o.n
		lat[j] = o.ms
		busy += o.ms
	}
	w.rate = float64(w.points) / span.Seconds()
	w.busyRate = float64(len(ops)) / (busy / 1e3)
	w.p50, w.p90, w.p99 = quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)
	return w
}

// leastStolen keeps the slices during which the host stole no more of
// the VM's CPU time than in the first quartile of the run's slices.
// Steal is time the hypervisor ran something else while this VM wanted
// the CPU: it stretches every wall-clock figure of the slice whatever the
// program does. Without steal (bare metal) every slice is kept.
func leastStolen(ws []winStat) []winStat {
	q := quantile(field(ws, func(w winStat) float64 { return w.steal }), 0.25)
	var out []winStat
	for _, w := range ws {
		if w.steal <= q {
			out = append(out, w)
		}
	}
	return out
}

// timings is each timing metric's figure per slice, from the ingest and
// read slices of a timed phase.
func timings(ing, rd []winStat) map[string][]float64 {
	return map[string][]float64{
		"ingest_points_per_s":     field(ing, func(w winStat) float64 { return w.rate }),
		"ingest_cpu_us_per_point": field(ing, func(w winStat) float64 { return w.cpuUs }),
		"ingest_p50_ms":           field(ing, func(w winStat) float64 { return w.p50 }),
		"ingest_p90_ms":           field(ing, func(w winStat) float64 { return w.p90 }),
		"query_per_s":             field(rd, func(w winStat) float64 { return w.busyRate }),
		"query_p50_ms":            field(rd, func(w winStat) float64 { return w.p50 }),
		"query_p90_ms":            field(rd, func(w winStat) float64 { return w.p90 }),
	}
}

// hostTicks reads the VM's CPU time from the first line of /proc/stat:
// ticks stolen by the host, and all ticks (user, nice, system, idle,
// iowait, irq, softirq, steal).
func hostTicks() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealShare is the share of ticks stolen between two hostTicks reads.
func stealShare(s0, t0, s1, t1 int64) float64 {
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}

func field(ws []winStat, f func(winStat) float64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = f(w)
	}
	return out
}

// ledger counts attempted and failed operations across all phases: a
// line sent, a read issued and a check made each count once; a line the
// daemon rejected, a request that failed and a check that did not hold
// each count as failed.
type ledger struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	notes     []string
}

func (l *ledger) add(attempted, failed int64) {
	l.mu.Lock()
	l.attempted += attempted
	l.failed += failed
	l.mu.Unlock()
}

// check counts one check and records why it failed.
func (l *ledger) check(ok bool, format string, args ...any) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if !ok {
		l.failed++
		if len(l.notes) < 20 {
			l.notes = append(l.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// fail counts n failed operations that were already counted as attempted.
func (l *ledger) fail(n int64, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed += n
	if len(l.notes) < 20 {
		l.notes = append(l.notes, fmt.Sprintf(format, args...))
	}
}
