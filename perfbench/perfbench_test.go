package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

// small shrinks a workload to test size: enough warm-up points for the
// estimates to be scored, a short timed phase.
func small(w *workload) sizes {
	sz := w.sizes
	sz.series = 32
	if sz.anchors > 0 {
		sz.anchors = 8
	}
	sz.warmPoints = 2048
	sz.warmLines = 500
	if sz.period == 0 {
		sz.timedPoints = min(sz.timedPoints, 64)
		sz.traceExtra = 64
	}
	return sz
}

func bodies(w *workload, seed int64, n int) [][]byte {
	p := w.plan(seed, small(w))
	var out [][]byte
	p.replay(newPool(1000), 64, 0, false, func(_ []int, bs []*batch, _ bool) bool {
		for _, b := range bs {
			out = append(out, append([]byte(nil), b.body...))
		}
		return len(out) < n
	}, nil)
	return out
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, w := range workloads {
		a, b := bodies(w, 7, 200), bodies(w, 7, 200)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d vs %d batches", w.name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: batch %d differs between two plans of one seed", w.name, i)
			}
		}
		if c := bodies(w, 8, 1); bytes.Equal(a[0], c[0]) {
			t.Errorf("%s: seeds 7 and 8 gave the same first batch", w.name)
		}
	}
}

// exactCounts are the per-layer counts that must repeat exactly for one seed.
var exactCounts = []string{"tsdb.compacted_per_point", "tsdb.sealed_blocks_per_kpoint", "monitor.probes", "monitor.retunes"}

func TestSameSeedSameExactCounts(t *testing.T) {
	for _, w := range workloads {
		run := func() *traceRun {
			tr := &traceRun{w: w, seed: 3, sz: small(w), secs: 1, metrics: map[string]float64{}, info: map[string]any{}}
			tr.passB()
			if tr.led.failed != 0 {
				t.Fatalf("%s: %v", w.name, tr.led.notes)
			}
			return tr
		}
		a, b := run(), run()
		for _, k := range exactCounts {
			if a.metrics[k] != b.metrics[k] {
				t.Errorf("%s: %s = %v then %v", w.name, k, a.metrics[k], b.metrics[k])
			}
		}
		for _, k := range []string{"stored_bytes_per_point", "nyquist_err_median"} {
			if a.info[k] != b.info[k] {
				t.Errorf("%s: %s = %v then %v", w.name, k, a.info[k], b.info[k])
			}
		}
		if a.metrics["monitor.probes"] == 0 {
			t.Errorf("%s: no series locked its poll interval", w.name)
		}
	}
}

// TestWarmupCheckpointDeterministic runs the end-to-end warm-up over
// real HTTP against an in-process server twice: the checkpoint metrics
// depend only on the seed.
func TestWarmupCheckpointDeterministic(t *testing.T) {
	w := workloadByName("ingest-deep")
	run := func() map[string]float64 {
		srv := httptest.NewServer(api.NewServer(api.Config{}).Handler())
		defer srv.Close()
		addr := strings.TrimPrefix(srv.URL, "http://")
		e := &e2eRun{p: w.plan(5, small(w)), metrics: map[string]float64{}, info: map[string]any{}}
		c := newClient(addr)
		defer c.close()
		if _, err := e.warmup(addr, c); err != nil {
			t.Fatal(err)
		}
		if e.led.failed != 0 {
			t.Fatalf("warm-up failed checks: %v", e.led.notes)
		}
		return e.metrics
	}
	a, b := run(), run()
	for _, k := range []string{"stored_bytes_per_point", "nyquist_err_median"} {
		if a[k] != b[k] || a[k] == 0 {
			t.Errorf("%s = %v then %v", k, a[k], b[k])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "api.ingest", ID: 1, Start: 0, End: 100},
		{Name: "api.ingest", ID: 2, Start: 100, End: 150},
		{Name: "tsdb.append", ID: 1, Start: 200, End: 230},
		{Name: "monitor.observe", ID: 1, Start: 230, End: 270},
		{Name: "tsdb.append", ID: 2, Start: 400, End: 410},
		{Name: "tsdb.append", ID: 3, Start: 500, End: 900}, // no parent: ignored
	}
	got := selfTimes(spans, "api.ingest", "tsdb.append", "monitor.observe")
	want := map[int]int64{1: 30, 2: 40}
	if len(got) != len(want) || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	if total(got) != 70 {
		t.Fatalf("total = %d, want 70", total(got))
	}
}

func TestWindowStats(t *testing.T) {
	// 2.5 windows: two whole windows, the half window folds into the second.
	ops := []sample{
		{end: window / 10, ms: 1, n: 10}, {end: window * 9 / 10, ms: 3, n: 10},
		{end: window * 11 / 10, ms: 2, n: 10}, {end: window * 24 / 10, ms: 2, n: 20},
	}
	ws := windowStats(ops, window*5/2)
	if len(ws) != 2 {
		t.Fatalf("%d windows, want 2", len(ws))
	}
	perS := 20 / window.Seconds()
	if ws[0].points != 20 || ws[0].rate != perS || ws[0].p50 != 2 {
		t.Errorf("window 0 = %+v", ws[0])
	}
	if ws[1].points != 30 || ws[1].rate != perS || ws[1].busyRate != 500 {
		t.Errorf("window 1 = %+v", ws[1])
	}
}

func TestLeastStolen(t *testing.T) {
	ws := []winStat{{rate: 1, steal: 0.3}, {rate: 2}, {rate: 3, steal: 0.1}, {rate: 4}, {rate: 5, steal: 0.2}}
	got := leastStolen(ws)
	if len(got) != 2 || got[0].rate != 2 || got[1].rate != 4 {
		t.Errorf("leastStolen kept %+v, want the two slices without steal", got)
	}
	if got := leastStolen(ws[1:2]); len(got) != 1 {
		t.Errorf("leastStolen of one slice kept %d", len(got))
	}
}

func TestHistoryKept(t *testing.T) {
	before := []byte(`{"series":"a","points":[{"ts":"2024-01-01T00:00:00Z","value":1},{"ts":"2024-01-01T00:01:00Z","value":2},{"ts":"2024-01-01T00:02:00Z","value":3},{"ts":"2024-01-01T00:03:00Z","value":4}]}`)
	if k, err := historyKept(before, before); err != nil || k != 1 {
		t.Errorf("same answer: kept %v, err %v", k, err)
	}
	// The two oldest points come back re-cut: one moved, one lost.
	recut := []byte(`{"series":"a","points":[{"ts":"2024-01-01T00:00:30Z","value":1.5},{"ts":"2024-01-01T00:02:00Z","value":3},{"ts":"2024-01-01T00:03:00Z","value":4}]}`)
	if k, err := historyKept(before, recut); err != nil || k != 0.5 {
		t.Errorf("re-cut answer: kept %v, err %v, want 0.5", k, err)
	}
	changed := []byte(`{"series":"a","points":[{"ts":"2024-01-01T00:00:00Z","value":1},{"ts":"2024-01-01T00:03:00Z","value":4.5}]}`)
	if _, err := historyKept(before, changed); err == nil {
		t.Error("a changed newest point passed")
	}
	if _, err := historyKept(before, []byte(`{"series":"a","points":[]}`)); err == nil {
		t.Error("an empty answer passed")
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json to the metrics this program
// prints and to the benchmark file's charset and size limits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q", i, w.Name)
		}
	}
	if len(b.EndToEnd) != len(e2eDefs) || len(b.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program prints %d+%d", len(b.EndToEnd), len(b.PerLayer), len(e2eDefs), len(layerDefs))
	}
	for i, m := range b.EndToEnd {
		name(m.Name)
		d := e2eDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unitRE.MatchString(m.Unit) || !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end_to_end %d: %+v, program has %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		d := layerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer %d: %+v, program has %+v", i, m, d)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(raw) > 64<<10 {
		t.Errorf("run_seconds %d, %d bytes", b.RunSeconds, len(raw))
	}
}

// TestOpenLoopBesideReader runs the dashboard's fixed-rate pusher and
// its reader side by side against an in-process server: every batch and
// read must check out while both share the acknowledgement tracker.
func TestOpenLoopBesideReader(t *testing.T) {
	w := workloadByName("dashboard")
	srv := httptest.NewServer(api.NewServer(api.Config{}).Handler())
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	e := &e2eRun{p: w.plan(9, small(w)), metrics: map[string]float64{}, info: map[string]any{}}
	c := newClient(addr)
	defer c.close()
	if _, err := e.warmup(addr, c); err != nil {
		t.Fatal(err)
	}
	p := e.p
	p.startTimed(0)
	a := newAcked(p.timedSS)
	for _, s := range p.timedSS {
		a.n[s].Store(int64(p.sz.warmPoints))
	}
	timed, reads := newPhase(), newPhase()
	done := make(chan struct{})
	go func() {
		defer close(done)
		openLoop(addr, p.timed[0], p.sz.batchLines, p.sz.period, 500*time.Millisecond, a, &e.led, timed)
	}()
	e.dashReader(addr, 500*time.Millisecond, a, reads)
	<-done
	if e.led.failed != 0 {
		t.Fatalf("%d failed: %v", e.led.failed, e.led.notes)
	}
	if timed.accepted == 0 || len(reads.ops) == 0 {
		t.Fatalf("accepted %d points, %d reads", timed.accepted, len(reads.ops))
	}
}
