package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/monitor"
	"repro/internal/series"
	"repro/internal/tsdb"
	"repro/internal/wal"
)

// The traced run feeds the workload's generated batches through each
// layer's public entry point in this process, recording a span around
// every call it makes. Spans are kept in memory and written out when
// the run ends. Layers are replayed on fresh stacks so one layer's
// span never contains another's:
//
//	U  api.Server handler, untraced        → trace.overhead_ratio
//	T  api.Server handler, traced          → api.* and gen.lag
//	B  Store.AppendBatch + ObserveRun      → tsdb.*, monitor.*
//	D  B with wal.Open'd seal hook         → wal.*
//
// A layer's self time is its span minus its children's spans with the
// same id: api.ingest minus tsdb.append and monitor.observe of the same
// batch, api.query minus the store time of the same request.

// span is one timed call. Spans of one batch or request share an id.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans relative to one origin. Not safe for concurrent
// use; concurrent callers each keep their own and merge.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(name string, id int, parent string, start, end int64) {
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end})
}

// durs sums the duration of every span named name, per id.
func durs(spans []span, name string) map[int]int64 {
	out := map[int]int64{}
	for _, s := range spans {
		if s.Name == name {
			out[s.ID] += s.dur()
		}
	}
	return out
}

// selfTimes is, per id of a parent span, its duration minus the
// durations of the named child spans with the same id.
func selfTimes(spans []span, parent string, children ...string) map[int]int64 {
	self := durs(spans, parent)
	for _, c := range children {
		for id, d := range durs(spans, c) {
			if _, ok := self[id]; ok {
				self[id] -= d
			}
		}
	}
	return self
}

func total(m map[int]int64) (sum int64) {
	for _, v := range m {
		sum += v
	}
	return sum
}

func usValues(m map[int]int64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, float64(v)/1e3)
	}
	return out
}

// stack is one fresh serving stack at the daemon's default flags.
type stack struct {
	store *monitor.Store
	est   *monitor.IngestEstimator
}

func newStack() *stack {
	st := api.DefaultStore()
	return &stack{store: st, est: monitor.NewIngestEstimator(st, monitor.IngestConfig{
		WindowSamples: 256, EmitEvery: 8, MaxSeries: 1_000_000, EvictAfter: -1,
	})}
}

// chunkBatches is how many batches are generated ahead of each timed
// stretch, so input generation stays outside every measured interval.
const chunkBatches = 64

// replay generates the plan's ingest batches in order — warm-up, then
// the traced timed phase (at most timedBatches batches; 0 = until the
// streams end, negative = none) — and hands them to fn a chunk at a time
// until fn returns false.
// Pushers' streams interleave batch by batch. lag receives each batch's
// generation time, a closed-loop generator's delay before sending.
func (p *plan) replay(pool []*batch, extra, timedBatches int, withPoints bool, fn func(ids []int, bs []*batch, timed bool) bool, lag *[]float64) {
	id := 0
	more := true
	run := func(streams []*stream, lines, limit int, timed bool) {
		sent := 0
		for live := true; more && live && (limit == 0 || sent < limit); {
			var ids []int
			var bs []*batch
			live = false
			for len(bs) < chunkBatches && (limit == 0 || sent < limit) {
				progressed := false
				for _, st := range streams {
					if len(bs) == chunkBatches || (limit > 0 && sent == limit) {
						break
					}
					b := pool[len(bs)]
					g0 := time.Now()
					if st.fill(b, lines, withPoints) == 0 {
						continue
					}
					if lag != nil {
						*lag = append(*lag, msSince(g0))
					}
					bs = append(bs, b)
					ids = append(ids, id)
					id++
					sent++
					progressed = true
				}
				if !progressed {
					break
				}
				live = true
			}
			if len(bs) > 0 {
				more = fn(ids, bs, timed)
			}
		}
	}
	run(p.warm, p.sz.warmLines, 0, false)
	p.startTimed(extra)
	if timedBatches >= 0 {
		run(p.timed, p.sz.batchLines, timedBatches, true)
	}
}

// newPool preallocates one chunk of batches, so buffers grown during a
// replay do not count toward the heap a pass measures.
func newPool(lines int) []*batch {
	pool := make([]*batch, chunkBatches)
	for i := range pool {
		pool[i] = &batch{body: make([]byte, 0, lines*96), pts: make([]tsdb.BatchPoint, 0, lines)}
	}
	return pool
}

// traceRun holds one traced run's inputs and findings.
type traceRun struct {
	w       *workload
	seed    int64
	sz      sizes
	secs    int
	work    string
	led     ledger
	metrics map[string]float64
	info    map[string]any
	spans   []span
	points  int64
	reads   []readReq // the reads pass T issued, replayed against the store in pass B
}

func (tr *traceRun) plan() *plan { return tr.w.plan(tr.seed, tr.sz) }

// timedBatches is how many timed-phase batches the traced run replays:
// open loop, the fixed rate for the run's length; closed loop, the
// workload's traced stretch.
func (tr *traceRun) timedBatches() int {
	if tr.sz.period > 0 {
		return int(time.Duration(tr.secs) * time.Second / tr.sz.period)
	}
	return 0
}

// handlerTimed is the timed-phase batch count the handler passes replay
// back to back: none for an open loop, whose timed phase pass T paces.
func (tr *traceRun) handlerTimed() int {
	if tr.sz.period > 0 {
		return -1
	}
	return 0
}

func (tr *traceRun) pool() []*batch { return newPool(max(tr.sz.warmLines, tr.sz.batchLines)) }

func (tr *traceRun) extra() int {
	if tr.sz.period > 0 {
		return 0
	}
	return tr.sz.traceExtra
}

// serve posts one batch through the handler.
func serve(h http.Handler, body []byte) (ingestReply, error) {
	var r ingestReply
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/ingest", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return r, fmt.Errorf("ingest status %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	return r, json.Unmarshal(rec.Body.Bytes(), &r)
}

// traceReads is how many read-back reads the traced run makes on the
// closed-loop workloads.
const traceReads = 4096

// overheadBatches is the stretch, from the first batch on, over which
// the traced handler pass is compared with untraced ones.
const overheadBatches = 8 * chunkBatches

// passU replays the first overheadBatches batches through an untraced
// handler and returns the time spent inside handler calls.
func (tr *traceRun) passU() time.Duration {
	stk := newStack()
	h := api.NewServer(api.Config{Store: stk.store, Estimator: stk.est}).Handler()
	var busy time.Duration
	n := 0
	p := tr.plan()
	p.replay(tr.pool(), tr.extra(), tr.handlerTimed(), false, func(_ []int, bs []*batch, _ bool) bool {
		t0 := time.Now()
		for _, b := range bs {
			serve(h, b.body)
		}
		busy += time.Since(t0)
		n += len(bs)
		return n < overheadBatches
	}, nil)
	return busy
}

// passT replays through a traced handler, then runs the workload's
// reads through it. busy is the handler time of the first
// overheadBatches batches.
func (tr *traceRun) passT() (busy time.Duration, lagMs []float64) {
	stk := newStack()
	reg := api.NewServer(api.Config{Store: stk.store, Estimator: stk.est})
	h := reg.Handler()
	tc := &tracer{t0: time.Now()}
	p := tr.plan()
	var genLag []float64
	p.replay(tr.pool(), tr.extra(), tr.handlerTimed(), false, func(ids []int, bs []*batch, _ bool) bool {
		t0 := time.Now()
		for i, b := range bs {
			s := tc.now()
			r, err := serve(h, b.body)
			tc.add("api.ingest", ids[i], "", s, tc.now())
			account(&tr.led, b.lines, r, err)
			tr.points += int64(b.lines)
		}
		if ids[0] < overheadBatches {
			busy += time.Since(t0)
		}
		return true
	}, &genLag)

	querySum := func() float64 {
		for _, s := range reg.Metrics().Gather() {
			if s.Name == "nyquistd_query_seconds_sum" {
				return s.Value
			}
		}
		return 0
	}
	respBytes := 0
	read := func(id int, r *readReq) {
		req := httptest.NewRequest(http.MethodGet, r.url(), nil)
		rec := httptest.NewRecorder()
		q0 := querySum()
		s := tc.now()
		h.ServeHTTP(rec, req)
		e := tc.now()
		store := int64((querySum() - q0) * 1e9)
		tc.add("api.query", id, "", s, e)
		tc.add("api.query.store", id, "api.query", s, s+store)
		tr.led.add(1, 0)
		if rec.Code != http.StatusOK {
			tr.led.fail(1, "read %s: status %d", r.url(), rec.Code)
			return
		}
		respBytes += rec.Body.Len()
		err := p.verifyRead(r, rec.Body.Bytes())
		tr.led.check(err == nil, "%s read: %v", r.kind, err)
	}
	defer func() {
		tr.metrics["api.query_response_bytes"] = float64(respBytes) / float64(max(len(tr.reads), 1))
	}()

	if tr.sz.period == 0 {
		lagMs = genLag
		rng := rand.New(rand.NewSource(tr.seed + 1))
		tr.reads = p.readback(rng, newZipf(rng, len(p.timedSS)), counts(p), traceReads)
		for i := range tr.reads {
			read(i, &tr.reads[i])
		}
		tr.spans = append(tr.spans, tc.spans...)
		return busy, lagMs
	}

	// Open loop: the fixed-rate pusher and the closed-loop reader run
	// side by side for the run's length, as on the wire.
	a := newAcked(p.timedSS)
	for _, s := range p.timedSS {
		a.n[s].Store(int64(p.sz.warmPoints))
	}
	dur := time.Duration(tr.secs) * time.Second
	pushT := &tracer{t0: tc.t0}
	base := len(durs(tc.spans, "api.ingest"))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var b batch
		st := p.timed[0]
		start := time.Now()
		for k := 0; time.Duration(k)*p.sz.period < dur; k++ {
			due := start.Add(time.Duration(k) * p.sz.period)
			st.fill(&b, p.sz.batchLines, false)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			lagMs = append(lagMs, msSince(due))
			s := pushT.now()
			r, err := serve(h, b.body)
			pushT.add("api.ingest", base+k, "", s, pushT.now())
			tr.points += int64(b.lines)
			if account(&tr.led, b.lines, r, err) {
				a.publish(st, &b)
			}
		}
	}()
	rng := rand.New(rand.NewSource(tr.seed + 2))
	zipf := newZipf(rng, len(p.timedSS))
	count := func(s *seriesSpec) int { return int(a.n[s].Load()) }
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		tr.reads = append(tr.reads, p.mixRead(i, rng, zipf, count, a.newest.Load()))
		read(i, &tr.reads[i])
		time.Sleep(thinkTime)
	}
	wg.Wait()
	tr.spans = append(tr.spans, tc.spans...)
	tr.spans = append(tr.spans, pushT.spans...)
	return busy, lagMs
}

// observeRuns feeds a batch's accepted points to the estimator in
// per-series runs, in arrival order within each run — the grouping the
// ingest handler applies — and returns how many points failed to land.
func observeRuns(est *monitor.IngestEstimator, pts []tsdb.BatchPoint, runs map[string][]series.Point, order []string, tc *tracer, id int) (rejected int) {
	order = order[:0]
	for _, bp := range pts {
		if bp.Err != nil {
			rejected++
			continue
		}
		if _, ok := runs[bp.ID]; !ok {
			order = append(order, bp.ID)
		}
		runs[bp.ID] = append(runs[bp.ID], bp.P)
	}
	var s int64
	if tc != nil {
		s = tc.now()
	}
	for _, sid := range order {
		est.ObserveRun(sid, runs[sid])
	}
	if tc != nil {
		tc.add("monitor.observe", id, "api.ingest", s, tc.now())
	}
	for _, sid := range order {
		delete(runs, sid)
	}
	return rejected
}

func heapNow() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// passB replays the batches through Store.AppendBatch and
// IngestEstimator.ObserveRun on a fresh stack, replays pass T's reads
// straight against the store, and splits the stack's heap between the
// estimator and the store.
func (tr *traceRun) passB() {
	p := tr.plan()
	pool := tr.pool()
	h0 := heapNow()
	stk := newStack()
	tc := &tracer{t0: time.Now()}
	runs := map[string][]series.Point{}
	var order []string
	var points int64
	p.replay(pool, tr.extra(), tr.timedBatches(), true, func(ids []int, bs []*batch, _ bool) bool {
		for i, b := range bs {
			s := tc.now()
			stk.store.AppendBatch(b.pts)
			tc.add("tsdb.append", ids[i], "api.ingest", s, tc.now())
			if rej := observeRuns(stk.est, b.pts, runs, order, tc, ids[i]); rej > 0 {
				tr.led.fail(int64(rej), "store rejected %d points", rej)
			}
			points += int64(len(b.pts))
		}
		return true
	}, nil)
	nSeries := float64(len(p.all))
	st := stk.store.Stats()
	tr.metrics["tsdb.append_ns_per_point"] = float64(total(durs(tc.spans, "tsdb.append"))) / float64(points)
	tr.metrics["monitor.observe_ns_per_point"] = float64(total(durs(tc.spans, "monitor.observe"))) / float64(points)
	tr.metrics["tsdb.compacted_per_point"] = float64(st.Compacted) / float64(points)
	tr.metrics["tsdb.sealed_blocks_per_kpoint"] = float64(st.SealedBlocks) * 1000 / float64(points)
	tr.metrics["monitor.probes"] = float64(stk.est.Probes())
	tr.metrics["monitor.retunes"] = float64(stk.est.Retunes())
	estimated := 0
	for _, s := range p.all {
		if adv, ok := stk.est.Advice(s.id); ok && adv.NyquistRate > 0 {
			estimated++
		}
	}
	tr.metrics["monitor.estimated_ratio"] = float64(estimated) / nSeries
	tr.info["stored_bytes_per_point"] = 0.0
	if st.CompressedEntries > 0 {
		tr.info["stored_bytes_per_point"] = float64(st.CompressedBytes) / float64(st.CompressedEntries)
	}
	errs, _ := nyquistErrors(p.warmSS, func(id string) (float64, error) {
		adv, _ := stk.est.Advice(id)
		return adv.NyquistRate, nil
	})
	tr.info["nyquist_err_median"] = median(errs)

	h2 := heapNow()
	stk.est = nil
	h1 := heapNow()
	tr.metrics["monitor.heap_bytes_per_series"] = float64(h2-h1) / nSeries
	tr.metrics["tsdb.heap_bytes_per_series"] = float64(h1-h0) / nSeries

	c0 := stk.store.Stats().Cache
	var queryUs, matchUs []float64
	for i := range tr.reads {
		r := &tr.reads[i]
		from, to := time.UnixMilli(r.fromMs), time.UnixMilli(r.toMs)
		s := tc.now()
		if r.pattern != "" {
			stk.store.QueryMatch(r.pattern, from, to, r.maxPoints, 512)
			tc.add("tsdb.match", i, "api.query", s, tc.now())
			matchUs = append(matchUs, float64(tc.now()-s)/1e3)
			continue
		}
		_, err := stk.store.QueryRange(r.s.id, from, to, r.maxPoints)
		tc.add("tsdb.query", i, "api.query", s, tc.now())
		queryUs = append(queryUs, float64(tc.now()-s)/1e3)
		tr.led.check(err == nil, "store query %s: %v", r.s.id, err)
	}
	c1 := stk.store.Stats().Cache
	lookups := (c1.Hits - c0.Hits) + (c1.Misses - c0.Misses)
	tr.metrics["tsdb.query_us_p50"] = quantile(queryUs, 0.5)
	tr.metrics["tsdb.query_us_p99"] = quantile(queryUs, 0.99)
	tr.metrics["tsdb.match_us_p50"] = quantile(matchUs, 0.5)
	tr.metrics["tsdb.match_us_p99"] = quantile(matchUs, 0.99)
	tr.metrics["tsdb.cache_lookups"] = float64(lookups)
	tr.metrics["tsdb.cache_hit_ratio"] = 0
	if lookups > 0 {
		tr.metrics["tsdb.cache_hit_ratio"] = float64(c1.Hits-c0.Hits) / float64(lookups)
	}
	tr.metrics["tsdb.cache_evictions_per_query"] = float64(c1.Evictions-c0.Evictions) / float64(max(len(tr.reads), 1))
	tr.spans = append(tr.spans, tc.spans...)
}

// passD replays the batches on a fresh stack made durable by wal.Open
// at the daemon's default options, times Durable.Sync on the 10ms
// group-commit cadence, closes the log and times its replay.
func (tr *traceRun) passD() error {
	p := tr.plan()
	dir := tr.work + "/trace-wal"
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	stk := newStack()
	d, err := wal.Open(dir, stk.store, stk.est, wal.Options{})
	if err != nil {
		return err
	}
	tc := &tracer{t0: time.Now()}
	runs := map[string][]series.Point{}
	var order []string
	var points int64
	var syncMs []float64
	lastSync := time.Now()
	walErrs := int64(0)
	p.replay(tr.pool(), tr.extra(), tr.timedBatches(), true, func(ids []int, bs []*batch, _ bool) bool {
		for i, b := range bs {
			s := tc.now()
			stk.store.AppendBatch(b.pts)
			tc.add("wal.append", ids[i], "", s, tc.now())
			observeRuns(stk.est, b.pts, runs, order, nil, 0)
			points += int64(len(b.pts))
			if time.Since(lastSync) >= 10*time.Millisecond {
				s := tc.now()
				if err := d.Sync(); err != nil {
					walErrs++
				}
				e := tc.now()
				tc.add("wal.sync", ids[i], "", s, e)
				syncMs = append(syncMs, float64(e-s)/1e6)
				lastSync = time.Now()
			}
		}
		return true
	}, nil)
	ws := d.Stats()
	walErrs += ws.Log.Errors + ws.SnapshotErrors
	tr.metrics["wal.records_per_kpoint"] = float64(ws.Log.Records) * 1000 / float64(points)
	tr.metrics["wal.sync_ms_p50"] = quantile(syncMs, 0.5)
	tr.metrics["wal.sync_ms_p99"] = quantile(syncMs, 0.99)
	if err := d.Close(); err != nil {
		walErrs++
	}
	appendNs := total(durs(tr.spans, "tsdb.append"))
	tr.metrics["wal.seal_hook_ns_per_point"] = float64(total(durs(tc.spans, "wal.append"))-appendNs) / float64(points)
	tr.spans = append(tr.spans, tc.spans...)
	stk = nil
	runtime.GC()

	re := newStack()
	t0 := time.Now()
	d2, err := wal.Open(dir, re.store, re.est, wal.Options{})
	if err != nil {
		return err
	}
	dur := time.Since(t0)
	ri := d2.Replay()
	tr.metrics["wal.replay_points_per_s"] = float64(ri.Points) / dur.Seconds()
	tr.led.check(ri.Points > 0, "wal replay restored no points")
	if err := d2.Close(); err != nil {
		walErrs++
	}
	tr.metrics["wal.errors"] = float64(walErrs)
	tr.led.check(walErrs == 0, "wal: %d errors", walErrs)
	return os.RemoveAll(dir)
}

// runTrace runs the traced in-process pass of one workload and writes
// its spans and CPU profile under out.
func runTrace(w *workload, seed int64, secs int, work, out string) (*traceRun, error) {
	tr := &traceRun{w: w, seed: seed, sz: w.sizes, secs: secs, work: work, metrics: map[string]float64{}, info: map[string]any{}}
	prof, err := os.Create(out + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	// Untraced passes bracket the traced one so heap growth and
	// cache warmth do not favour either side.
	before := tr.passU()
	runtime.GC()
	traced, lag := tr.passT()
	runtime.GC()
	after := tr.passU()
	runtime.GC()
	tr.metrics["trace.overhead_ratio"] = traced.Seconds() / ((before + after).Seconds() / 2)
	tr.metrics["gen.lag_p99_ms"] = quantile(lag, 0.99)

	tr.passB()
	runtime.GC()
	if err := tr.passD(); err != nil {
		pprof.StopCPUProfile()
		return nil, err
	}
	pprof.StopCPUProfile()

	self := selfTimes(tr.spans, "api.ingest", "tsdb.append", "monitor.observe")
	tr.metrics["api.ingest_self_ns_per_point"] = float64(total(self)) / float64(tr.points)
	qself := usValues(selfTimes(tr.spans, "api.query", "api.query.store"))
	tr.metrics["api.query_self_us_p50"] = quantile(qself, 0.5)
	tr.metrics["api.query_self_us_p99"] = quantile(qself, 0.99)
	tr.info["points"] = tr.points
	tr.info["reads"] = len(tr.reads)
	tr.info["spans"] = len(tr.spans)
	return tr, writeSpans(out+".spans.jsonl", tr.spans)
}

func writeSpans(path string, spans []span) error {
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
