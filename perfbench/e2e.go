package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// setupStarts is how many times a run starts the daemon to time set-up;
// setup_s is their median.
const setupStarts = 25

// client is one pinned loopback connection.
type client struct {
	c    *http.Client
	base string
}

func newClient(addr string) *client {
	return &client{
		c: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
		base: "http://" + addr,
	}
}

func (c *client) close() { c.c.CloseIdleConnections() }

func (c *client) get(path string) ([]byte, int, error) {
	resp, err := c.c.Get(c.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

type ingestReply struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

func (c *client) post(body []byte) (ingestReply, error) {
	var r ingestReply
	resp, err := c.c.Post(c.base+"/api/v1/ingest", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("ingest status %d: %.200s", resp.StatusCode, raw)
	}
	return r, json.Unmarshal(raw, &r)
}

// phase collects one timed phase's samples.
type phase struct {
	mu       sync.Mutex
	t0       time.Time
	ops      []sample
	lagMs    []float64 // how late each batch was sent
	accepted int64
}

func newPhase() *phase { return &phase{t0: time.Now()} }

func (ph *phase) merge(ops []sample, lag []float64, accepted int64) {
	ph.mu.Lock()
	ph.ops = append(ph.ops, ops...)
	ph.lagMs = append(ph.lagMs, lag...)
	ph.accepted += accepted
	ph.mu.Unlock()
}

// account applies the batch checks: the request succeeded, accepted
// plus rejected equals the lines sent, and the in-order generator drew
// no rejects.
func account(led *ledger, lines int, r ingestReply, err error) bool {
	led.add(int64(lines), 0)
	if err != nil {
		led.fail(int64(lines), "ingest: %v", err)
		return false
	}
	ok := led.check(r.Accepted+r.Rejected == lines, "ingest: accepted %d + rejected %d != %d lines", r.Accepted, r.Rejected, lines)
	if r.Rejected > 0 {
		led.fail(int64(r.Rejected), "ingest: %d lines rejected", r.Rejected)
		ok = false
	}
	return ok
}

// closedLoop runs one pusher per stream, each on its own connection
// and sending its next batch as soon as the previous one is answered,
// until its stream ends or it sent maxBatches (0 = no cap).
func closedLoop(cs []*client, streams []*stream, lines, maxBatches int, led *ledger, ph *phase) {
	var wg sync.WaitGroup
	for i, st := range streams {
		wg.Add(1)
		go func(c *client, st *stream) {
			defer wg.Done()
			var (
				b        batch
				ops      []sample
				lag      []float64
				accepted int64
			)
			for sent := 0; maxBatches == 0 || sent < maxBatches; sent++ {
				g0 := time.Now()
				n := st.fill(&b, lines, false)
				if n == 0 {
					break
				}
				t0 := time.Now()
				r, err := c.post(b.body)
				t1 := time.Now()
				lag = append(lag, ms(t0.Sub(g0)))
				if account(led, n, r, err) {
					accepted += int64(r.Accepted)
					ops = append(ops, sample{end: t1.Sub(ph.t0), ms: ms(t1.Sub(t0)), n: int64(r.Accepted)})
				}
			}
			ph.merge(ops, lag, accepted)
		}(cs[i], st)
	}
	wg.Wait()
}

func newClients(addr string, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = newClient(addr)
	}
	return cs
}

func closeAll(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// openLoop sends one batch every period for dur on one connection,
// whether or not earlier batches were answered late; latency counts
// from each batch's due time.
func openLoop(addr string, st *stream, lines int, period, dur time.Duration, a *acked, led *ledger, ph *phase) {
	c := newClient(addr)
	defer c.close()
	var (
		b        batch
		ops      []sample
		lag      []float64
		accepted int64
	)
	for k := 0; time.Duration(k)*period < dur; k++ {
		due := ph.t0.Add(time.Duration(k) * period)
		n := st.fill(&b, lines, false)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		r, err := c.post(b.body)
		t1 := time.Now()
		lag = append(lag, ms(sent.Sub(due)))
		if account(led, n, r, err) {
			accepted += int64(r.Accepted)
			ops = append(ops, sample{end: t1.Sub(ph.t0), ms: ms(t1.Sub(due)), n: int64(r.Accepted)})
			a.publish(st, &b)
		}
	}
	ph.merge(ops, lag, accepted)
}

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// queryJSON is the subset of a query response the checks read.
type queryJSON struct {
	Series string `json:"series"`
	Points []struct {
		TS    string  `json:"ts"`
		Value float64 `json:"value"`
	} `json:"points"`
}

type matchJSON struct {
	Matches int         `json:"matches"`
	Results []queryJSON `json:"results"`
}

// verifyRead checks a read's answer: a verified window must hold exactly
// the points sent, bit for bit; a fan-in must answer its whole family;
// any other read must return points or aggregates.
func (p *plan) verifyRead(r *readReq, body []byte) error {
	switch {
	case r.pattern != "":
		var m matchJSON
		if err := json.Unmarshal(body, &m); err != nil {
			return err
		}
		if m.Matches != p.wl.matches || len(m.Results) != p.wl.matches {
			return fmt.Errorf("match %s: %d matches, %d results, want %d", r.pattern, m.Matches, len(m.Results), p.wl.matches)
		}
		return nil
	case r.verify:
		var q queryJSON
		if err := json.Unmarshal(body, &q); err != nil {
			return err
		}
		if len(q.Points) != r.wantPoints {
			return fmt.Errorf("%s [%d,%d]: %d points, want %d", r.s.id, r.lo, r.hi, len(q.Points), r.wantPoints)
		}
		for i, pt := range q.Points {
			k := r.lo + i
			t, err := time.Parse(time.RFC3339Nano, pt.TS)
			if err != nil {
				return err
			}
			if t.UnixNano() != r.s.time(k).UnixNano() || math.Float64bits(pt.Value) != math.Float64bits(r.s.value(k)) {
				return fmt.Errorf("%s point %d: got (%s, %v), sent (%d ms, %v)", r.s.id, k, pt.TS, pt.Value, r.s.tsMs(k), r.s.value(k))
			}
		}
		return nil
	default:
		// Windows older than raw retention answer from the downsampled
		// tiers, as aggregates.
		if !bytes.Contains(body, []byte(`"points":[{`)) && !bytes.Contains(body, []byte(`"aggregates":[{`)) {
			return fmt.Errorf("%s %s: no points", r.kind, r.s.id)
		}
		return nil
	}
}

// read issues one query and checks its answer after its latency is
// taken; only reads that succeed and check out become samples.
func (p *plan) read(c *client, r *readReq, led *ledger, ph *phase) {
	q0 := time.Now()
	body, status, err := c.get(r.url())
	q1 := time.Now()
	led.add(1, 0)
	if err != nil || status != http.StatusOK {
		led.fail(1, "read %s: status %d err %v", r.url(), status, err)
		return
	}
	if err := p.verifyRead(r, body); !led.check(err == nil, "%s read: %v", r.kind, err) {
		return
	}
	ph.ops = append(ph.ops, sample{end: q1.Sub(ph.t0), ms: ms(q1.Sub(q0)), n: 1})
}

// e2eRun is one end-to-end run's state.
type e2eRun struct {
	p       *plan
	bin     string
	work    string
	led     ledger
	metrics map[string]float64
	info    map[string]any
}

func (e *e2eRun) dataDir() string { return filepath.Join(e.work, "data") }
func (e *e2eRun) logPath() string { return filepath.Join(e.work, "nyquistd.log") }

// setup starts the daemon setupStarts times on an empty data dir and
// keeps the last one running.
func (e *e2eRun) setup() (*daemon, error) {
	var ready []float64
	for i := 0; i < setupStarts; i++ {
		if err := os.RemoveAll(e.dataDir()); err != nil {
			return nil, err
		}
		d, err := startDaemon(e.bin, e.dataDir(), e.logPath())
		if err != nil {
			return nil, err
		}
		ready = append(ready, d.ready.Seconds())
		if i == setupStarts-1 {
			e.metrics["setup_s"] = median(ready)
			e.info["setup_s_samples"] = ready
			return d, nil
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
	panic("unreachable")
}

// warmStages is how many equal stages warm-up runs in. Estimates are
// scored after every stage once each warmed series holds scoreFrom
// points, so nyquist_err_median is a median over several windows of
// every series and moves little from seed to seed.
const (
	warmStages = 16
	scoreFrom  = 1024
)

// warmup pushes the untimed, deterministic warm-up in stages and scores
// the served estimates against ground truth after each, then reads the
// store's compression. Both results depend only on the seed.
func (e *e2eRun) warmup(addr string, c *client) (accepted int64, err error) {
	p := e.p
	cs := newClients(addr, len(p.warm))
	defer closeAll(cs)
	var errs []float64
	for st := 1; st <= warmStages; st++ {
		limit := p.sz.warmPoints * st / warmStages
		for _, s := range p.warm {
			s.limit = limit
		}
		ph := newPhase()
		closedLoop(cs, p.warm, p.sz.warmLines, 0, &e.led, ph)
		accepted += ph.accepted
		if limit < scoreFrom {
			continue
		}
		stage, err := nyquistErrors(p.warmSS, func(id string) (float64, error) {
			body, status, err := c.get("/api/v1/estimate?series=" + id)
			if err != nil || status != http.StatusOK {
				return 0, fmt.Errorf("estimate %s: status %d err %v", id, status, err)
			}
			var est struct {
				NyquistHz float64 `json:"nyquist_hz"`
			}
			return est.NyquistHz, json.Unmarshal(body, &est)
		})
		if err != nil {
			return 0, err
		}
		errs = append(errs, stage...)
	}
	e.metrics["nyquist_err_median"] = median(errs)
	body, status, err := c.get("/api/v1/stats")
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("stats: status %d err %v", status, err)
	}
	var st struct {
		BytesPerPoint float64 `json:"bytes_per_point"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, err
	}
	e.metrics["stored_bytes_per_point"] = st.BytesPerPoint
	return accepted, nil
}

// nyquistErrors is each series' relative error of the served Nyquist
// estimate against its ground truth; a series with no estimate scores 1.
func nyquistErrors(ss []*seriesSpec, estimate func(id string) (float64, error)) ([]float64, error) {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		est, err := estimate(s.id)
		if err != nil {
			return nil, err
		}
		if est <= 0 {
			out = append(out, 1)
			continue
		}
		out = append(out, math.Abs(est-s.nyquistHz())/s.nyquistHz())
	}
	return out, nil
}

// cpuSampler reads the daemon's CPU time (ns) and the host's steal at
// every window boundary of a phase, until stopped.
type cpuSampler struct {
	ns           []int64
	steal, total []int64
	stopc        chan struct{}
	donec        chan struct{}
}

func (cs *cpuSampler) sample(d *daemon) {
	if t, err := d.cpuNs(); err == nil {
		s, tot := hostTicks()
		cs.ns = append(cs.ns, t)
		cs.steal = append(cs.steal, s)
		cs.total = append(cs.total, tot)
	}
}

func sampleCPU(d *daemon) *cpuSampler {
	cs := &cpuSampler{stopc: make(chan struct{}), donec: make(chan struct{})}
	cs.sample(d)
	go func() {
		defer close(cs.donec)
		tk := time.NewTicker(window)
		defer tk.Stop()
		for {
			select {
			case <-cs.stopc:
				return
			case <-tk.C:
				cs.sample(d)
			}
		}
	}()
	return cs
}

// stop ends sampling and sets each window's CPU time per point and
// steal share; the trailing partial window folds into the last whole
// one.
func (cs *cpuSampler) stop(d *daemon, ws []winStat) error {
	close(cs.stopc)
	<-cs.donec
	n := len(cs.ns)
	cs.sample(d)
	if len(cs.ns) == n {
		return fmt.Errorf("daemon CPU time unreadable")
	}
	for i := range ws {
		lo, hi := i, i+1
		if i == len(ws)-1 {
			hi = len(cs.ns) - 1
		}
		if hi >= len(cs.ns) || lo >= hi {
			break
		}
		if ws[i].points > 0 {
			ws[i].cpuUs = float64(cs.ns[hi]-cs.ns[lo]) / 1e3 / float64(ws[i].points)
		}
		ws[i].steal = stealShare(cs.steal[lo], cs.total[lo], cs.steal[hi], cs.total[hi])
	}
	return nil
}

// runE2E drives one workload against the real daemon over loopback.
func runE2E(p *plan, bin, work string, secs int) (*e2eRun, error) {
	e := &e2eRun{p: p, bin: bin, work: work, metrics: map[string]float64{}, info: map[string]any{}}
	d, err := e.setup()
	if err != nil {
		return nil, err
	}
	running := d
	defer func() {
		if running != nil {
			running.kill()
		}
	}()
	c := newClient(d.addr)
	defer c.close()

	accepted, err := e.warmup(d.addr, c)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	var tp *timedPhase
	if p.sz.period > 0 {
		tp, err = e.openPhase(d, secs)
	} else {
		tp, err = e.closedPhase(d, c)
	}
	if err != nil {
		return nil, err
	}
	var timedPoints int64
	for _, w := range tp.ing {
		timedPoints += w.points
	}
	if timedPoints == 0 || len(tp.rd) == 0 {
		return nil, fmt.Errorf("timed phase landed no points or reads: %v", e.led.notes)
	}
	accepted += timedPoints
	// Every timing metric is the median over the slices of the slice's
	// figure, taken over the slices the host stole least from.
	ing, rd := leastStolen(tp.ing), leastStolen(tp.rd)
	for name, v := range timings(ing, rd) {
		e.metrics[name] = median(v)
	}
	// Every slice's figures and steal share are recorded, so that records
	// can be screened afterwards.
	slices := timings(tp.ing, tp.rd)
	slices["ingest_steal"] = field(tp.ing, func(w winStat) float64 { return w.steal })
	slices["query_steal"] = field(tp.rd, func(w winStat) float64 { return w.steal })
	e.info["slices"] = slices
	e.info["slices_kept"] = fmt.Sprintf("%d of %d ingest, %d of %d read", len(ing), len(tp.ing), len(rd), len(tp.rd))
	e.info["steal_share"] = median(slices["ingest_steal"])
	// p99 per slice swings 30-45% from run to run on a shared 2-core box,
	// too much for a regression bound; it is recorded, not bounded.
	e.info["ingest_p99_ms"] = median(field(ing, func(w winStat) float64 { return w.p99 }))
	e.info["query_p99_ms"] = median(field(rd, func(w winStat) float64 { return w.p99 }))
	e.info["ingest_batches"] = tp.batches
	e.info["timed_phase_s"] = time.Since(t0).Seconds()
	e.info["gen_lag_p99_ms"] = quantile(tp.lagMs, 0.99)
	count := counts(p)

	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	var seriesN int
	body, status, err := c.get("/api/v1/stats")
	if err == nil && status == http.StatusOK {
		var st struct {
			Series int `json:"series"`
		}
		err = json.Unmarshal(body, &st)
		seriesN = st.Series
	}
	if err != nil || seriesN == 0 {
		return nil, fmt.Errorf("stats after timed phase: status %d err %v", status, err)
	}
	e.metrics["rss_bytes_per_series"] = float64(rss) / float64(seriesN)
	e.info["series"] = seriesN

	running = nil
	if err := e.restart(c, d, count, accepted); err != nil {
		return nil, err
	}
	return e, nil
}

// timedPhase is a timed phase cut into slices: rounds of a closed loop
// or windows of an open loop.
type timedPhase struct {
	ing, rd []winStat // ingest and read slices
	lagMs   []float64
	batches int
}

// closedPhase runs a closed-loop timed phase in rounds: every pusher
// sends roundBatches batches, then one connection issues roundReads
// read-back reads. Each round is one slice of the phase's statistics,
// so interference outside the benchmark spoils a round, not the run.
func (e *e2eRun) closedPhase(d *daemon, c *client) (*timedPhase, error) {
	p := e.p
	p.startTimed(p.sz.timedPoints)
	cs := newClients(d.addr, len(p.timed))
	defer closeAll(cs)
	rng := rand.New(rand.NewSource(p.seed + 1))
	zipf := newZipf(rng, len(p.timedSS))
	tp := &timedPhase{}
	for {
		c0, err := d.cpuNs()
		if err != nil {
			return nil, err
		}
		s0, t0 := hostTicks()
		ph := newPhase()
		closedLoop(cs, p.timed, p.sz.batchLines, p.sz.roundBatches, &e.led, ph)
		dur := time.Since(ph.t0)
		c1, err := d.cpuNs()
		if err != nil {
			return nil, err
		}
		s1, t1 := hostTicks()
		if len(ph.ops) == 0 {
			return tp, nil
		}
		w := statOf(ph.ops, dur)
		w.cpuUs = float64(c1-c0) / 1e3 / float64(w.points)
		w.steal = stealShare(s0, t0, s1, t1)
		tp.ing = append(tp.ing, w)
		tp.lagMs = append(tp.lagMs, ph.lagMs...)
		tp.batches += len(ph.ops)

		rp := newPhase()
		for _, r := range p.readback(rng, zipf, counts(p), p.sz.roundReads) {
			p.read(c, &r, &e.led, rp)
		}
		if len(rp.ops) > 0 {
			s2, t2 := hostTicks()
			r := statOf(rp.ops, time.Since(rp.t0))
			r.steal = stealShare(s1, t1, s2, t2)
			tp.rd = append(tp.rd, r)
		}
	}
}

// openPhase runs the open-loop pusher beside the closed-loop reader for
// secs, cut into windows, then reads back a sample of series bit for bit.
func (e *e2eRun) openPhase(d *daemon, secs int) (*timedPhase, error) {
	p := e.p
	p.startTimed(0)
	timed, reads := newPhase(), newPhase()
	cpu := sampleCPU(d)
	a := newAcked(p.timedSS)
	for _, s := range p.timedSS {
		a.n[s].Store(int64(p.sz.warmPoints))
	}
	dur := time.Duration(secs) * time.Second
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		openLoop(d.addr, p.timed[0], p.sz.batchLines, p.sz.period, dur, a, &e.led, timed)
	}()
	e.dashReader(d.addr, dur, a, reads)
	wg.Wait()
	wall := time.Since(timed.t0)
	ing, rd := windowStats(timed.ops, wall), windowStats(reads.ops, wall)
	if err := cpu.stop(d, ing); err != nil {
		return nil, err
	}
	tp := &timedPhase{lagMs: timed.lagMs, batches: len(timed.ops)}
	for i := range ing {
		// At a fixed offered rate every window lands the same count, so
		// the achieved rate is taken over the whole phase instead.
		ing[i].rate = float64(timed.accepted) / wall.Seconds()
		rd[i].steal = ing[i].steal
		if ing[i].points > 0 {
			tp.ing = append(tp.ing, ing[i])
		}
		if rd[i].points > 0 {
			tp.rd = append(tp.rd, rd[i])
		}
	}

	c := newClient(d.addr)
	defer c.close()
	rng := rand.New(rand.NewSource(p.seed + 1))
	count := counts(p)
	post := newPhase()
	for i := 0; i < 64; i++ {
		s := p.timedSS[rng.Intn(len(p.timedSS))]
		n := count(s)
		r := seriesRead("recent", s, n-256, n-1, 10000, true)
		p.read(c, &r, &e.led, post)
	}
	return tp, nil
}

// dashReader is the dashboard's closed-loop reader: it runs the read mix
// on its own connection for dur beside the open-loop pusher.
func (e *e2eRun) dashReader(addr string, dur time.Duration, a *acked, ph *phase) {
	c := newClient(addr)
	defer c.close()
	rng := rand.New(rand.NewSource(e.p.seed + 2))
	zipf := newZipf(rng, len(e.p.timedSS))
	count := func(s *seriesSpec) int { return int(a.n[s].Load()) }
	for i := 0; time.Since(ph.t0) < dur; i++ {
		r := e.p.mixRead(i, rng, zipf, count, a.newest.Load())
		e.p.read(c, &r, &e.led, ph)
		time.Sleep(thinkTime)
	}
}

// thinkTime is the dashboard reader's pause after each answer, as a
// user pauses between panels. Without it the reader takes all the CPU
// the pusher leaves on a 2-core box, and any host steal tips the open
// loop into a growing backlog: the run would measure a saturated box
// rather than reads and writes interfering inside the daemon. The value
// is chosen, not taken from recorded traffic.
const thinkTime = 4 * time.Millisecond

// restartBoots is how many times a run reboots the daemon on its data
// dir; recover_s is the median boot.
const restartBoots = 3

// restartSeries is how many series a run reads whole before and after
// the restart.
const restartSeries = 64

// restart stops the daemon gracefully, measures the WAL it left, boots
// it again on the same directory and compares answers. docs/API.md
// promises that a restart serves identical queries for everything
// synced, and a graceful stop syncs everything. Windows inside raw
// retention and the fan-in must come back byte for byte, and a
// whole-series read must still end at the same newest point; any
// difference there fails the run. Whole-series reads also stitch in the
// downsampled tiers, which replay rebuilds shorter than the running
// daemon kept them and cut differently (an open program defect):
// restart_history_kept is the median share of a whole-series answer's
// points that come back the same, 1 when every answer does. restart
// always stops d.
func (e *e2eRun) restart(c *client, d *daemon, count func(*seriesSpec) int, accepted int64) error {
	rng := rand.New(rand.NewSource(e.p.seed + 3))
	var paths []string
	for i := 0; i < 16; i++ {
		s := e.p.all[rng.Intn(len(e.p.all))]
		lo := max(count(s)-3000, 0)
		paths = append(paths, "/api/v1/query?max_points=10000&series="+s.id+"&from="+string(appendTS(nil, s.tsMs(lo))))
	}
	paths = append(paths, e.p.matchRead(0, count).url())
	exact := len(paths)
	for _, k := range rng.Perm(len(e.p.all))[:min(restartSeries, len(e.p.all))] {
		paths = append(paths, "/api/v1/query?max_points=10000&series="+e.p.all[k].id)
	}
	before := make([][]byte, len(paths))
	for i, path := range paths {
		body, status, err := c.get(path)
		if err != nil || status != http.StatusOK {
			d.kill()
			return fmt.Errorf("pre-restart %s: status %d err %v", path, status, err)
		}
		before[i] = body
	}
	// A snapshot deletes the segments it covers, so after one the WAL
	// left on disk no longer holds what the run wrote, and a boot loads
	// the snapshot instead of replaying; the daemon takes the first one
	// 60 s after it starts.
	body, status, err := c.get("/api/v1/stats")
	var st struct {
		WAL struct {
			Snapshots int64 `json:"snapshots"`
		} `json:"wal"`
	}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &st)
	}
	if err != nil || status != http.StatusOK {
		d.kill()
		return fmt.Errorf("stats before restart: status %d err %v", status, err)
	}
	e.led.check(st.WAL.Snapshots == 0, "wal: %d snapshots compacted the log during the run", st.WAL.Snapshots)
	e.info["state_sweeps"] = int(time.Since(d.started) / stateEvery)
	c.close()
	if err := d.stop(); err != nil {
		return err
	}
	wal, err := walRecords(e.dataDir())
	if err != nil {
		return err
	}
	e.metrics["wal_bytes_per_point"] = float64(wal.blockBytes) / float64(accepted)
	e.info["wal_state_records"] = wal.stateRecords
	e.info["wal_state_bytes"] = wal.stateBytes

	var boots []float64
	for b := 0; b < restartBoots; b++ {
		d2, err := startDaemon(e.bin, e.dataDir(), e.logPath())
		if err != nil {
			return err
		}
		boots = append(boots, d2.ready.Seconds())
		if b == 0 {
			c2 := newClient(d2.addr)
			var kept []float64
			same := 0
			for i, path := range paths {
				body, status, err := c2.get(path)
				if i < exact {
					e.led.check(err == nil && status == http.StatusOK && bytes.Equal(body, before[i]),
						"restart: %s answers differently (status %d, err %v, %d vs %d bytes)", path, status, err, len(body), len(before[i]))
					continue
				}
				if bytes.Equal(body, before[i]) {
					same++
				}
				k, err := historyKept(before[i], body)
				if !e.led.check(err == nil && status == http.StatusOK, "restart: %s: status %d, %v", path, status, err) {
					continue
				}
				kept = append(kept, k)
			}
			c2.close()
			if len(kept) == 0 {
				d2.kill()
				return fmt.Errorf("restart: no whole-series read checked out: %v", e.led.notes)
			}
			e.metrics["restart_history_kept"] = median(kept)
			e.info["restart_whole_series_identical"] = fmt.Sprintf("%d of %d", same, len(paths)-exact)
		}
		if err := d2.stop(); err != nil {
			return err
		}
	}
	e.metrics["recover_s"] = median(boots)
	e.info["recover_s_samples"] = boots
	return nil
}

// historyKept compares one whole-series answer before and after a
// restart: both must end at the same newest point, and the result is
// the share of the points answered before that come back the same
// after, time stamp and value bit for bit.
func historyKept(before, after []byte) (float64, error) {
	var b, a queryJSON
	if err := json.Unmarshal(before, &b); err != nil {
		return 0, err
	}
	if err := json.Unmarshal(after, &a); err != nil {
		return 0, err
	}
	if len(b.Points) == 0 || len(a.Points) == 0 {
		return 0, fmt.Errorf("%d points before, %d after", len(b.Points), len(a.Points))
	}
	type point struct {
		ts   string
		bits uint64
	}
	key := func(q *queryJSON, i int) point { return point{q.Points[i].TS, math.Float64bits(q.Points[i].Value)} }
	if key(&b, len(b.Points)-1) != key(&a, len(a.Points)-1) {
		return 0, fmt.Errorf("newest point %v became %v", key(&b, len(b.Points)-1), key(&a, len(a.Points)-1))
	}
	served := make(map[point]bool, len(a.Points))
	for i := range a.Points {
		served[key(&a, i)] = true
	}
	same := 0
	for i := range b.Points {
		if served[key(&b, i)] {
			same++
		}
	}
	return float64(same) / float64(len(b.Points)), nil
}

// stateEvery is the daemon's default cadence of estimator state sweeps
// into the WAL (wal.Options.StateEvery).
const stateEvery = 15 * time.Second

// walSizes are the bytes a data dir's WAL segments hold, by record kind.
type walSizes struct {
	blockBytes   int64 // sealed raw blocks, with their framing
	stateBytes   int64 // estimator state records, with their framing
	stateRecords int64
}

// WAL segment framing (internal/wal): a magic line, then records of
// [uint32 LE payload length][type byte][payload][uint32 CRC].
const (
	walMagic      = "NYQWAL1\n"
	walFrameBytes = 9
	walRecBlock   = 1
	walRecState   = 2
)

// walRecords walks the segment files in dir and sums their records by
// kind. Block records depend only on the points written; state records
// also on how many state sweeps fell inside the run, which is wall-clock
// time, so wal_bytes_per_point counts block records only.
func walRecords(dir string) (walSizes, error) {
	var ws walSizes
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		return ws, fmt.Errorf("no WAL segments in %s: %v", dir, err)
	}
	for _, f := range segs {
		raw, err := os.ReadFile(f)
		if err != nil {
			return ws, err
		}
		if !bytes.HasPrefix(raw, []byte(walMagic)) {
			return ws, fmt.Errorf("%s: not a WAL segment", f)
		}
		for b := raw[len(walMagic):]; len(b) > 0; {
			if len(b) < walFrameBytes {
				return ws, fmt.Errorf("%s: torn record", f)
			}
			n := int64(binary.LittleEndian.Uint32(b)) + walFrameBytes
			if n > int64(len(b)) {
				return ws, fmt.Errorf("%s: torn record", f)
			}
			switch b[4] {
			case walRecBlock:
				ws.blockBytes += n
			case walRecState:
				ws.stateBytes += n
				ws.stateRecords++
			}
			b = b[n:]
		}
	}
	return ws, nil
}

// cleanWork empties a run's work directory.
func cleanWork(work string) error {
	if !strings.Contains(work, ".bench_build") {
		return fmt.Errorf("refusing to clean %s", work)
	}
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	return os.MkdirAll(work, 0o755)
}
