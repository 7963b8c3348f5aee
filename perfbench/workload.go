package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sync/atomic"
	"time"
)

// sizes are a workload's input dimensions. Tests shrink them; the
// benchmark runs the values in workloads.
type sizes struct {
	series       int // series written in the timed phase
	anchors      int // extra long series warmed before the timed phase (0 = the timed series are warmed)
	warmPoints   int // per-series points of the untimed, deterministic warm-up
	timedPoints  int // per-series points of a closed-loop timed phase
	traceExtra   int // per-series points of the timed phase the traced run replays, when fewer than timedPoints
	batchLines   int // lines per timed batch
	warmLines    int // lines per warm-up batch
	pushers      int
	period       time.Duration // open-loop batch period (0 = closed loop)
	roundBatches int           // closed loop: batches each pusher sends per round
	roundReads   int           // closed loop: read-back reads after each round
}

// workload is one traffic mix. Every workload runs the same phases —
// setup, deterministic warm-up + checkpoint, timed phase, read-back,
// graceful restart — so every end-to-end metric is defined on each.
type workload struct {
	name  string
	why   string
	sizes sizes
	// family names the series the g-th ?match= family fans in, and
	// matches how many it selects; families of familySize series cover
	// the series set (0 = one family).
	family     func(g int) string
	familySize int
	matches    int
}

var workloads = []*workload{
	{
		name: "ingest-deep",
		why:  "few series pushed far past the raw ring: estimator, seal/encode, tier cascade and WAL framing dominate per point",
		sizes: sizes{
			series: 64, warmPoints: 8192, timedPoints: 49152, traceExtra: 16384,
			batchLines: 1000, warmLines: 1000, pushers: 2, roundBatches: 16, roundReads: 48,
		},
		family:  func(int) string { return "deep.s0*" },
		matches: 10,
	},
	{
		name: "ingest-wide",
		why:  "many short series just past the interval probe: interning, series and estimator map inserts and memory per series dominate",
		sizes: sizes{
			series: 32768, anchors: 128, warmPoints: 4096, timedPoints: 48,
			batchLines: 1000, warmLines: 1000, pushers: 2, roundBatches: 8, roundReads: 48,
		},
		family:  func(int) string { return "wide.s0001*" },
		matches: 10,
	},
	{
		name: "dashboard",
		why:  "fixed-rate ingest beside a closed-loop reader over history twice the block cache: read/write interference",
		sizes: sizes{
			series: 512, warmPoints: 4608, batchLines: 250, warmLines: 1000,
			pushers: 1, period: 5 * time.Millisecond,
		},
		family:     func(g int) string { return fmt.Sprintf("dash.g%02d.*", g) },
		familySize: 16,
		matches:    16,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// plan is one workload's generated inputs for one seed.
type plan struct {
	wl      *workload
	sz      sizes
	all     []*seriesSpec // every series written, timed ones first
	timedSS []*seriesSpec
	warmSS  []*seriesSpec
	warm    []*stream // one per pusher
	timed   []*stream // one per pusher
	seed    int64
}

func (w *workload) plan(seed int64, sz sizes) *plan {
	p := &plan{wl: w, sz: sz, seed: seed}
	for i := 0; i < sz.series; i++ {
		var id string
		switch w.name {
		case "ingest-deep":
			id = fmt.Sprintf("deep.s%02d", i)
		case "ingest-wide":
			id = fmt.Sprintf("wide.s%05d", i)
		default:
			id = fmt.Sprintf("dash.g%02d.s%02d", i/16, i%16)
		}
		p.timedSS = append(p.timedSS, newSeries(seed, id, i))
	}
	p.warmSS, p.all = p.timedSS, p.timedSS
	if sz.anchors > 0 {
		p.warmSS = nil
		for i := 0; i < sz.anchors; i++ {
			p.warmSS = append(p.warmSS, newSeries(seed, fmt.Sprintf("wide.a%03d", i), i))
		}
		p.all = append(append([]*seriesSpec{}, p.timedSS...), p.warmSS...)
	}
	warmPushers := sz.pushers
	if warmPushers < 2 {
		warmPushers = 2
	}
	for _, g := range split(p.warmSS, warmPushers) {
		p.warm = append(p.warm, newStream(g, sz.warmPoints))
	}
	if sz.anchors > 0 {
		for _, g := range split(p.timedSS, sz.pushers) {
			p.timed = append(p.timed, newStream(g, sz.timedPoints))
		}
	}
	return p
}

// startTimed builds the timed streams of workloads whose timed phase
// continues the warmed series (deep, dashboard) from where warm-up left
// them. extra caps each series at that many further points (0 = none).
func (p *plan) startTimed(extra int) {
	if p.sz.anchors > 0 {
		return
	}
	next := map[*seriesSpec]int{}
	for _, st := range p.warm {
		for i, s := range st.series {
			next[s] = st.next[i]
		}
	}
	p.timed = nil
	for _, g := range split(p.timedSS, p.sz.pushers) {
		st := newStream(g, 0)
		for i, s := range g {
			st.next[i] = next[s]
		}
		if extra > 0 {
			st.limit = next[g[0]] + extra
		}
		p.timed = append(p.timed, st)
	}
}

// counts reads a plan's per-series progress from its streams.
func counts(p *plan) func(*seriesSpec) int {
	n := map[*seriesSpec]int{}
	for _, sts := range [][]*stream{p.warm, p.timed} {
		for _, st := range sts {
			for i, s := range st.series {
				n[s] = st.next[i]
			}
		}
	}
	return func(s *seriesSpec) int { return n[s] }
}

// acked tracks, per series, how many points the daemon acknowledged —
// what a reader may expect to find — and the newest point of the newest
// acknowledged batch.
type acked struct {
	n      map[*seriesSpec]*atomic.Int64
	newest atomic.Pointer[mark]
}

type mark struct {
	s *seriesSpec
	k int
}

func newAcked(ss []*seriesSpec) *acked {
	a := &acked{n: make(map[*seriesSpec]*atomic.Int64, len(ss))}
	for _, s := range ss {
		a.n[s] = new(atomic.Int64)
	}
	return a
}

// publish records a stream's progress after its batch b was accepted.
func (a *acked) publish(st *stream, b *batch) {
	for i, s := range st.series {
		a.n[s].Store(int64(st.next[i]))
	}
	a.newest.Store(&mark{s: b.newest, k: b.newestIdx})
}

// readReq is one GET /api/v1/query.
type readReq struct {
	kind       string // recent, history or match
	s          *seriesSpec
	lo, hi     int // inclusive point-index window of a single-series read
	pattern    string
	fromMs     int64
	toMs       int64
	maxPoints  int
	stepSec    int // reconstruct grid pitch of a match read
	verify     bool
	wantPoints int
}

func (r readReq) url() string {
	q := url.Values{}
	if r.pattern != "" {
		q.Set("match", r.pattern)
		q.Set("reconstruct", "linear")
		q.Set("step", fmt.Sprint(r.stepSec))
	} else {
		q.Set("series", r.s.id)
	}
	q.Set("from", string(appendTS(nil, r.fromMs)))
	q.Set("to", string(appendTS(nil, r.toMs)))
	q.Set("max_points", fmt.Sprint(r.maxPoints))
	return "/api/v1/query?" + q.Encode()
}

// seriesRead reads points [lo, hi] of s; raw windows come back bit for
// bit when verify is set. Query windows are half-open, [from, to).
func seriesRead(kind string, s *seriesSpec, lo, hi, maxPoints int, verify bool) readReq {
	r := readReq{kind: kind, s: s, lo: lo, hi: hi, fromMs: s.tsMs(lo), toMs: s.tsMs(hi) + 1, maxPoints: maxPoints, verify: verify}
	if verify {
		r.wantPoints = hi - lo + 1
	}
	return r
}

// matchRead fans one request across family g over the six hours before
// the family's newest acknowledged point, resampled onto a 60 s grid.
func (p *plan) matchRead(g int, count func(*seriesSpec) int) readReq {
	pattern := p.wl.family(g)
	var to int64
	for _, s := range p.all {
		if n := count(s); n > 0 && matchesFamily(pattern, s.id) {
			if t := s.tsMs(n - 1); t > to {
				to = t
			}
		}
	}
	return readReq{kind: "match", pattern: pattern, fromMs: to - 6*3600*1000, toMs: to, maxPoints: 2000, stepSec: 60}
}

// matchesFamily mirrors the daemon's pattern rule for the families used
// here: a literal prefix followed by one trailing '*'.
func matchesFamily(pattern, id string) bool {
	prefix := pattern[:len(pattern)-1]
	return len(id) >= len(prefix) && id[:len(prefix)] == prefix
}

// The read mix is the same on every workload: a recent window, a
// history window and a ?match= fan-in, in turn, so each kind is one
// third of the reads. Equal shares are a choice, not a measurement: no
// recorded dashboard traffic fixes the proportions.
const mixKinds = 3

// mixRead is the i-th read of the mix.
//   - recent: the newest 256 points of a series, checked bit for bit.
//     With newest set (the dashboard) it ends at the newest point of the
//     newest acknowledged batch, which checks ingest→queryable; otherwise
//     it ends at a random point within the newest 3200, inside raw
//     retention (the ring keeps its capacity minus one sealed block,
//     3968 points).
//   - history: 1024 points within the newest 8192 of a series drawn
//     Zipf-skewed, max_points=512: mostly older than the raw ring's
//     4096, so sealed blocks are decoded (or found in the block cache)
//     and, past the ring, the downsampled tiers answer. It must return
//     points; every tier of the default retention still holds this span.
//   - match: a fan-in over one family with reconstruct=linear&step=60,
//     which must answer the whole family.
func (p *plan) mixRead(i int, rng *rand.Rand, zipf *rand.Zipf, count func(*seriesSpec) int, newest *mark) readReq {
	switch i % mixKinds {
	case 1:
		s := written(p.timedSS, func() int { return int(zipf.Uint64()) }, count)
		n := count(s)
		lo := max(n-8192, 0) + rng.Intn(max(min(n, 8192)-1024, 1))
		return seriesRead("history", s, lo, min(lo+1023, n-1), 512, false)
	case 2:
		families := 1
		if p.wl.familySize > 0 {
			families = len(p.timedSS) / p.wl.familySize
		}
		return p.matchRead(rng.Intn(families), count)
	}
	if newest != nil {
		return seriesRead("recent", newest.s, max(newest.k-255, 0), newest.k, 10000, true)
	}
	s := written(p.timedSS, func() int { return rng.Intn(len(p.timedSS)) }, count)
	hi := count(s) - 1
	if hi >= 256 {
		hi -= rng.Intn(min(hi-255, 3000))
	}
	return seriesRead("recent", s, max(hi-255, 0), hi, 10000, true)
}

// written draws series from ss until it finds one that holds points:
// early in a closed loop's first round some series hold none yet.
func written(ss []*seriesSpec, draw func() int, count func(*seriesSpec) int) *seriesSpec {
	for i := 0; i < 1<<16; i++ {
		if s := ss[draw()]; count(s) > 0 {
			return s
		}
	}
	return ss[0] // nothing written: the read fails its check
}

// readback is n reads of the mix for the closed-loop workloads, drawn
// against the series' progress so far.
func (p *plan) readback(rng *rand.Rand, zipf *rand.Zipf, count func(*seriesSpec) int, n int) []readReq {
	out := make([]readReq, n)
	for i := range out {
		out[i] = p.mixRead(i, rng, zipf, count, nil)
	}
	return out
}

func newZipf(rng *rand.Rand, n int) *rand.Zipf {
	return rand.NewZipf(rng, 1.2, 4, uint64(n-1))
}
