package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/dcsim"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// epochMs is the first timestamp any generated series may carry. Every
// input is synthetic time, so "recent" always means "near the newest
// point sent", never wall-clock time.
const epochMs = int64(1_700_000_000_000)

// pollStepsMs are the poll intervals series draw from.
var pollStepsMs = []int64{1000, 5000, 10000, 15000, 30000, 60000}

// seriesSpec is one generated series: a seeded band-limited signal
// polled on a fixed grid. Its true Nyquist rate is 2 × the band limit,
// which is what nyquist_err_median scores the daemon's estimate against.
type seriesSpec struct {
	id     string
	sig    *dcsim.BandLimited
	stepMs int64
	t0Ms   int64
}

// newSeries builds the spec of the i-th series of a set, named id. Its
// poll step, band limit and amplitude are spread evenly over the set by
// index, so every seed yields the same mix of shapes and the same work;
// the seed draws the signal's components and phases.
func newSeries(seed int64, id string, i int) *seriesSpec {
	h := fnv.New64a()
	h.Write([]byte(id))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64()&math.MaxInt64)))
	step := pollStepsMs[i%len(pollStepsMs)]
	fs := 1000 / float64(step)
	// Band limits between 4% and 20% of the poll rate: every series is
	// oversampled 2.5-12x, and its edge sits 10-50 DFT bins into a
	// 256-sample window. Golden-ratio strides spread the draws evenly.
	band := fs * (0.04 + 0.16*math.Mod(float64(i)*0.6180339887, 1))
	amp := 10 + 990*math.Mod(float64(i)*0.7548776662, 1)
	sig, err := dcsim.NewBandLimited(rng, band, amp, 4)
	if err != nil {
		panic(err) // band > 0 by construction
	}
	return &seriesSpec{id: id, sig: sig, stepMs: step, t0Ms: epochMs + rng.Int63n(step)}
}

func (s *seriesSpec) tsMs(k int) int64 { return s.t0Ms + int64(k)*s.stepMs }

func (s *seriesSpec) time(k int) time.Time { return time.UnixMilli(s.tsMs(k)) }

// value is the k-th sample, quantized to 1e-3 like a real sensor
// reading, so its shortest decimal form parses back to the same bits.
func (s *seriesSpec) value(k int) float64 {
	v := s.sig.At(float64(int64(k)*s.stepMs) / 1000)
	return math.Round(v*1000) / 1000
}

// nyquistHz is the ground-truth Nyquist rate.
func (s *seriesSpec) nyquistHz() float64 { return 2 * s.sig.BandLimit() }

// appendTS writes a millisecond timestamp as decimal Unix seconds, the
// exact form the daemon parses without float rounding.
func appendTS(b []byte, ms int64) []byte {
	b = strconv.AppendInt(b, ms/1000, 10)
	frac := ms % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

// appendLine writes the k-th point of s as one ingest line.
func appendLine(b []byte, s *seriesSpec, k int) []byte {
	b = append(b, `{"series":"`...)
	b = append(b, s.id...)
	b = append(b, `","ts":`...)
	b = appendTS(b, s.tsMs(k))
	b = append(b, `,"value":`...)
	b = strconv.AppendFloat(b, s.value(k), 'f', -1, 64)
	return append(b, "}\n"...)
}

// stream is one pusher's deterministic input: round-robin over the
// series it owns, one point per series per line, each series in time
// order. Batch n of a stream is the same bytes on every run with the
// same seed, however fast the daemon takes them.
type stream struct {
	series []*seriesSpec
	next   []int // next point index per series
	cur    int
	limit  int // per-series point cap; 0 = unbounded
}

func newStream(ss []*seriesSpec, limit int) *stream {
	return &stream{series: ss, next: make([]int, len(ss)), limit: limit}
}

// done reports the stream reached its per-series cap. Series advance in
// lockstep from equal starts, so the current one speaks for all.
func (st *stream) done() bool {
	return len(st.series) == 0 || (st.limit > 0 && st.next[st.cur] >= st.limit)
}

// batch is one generated request: the body, the same points already
// parsed (for the in-process replays), and what it touched.
type batch struct {
	body  []byte
	pts   []tsdb.BatchPoint
	lines int
	// newest is the last line's series and point index: the point an
	// ingest→queryable check reads back once the batch is acknowledged.
	newest    *seriesSpec
	newestIdx int
}

// fill replaces b's contents with up to n lines from the stream and
// returns the number written (0 once the stream is done). Points are
// materialized only when withPoints is set.
func (st *stream) fill(b *batch, n int, withPoints bool) int {
	b.body = b.body[:0]
	b.pts = b.pts[:0]
	b.lines = 0
	for b.lines < n && !st.done() {
		s, k := st.series[st.cur], st.next[st.cur]
		b.body = appendLine(b.body, s, k)
		if withPoints {
			b.pts = append(b.pts, tsdb.BatchPoint{ID: s.id, P: series.Point{Time: s.time(k), Value: s.value(k)}})
		}
		b.newest, b.newestIdx = s, k
		st.next[st.cur]++
		st.cur = (st.cur + 1) % len(st.series)
		b.lines++
	}
	return b.lines
}

// split deals series round-robin into n disjoint groups, one per pusher,
// so no two connections ever carry the same series and per-series order
// holds without coordination.
func split(ss []*seriesSpec, n int) [][]*seriesSpec {
	out := make([][]*seriesSpec, n)
	for i, s := range ss {
		out[i%n] = append(out[i%n], s)
	}
	return out
}
