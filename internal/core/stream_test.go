package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/series"
)

func dayTrace(t *testing.T, n int, interval time.Duration, noise float64, seed int64) *series.Uniform {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		ts := float64(i) * interval.Seconds()
		vals[i] = 50 +
			5*math.Sin(2*math.Pi*12/86400*ts) +
			2*math.Sin(2*math.Pi*40/86400*ts) +
			noise*rng.NormFloat64()
	}
	u, err := series.NewUniform(time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC), interval, vals)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestStreamMatchesBatch is the equivalence contract: a StreamEstimator
// fed a whole trace produces the same estimate as the batch Estimator
// over that trace, to floating-point accuracy.
func TestStreamMatchesBatch(t *testing.T) {
	u := dayTrace(t, 1440, time.Minute, 0.05, 4)

	var batch Estimator
	want, err := batch.Estimate(u)
	if err != nil {
		t.Fatal(err)
	}

	st, err := NewStreamEstimator(StreamConfig{Interval: time.Minute, WindowSamples: u.Len()})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range u.Values {
		st.Push(v)
	}
	got, err := st.Current()
	if err != nil {
		t.Fatal(err)
	}

	relClose := func(name string, g, w float64) {
		t.Helper()
		if diff := math.Abs(g - w); diff > 1e-9*(1+math.Abs(w)) {
			t.Fatalf("%s: streaming %g, batch %g", name, g, w)
		}
	}
	relClose("NyquistRate", got.NyquistRate, want.NyquistRate)
	relClose("CutoffFreq", got.CutoffFreq, want.CutoffFreq)
	relClose("ReductionRatio", got.ReductionRatio, want.ReductionRatio)
	relClose("EnergyCaptured", got.EnergyCaptured, want.EnergyCaptured)
	if got.Aliased != want.Aliased {
		t.Fatalf("aliased: streaming %v, batch %v", got.Aliased, want.Aliased)
	}
}

// TestStreamMatchesMovingWindow checks the sliding emissions reproduce
// the batch moving-window scan window for window.
func TestStreamMatchesMovingWindow(t *testing.T) {
	const (
		window = 256
		step   = 64
	)
	u := dayTrace(t, 2048, 30*time.Second, 0.02, 11)

	var batch Estimator
	wins, err := batch.MovingWindow(u, window*30*time.Second, step*30*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	st, err := NewStreamEstimator(StreamConfig{
		Interval:      30 * time.Second,
		WindowSamples: window,
		EmitEvery:     step,
		Start:         u.Start,
	})
	if err != nil {
		t.Fatal(err)
	}
	ups := st.Feed(u.Values)

	if len(ups) != len(wins) {
		t.Fatalf("emissions: streaming %d, batch %d", len(ups), len(wins))
	}
	for i, up := range ups {
		w := wins[i]
		if !up.WindowStart.Equal(w.WindowStart) {
			t.Fatalf("window %d start: streaming %v, batch %v", i, up.WindowStart, w.WindowStart)
		}
		if (up.Err != nil) != (w.Err != nil) {
			t.Fatalf("window %d: streaming err %v, batch err %v", i, up.Err, w.Err)
		}
		if w.Err != nil {
			continue
		}
		if diff := math.Abs(up.Result.NyquistRate - w.Result.NyquistRate); diff > 1e-6*(1+w.Result.NyquistRate) {
			t.Fatalf("window %d rate: streaming %g, batch %g", i, up.Result.NyquistRate, w.Result.NyquistRate)
		}
	}
}

// TestStreamAliasingStreak feeds a signal whose energy sits entirely at
// the top of the analyzed band — the aliased signature — and checks the
// risk signal.
func TestStreamAliasingStreak(t *testing.T) {
	st, err := NewStreamEstimator(StreamConfig{Interval: time.Second, WindowSamples: 64})
	if err != nil {
		t.Fatal(err)
	}
	var last *StreamUpdate
	emitted := 0
	for i := 0; i < 200; i++ {
		if up := st.Push(float64(1 - 2*(i%2))); up != nil {
			emitted++
			if !errors.Is(up.Err, ErrAliased) {
				t.Fatalf("emission %d: want ErrAliased, got %v", emitted, up.Err)
			}
			if up.AliasStreak != emitted {
				t.Fatalf("emission %d: streak %d", emitted, up.AliasStreak)
			}
			if up.SuggestedInterval != time.Second/2 {
				t.Fatalf("emission %d: suggested %v, want 500ms", emitted, up.SuggestedInterval)
			}
			last = up
		}
	}
	if last == nil || !last.Result.Aliased {
		t.Fatal("no aliased emissions")
	}
}

// TestStreamSweetSpot checks the suggested interval applies the headroom
// factor to the estimated rate.
func TestStreamSweetSpot(t *testing.T) {
	u := dayTrace(t, 1440, time.Minute, 0, 4)
	st, err := NewStreamEstimator(StreamConfig{Interval: time.Minute, WindowSamples: u.Len(), Headroom: 2})
	if err != nil {
		t.Fatal(err)
	}
	var last *StreamUpdate
	for _, v := range u.Values {
		if up := st.Push(v); up != nil {
			last = up
		}
	}
	if last == nil {
		t.Fatal("no emission after a full window")
	}
	want := time.Duration(float64(time.Second) / (2 * last.Result.NyquistRate))
	if last.SuggestedInterval != want {
		t.Fatalf("suggested %v, want %v", last.SuggestedInterval, want)
	}
}

// TestStreamWarmupAndReset checks nothing is emitted before a full
// window, Current reports ErrTooShort, and Reset restores a fresh state.
func TestStreamWarmupAndReset(t *testing.T) {
	st, err := NewStreamEstimator(StreamConfig{Interval: time.Second, WindowSamples: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 31; i++ {
		if up := st.Push(float64(i)); up != nil {
			t.Fatalf("emission during warmup at push %d", i)
		}
	}
	if _, err := st.Current(); !errors.Is(err, ErrTooShort) {
		t.Fatalf("Current before warm: %v, want ErrTooShort", err)
	}
	if up := st.Push(1); up == nil {
		t.Fatal("no emission at window fill")
	}
	st.Reset()
	if st.Warm() || st.Seen() != 0 {
		t.Fatalf("reset left warm=%v seen=%d", st.Warm(), st.Seen())
	}
	if _, err := st.Current(); !errors.Is(err, ErrTooShort) {
		t.Fatalf("Current after reset: %v, want ErrTooShort", err)
	}
}

// TestStreamPushSteadyStateAllocs checks the non-emitting, non-resync
// push path allocates nothing — the bounded-memory property.
func TestStreamPushSteadyStateAllocs(t *testing.T) {
	st, err := NewStreamEstimator(StreamConfig{
		Interval:      time.Second,
		WindowSamples: 256,
		EmitEvery:     1 << 30,
		ResyncEvery:   1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		st.Push(float64(i % 7))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		st.Push(3)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push allocates %v objects per call", allocs)
	}
}

// TestStreamConfigValidation exercises the config error paths.
func TestStreamConfigValidation(t *testing.T) {
	cases := []StreamConfig{
		{}, // missing interval
		{Interval: time.Second, WindowSamples: 8},  // window too short
		{Interval: time.Second, EnergyCutoff: 1.5}, // cutoff out of range
		{Interval: time.Second, AliasedGuard: 2},   // guard above 1
	}
	for i, cfg := range cases {
		if _, err := NewStreamEstimator(cfg); err == nil {
			t.Fatalf("case %d: config %+v accepted", i, cfg)
		}
	}
}

// BenchmarkStreamEstimatorSteady measures the warm push path at the
// serving defaults (window 256, an emission every 8 pushes), resyncs and
// emissions included: one op is one point.
func BenchmarkStreamEstimatorSteady(b *testing.B) {
	st, err := NewStreamEstimator(StreamConfig{
		Interval:      time.Second,
		WindowSamples: 256,
		EmitEvery:     8,
	})
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = math.Sin(2*math.Pi*float64(i)/64) + 0.3*math.Sin(2*math.Pi*float64(i)/9)
	}
	for _, v := range vals[:256] {
		st.Push(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Push(vals[i%len(vals)])
	}
}
