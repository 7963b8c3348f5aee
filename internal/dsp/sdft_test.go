package dsp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestSlidingDFTMatchesPeriodogram checks that once warm, the sliding PSD
// equals a batch Periodogram over the same window, for power-of-two and
// Bluestein-path window lengths alike.
func TestSlidingDFTMatchesPeriodogram(t *testing.T) {
	for _, n := range []int{16, 64, 100, 257} {
		rng := rand.New(rand.NewSource(int64(n)))
		sd, err := NewSlidingDFT(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		stream := make([]float64, 3*n+n/3)
		for i := range stream {
			stream[i] = math.Sin(2*math.Pi*float64(i)/17) + 0.3*rng.NormFloat64()
		}
		power := make([]float64, sd.Bins())
		window := make([]float64, n)
		for i, v := range stream {
			sd.Push(v)
			if !sd.Warm() || i%7 != 0 {
				continue
			}
			if err := sd.PSDInto(power); err != nil {
				t.Fatal(err)
			}
			if err := sd.Window(window); err != nil {
				t.Fatal(err)
			}
			want, err := Periodogram(window, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			for k := range power {
				if diff := math.Abs(power[k] - want.Power[k]); diff > 1e-9*(1+want.Power[k]) {
					t.Fatalf("n=%d push=%d bin %d: sliding %g batch %g", n, i, k, power[k], want.Power[k])
				}
			}
		}
	}
}

// TestSlidingDFTWindowOrder checks the ring unrolls oldest-first.
func TestSlidingDFTWindowOrder(t *testing.T) {
	sd, err := NewSlidingDFT(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		sd.Push(float64(i))
	}
	got := make([]float64, 4)
	if err := sd.Window(got); err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 4, 5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window = %v, want %v", got, want)
		}
	}
}

// TestSlidingDFTDriftBounded pushes far more samples than the resync
// cadence and checks the recurrence drift stays near machine epsilon.
func TestSlidingDFTDriftBounded(t *testing.T) {
	const n = 128
	sd, err := NewSlidingDFT(n, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	window := make([]float64, n)
	power := make([]float64, sd.Bins())
	for i := 0; i < 50*n; i++ {
		sd.Push(rng.NormFloat64())
	}
	if err := sd.PSDInto(power); err != nil {
		t.Fatal(err)
	}
	if err := sd.Window(window); err != nil {
		t.Fatal(err)
	}
	want, err := Periodogram(window, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, p := range want.Power {
		total += p
	}
	for k := range power {
		if diff := math.Abs(power[k] - want.Power[k]); diff > 1e-8*total {
			t.Fatalf("bin %d drifted: sliding %g batch %g", k, power[k], want.Power[k])
		}
	}
}

// TestSlidingDFTReset checks a reset estimator behaves like a fresh one.
func TestSlidingDFTReset(t *testing.T) {
	sd, err := NewSlidingDFT(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		sd.Push(float64(i))
	}
	sd.Reset()
	if sd.Warm() || sd.Pushes() != 0 {
		t.Fatalf("reset left warm=%v pushes=%d", sd.Warm(), sd.Pushes())
	}
	vals := []float64{1, -2, 3, -4, 5, -6, 7, -8}
	for _, v := range vals {
		sd.Push(v)
	}
	power := make([]float64, sd.Bins())
	if err := sd.PSDInto(power); err != nil {
		t.Fatal(err)
	}
	want, err := Periodogram(vals, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range power {
		if math.Abs(power[k]-want.Power[k]) > 1e-9 {
			t.Fatalf("bin %d after reset: %g want %g", k, power[k], want.Power[k])
		}
	}
}

// TestSlidingDFTPrewarmIsZeroPaddedPrefix checks that before the window
// fills, Window reports the pushed prefix behind leading zeros and PSDInto
// its periodogram, on a fresh and on a reset sliding DFT alike, for
// power-of-two and Bluestein-path lengths.
func TestSlidingDFTPrewarmIsZeroPaddedPrefix(t *testing.T) {
	for _, n := range []int{16, 100} {
		sd, err := NewSlidingDFT(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		power := make([]float64, sd.Bins())
		window := make([]float64, n)
		for _, phase := range []string{"fresh", "after reset"} {
			if phase == "after reset" {
				// Warm up and past a resync first, so the reset has
				// live bins and a wrapped ring to clear.
				for i := 0; i < 2*n+3; i++ {
					sd.Push(rng.NormFloat64())
				}
				sd.Reset()
			}
			prefix := make([]float64, 0, n)
			for len(prefix) < n-1 {
				v := 3 + math.Sin(float64(len(prefix))) + 0.2*rng.NormFloat64()
				sd.Push(v)
				prefix = append(prefix, v)
				if sd.Warm() {
					t.Fatalf("n=%d %s: warm after %d pushes", n, phase, len(prefix))
				}
				if err := sd.Window(window); err != nil {
					t.Fatal(err)
				}
				want := make([]float64, n)
				copy(want[n-len(prefix):], prefix)
				for i := range want {
					if window[i] != want[i] {
						t.Fatalf("n=%d %s push %d: window = %v, want %v", n, phase, len(prefix), window, want)
					}
				}
				if err := sd.PSDInto(power); err != nil {
					t.Fatal(err)
				}
				ref, err := Periodogram(want, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				for k := range power {
					if diff := math.Abs(power[k] - ref.Power[k]); diff > 1e-9*(1+ref.Power[k]) {
						t.Fatalf("n=%d %s push %d bin %d: sliding %g, zero-padded periodogram %g",
							n, phase, len(prefix), k, power[k], ref.Power[k])
					}
				}
			}
		}
	}
}

// TestSlidingDFTFirstFillIsExact checks that the window's first fill
// derives the bins exactly even when the resync cadence does not divide
// the window length, so no pre-warm recurrence state leaks into the first
// warm spectrum.
func TestSlidingDFTFirstFillIsExact(t *testing.T) {
	const n = 64
	sd, err := NewSlidingDFT(n, 3*n/2)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1e6 + math.Sin(2*math.Pi*float64(i)/7)
		sd.Push(vals[i])
	}
	power := make([]float64, sd.Bins())
	if err := sd.PSDInto(power); err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, n)
	for i, v := range vals {
		want[i] = complex(v, 0)
	}
	fftInPlace(want, false)
	ref := make([]float64, sd.Bins())
	sd.psd(ref, want[:sd.Bins()])
	for k := range power {
		if power[k] != ref[k] {
			t.Fatalf("bin %d: first fill %g, exact FFT %g", k, power[k], ref[k])
		}
	}
}

// TestSlidingDFTConcurrentStreams runs same-length sliding DFTs on
// several goroutines at once, all sharing one twiddle table and scratch
// pool, and requires every spectrum to match a serial run bit for bit.
func TestSlidingDFTConcurrentStreams(t *testing.T) {
	const n, pushes = 64, 5 * 64
	stream := make([]float64, pushes)
	for i := range stream {
		stream[i] = math.Sin(2*math.Pi*float64(i)/11) + 0.1*float64(i%5)
	}
	spectra := func() [][]float64 {
		sd, _ := NewSlidingDFT(n, 0) // n is a valid length
		var out [][]float64
		for i, v := range stream {
			sd.Push(v)
			if i%9 == 0 {
				power := make([]float64, sd.Bins())
				_ = sd.PSDInto(power) // sized to Bins()
				out = append(out, power)
			}
		}
		return out
	}
	want := spectra()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := spectra()
			for i := range want {
				for k := range want[i] {
					if got[i][k] != want[i][k] {
						t.Errorf("spectrum %d bin %d: %g concurrently, %g serially", i, k, got[i][k], want[i][k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSlidingDFTSharesTables checks that sliding DFTs of one window
// length share a single twiddle table.
func TestSlidingDFTSharesTables(t *testing.T) {
	a, err := NewSlidingDFT(48, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSlidingDFT(48, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewSlidingDFT(50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.tables != b.tables {
		t.Fatal("same-length sliding DFTs built separate tables")
	}
	if a.tables == c.tables || len(c.tables.twiddle) != c.Bins() {
		t.Fatalf("length-50 tables: shared=%v bins=%d twiddles=%d", a.tables == c.tables, c.Bins(), len(c.tables.twiddle))
	}
}

// TestSlidingDFTRejectsTinyWindows checks validation.
func TestSlidingDFTRejectsTinyWindows(t *testing.T) {
	if _, err := NewSlidingDFT(1, 0); err == nil {
		t.Fatal("want error for 1-sample window")
	}
}

// BenchmarkSlidingDFTPush measures the O(N) incremental update against the
// O(N log N) full recompute it replaces.
func BenchmarkSlidingDFTPush(b *testing.B) {
	const n = 1440 // one day of 1-minute polls
	sd, err := NewSlidingDFT(n, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		sd.Push(float64(i % 37))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sd.Push(float64(i % 53))
	}
}
