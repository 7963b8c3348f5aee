package dsp

import (
	"errors"
	"math"
	"math/cmplx"
	"sync"
)

// SlidingDFT maintains the DFT of the most recent N samples of a stream
// incrementally: each Push retires the oldest sample and admits the newest
// in O(N) bin updates, where a fresh FFT over the window would cost
// O(N log N). It is the spectral state behind the streaming Nyquist
// estimator, and its memory is bounded no matter how long the stream runs.
//
// The recurrence X_k ← (X_k − x_old + x_new)·e^{+j2πk/N} is exact in real
// arithmetic but accumulates rounding drift under floating point, so the
// state is periodically re-derived from the ring buffer with the package's
// FFT (see ResyncEvery). Only the one-sided bins 0..N/2 are kept; the
// analyzed signal is real, so the negative frequencies are conjugate
// mirrors carrying no extra information.
//
// The state is lazy. Until the window first fills, a Push only writes the
// ring buffer (N floats): the one-sided bins (N/2+1 complex accumulators)
// are allocated and computed exactly by an FFT when the N-th sample
// arrives, and the recurrence runs only from then on. A stream that never
// fills its window therefore never pays for the bins or the per-push bin
// updates. The twiddle table is shared read-only by every SlidingDFT of
// the same window length, and the FFT scratch a resync needs is borrowed
// from a per-length pool.
type SlidingDFT struct {
	n      int
	ring   []float64
	head   int          // ring slot the next Push overwrites (= oldest sample once warm)
	pushes int64        // total samples ever pushed
	bins   []complex128 // one-sided DFT of the current window once warm; nil before the first fill
	resync int64        // exact recompute cadence in pushes
	tables *sdftTables
}

// sdftTables is the read-only state every SlidingDFT of one window length
// shares.
type sdftTables struct {
	twiddle []complex128 // e^{+j2πk/n} per one-sided bin
	scratch sync.Pool    // *[]complex128 of length n: FFT input for resyncs
}

// sdftTablesBySize holds one *sdftTables per window length ever used. It
// grows with the number of distinct lengths, not with the number of
// streams.
var sdftTablesBySize sync.Map

func tablesFor(n int) *sdftTables {
	if t, ok := sdftTablesBySize.Load(n); ok {
		return t.(*sdftTables)
	}
	t := &sdftTables{twiddle: make([]complex128, n/2+1)}
	for k := range t.twiddle {
		t.twiddle[k] = cmplx.Exp(complex(0, 2*math.Pi*float64(k)/float64(n)))
	}
	t.scratch.New = func() any {
		buf := make([]complex128, n)
		return &buf
	}
	actual, _ := sdftTablesBySize.LoadOrStore(n, t)
	return actual.(*sdftTables)
}

// DefaultResyncEvery is the default number of pushes between exact FFT
// re-derivations of the sliding state. One resync per window length keeps
// the relative drift near machine epsilon while amortizing the FFT to
// O(log N) per push.
const DefaultResyncEvery = 0 // 0 selects the window length

// ErrWindowTooSmall is returned for sliding windows shorter than 2 samples.
var ErrWindowTooSmall = errors.New("dsp: sliding DFT window must hold at least 2 samples")

// NewSlidingDFT returns a sliding DFT over windows of n samples.
// resyncEvery is the number of pushes between exact FFT re-derivations;
// zero selects n. The first full window is always derived exactly,
// whatever the cadence.
func NewSlidingDFT(n int, resyncEvery int) (*SlidingDFT, error) {
	if n < 2 {
		return nil, ErrWindowTooSmall
	}
	if resyncEvery <= 0 {
		resyncEvery = n
	}
	return &SlidingDFT{
		n:      n,
		ring:   make([]float64, n),
		resync: int64(resyncEvery),
		tables: tablesFor(n),
	}, nil
}

// N returns the window length in samples.
func (s *SlidingDFT) N() int { return s.n }

// Bins returns the number of one-sided frequency bins (N/2 + 1).
func (s *SlidingDFT) Bins() int { return s.n/2 + 1 }

// Pushes returns the total number of samples pushed so far.
func (s *SlidingDFT) Pushes() int64 { return s.pushes }

// Warm reports whether a full window has been seen, i.e. the spectrum
// describes N real samples rather than a zero-padded prefix.
func (s *SlidingDFT) Warm() bool { return s.pushes >= int64(s.n) }

// Reset clears the state for reuse on a new stream without reallocating.
// Bins already allocated are kept and re-derived when the window next
// fills.
func (s *SlidingDFT) Reset() {
	for i := range s.ring {
		s.ring[i] = 0
	}
	s.head = 0
	s.pushes = 0
}

// Push slides the window one sample forward. Before the window fills it
// only records the sample; the N-th push derives the bins exactly, and
// later pushes update them by the recurrence, re-deriving them every
// ResyncEvery pushes.
func (s *SlidingDFT) Push(v float64) {
	old := s.ring[s.head]
	s.ring[s.head] = v
	s.head++
	if s.head == s.n {
		s.head = 0
	}
	s.pushes++
	if s.pushes < int64(s.n) {
		return
	}
	if s.pushes == int64(s.n) || s.pushes%s.resync == 0 {
		s.recompute()
		return
	}
	d := complex(v-old, 0)
	for k, w := range s.tables.twiddle {
		s.bins[k] = (s.bins[k] + d) * w
	}
}

// recompute re-derives the bins exactly from the ring buffer, clearing the
// rounding drift the O(N)-per-push recurrence accumulates.
func (s *SlidingDFT) recompute() {
	if s.bins == nil {
		s.bins = make([]complex128, s.Bins())
	}
	buf := s.transform()
	copy(s.bins, (*buf)[:len(s.bins)])
	s.tables.scratch.Put(buf)
}

// transform returns the DFT of the current window (zero-padded at the
// front until warm) in a pooled buffer the caller must return to
// s.tables.scratch.
func (s *SlidingDFT) transform() *[]complex128 {
	buf := s.tables.scratch.Get().(*[]complex128)
	x := *buf
	// Unroll the ring into window order: oldest sample first.
	for i := 0; i < s.n; i++ {
		x[i] = complex(s.ring[(s.head+i)%s.n], 0)
	}
	fftInPlace(x, false)
	return buf
}

// PSDInto fills power with the one-sided PSD of the current window under
// the Periodogram convention (rectangular window: bin powers sum to the
// window's mean squared value). power must have length Bins(). Before the
// window fills, the window is the zero-padded prefix Window reports, and
// its spectrum is derived on demand by an FFT.
func (s *SlidingDFT) PSDInto(power []float64) error {
	if len(power) != s.Bins() {
		return errors.New("dsp: sliding DFT power buffer has wrong length")
	}
	if s.Warm() {
		s.psd(power, s.bins)
		return nil
	}
	buf := s.transform()
	s.psd(power, (*buf)[:len(power)])
	s.tables.scratch.Put(buf)
	return nil
}

// psd converts one-sided DFT bins to Periodogram-convention powers.
func (s *SlidingDFT) psd(power []float64, bins []complex128) {
	n := float64(s.n)
	norm := 1 / (n * n)
	for k, b := range bins {
		re, im := real(b), imag(b)
		p := (re*re + im*im) * norm
		if k != 0 && !(s.n%2 == 0 && k == s.n/2) {
			p *= 2
		}
		power[k] = p
	}
}

// Window copies the current window contents, oldest sample first, into
// dst (which must have length N) — the batch-estimator view of the same
// samples, used by equivalence tests and aliased-window fallbacks. Before
// the window fills, the leading N − Pushes() entries are zero.
func (s *SlidingDFT) Window(dst []float64) error {
	if len(dst) != s.n {
		return errors.New("dsp: sliding DFT window buffer has wrong length")
	}
	for i := 0; i < s.n; i++ {
		dst[i] = s.ring[(s.head+i)%s.n]
	}
	return nil
}
