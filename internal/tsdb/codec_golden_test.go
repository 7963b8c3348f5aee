package tsdb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/series"
)

var updateCodec = flag.Bool("update-codec", false, "regenerate testdata/codec_bytes.golden")

// The codec golden pins the compressed-block format byte for byte. WAL
// segments and snapshots already on disk hold these bytes, so any change
// to the bit kernel or the field layout must reproduce every digest
// without regeneration; only a deliberate format change (with a migration
// story for persisted data) may run -update-codec.

// goldenTimes are the timestamp shapes of the point corpus.
var goldenTimes = []struct {
	name string
	gap  func(rng *rand.Rand) time.Duration
}{
	// A regular poll grid: every delta-of-delta is zero.
	{"regular", func(*rand.Rand) time.Duration { return 15 * time.Second }},
	// Sub-millisecond and sub-4-second jitter around a grid, with
	// duplicate stamps: the 21- and 33-bit delta-of-delta buckets.
	{"jitter", func(rng *rand.Rand) time.Duration {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return 10*time.Second + time.Duration(rng.Int63n(int64(3*time.Second)))
		default:
			return 10*time.Second + time.Duration(rng.Int63n(int64(time.Millisecond)))
		}
	}},
	// Arbitrary shifts up to ~9.8 hours: delta-of-deltas past 2^32 ns
	// that need the full 64-bit field.
	{"shift", func(rng *rand.Rand) time.Duration { return time.Duration(rng.Int63n(1 << 45)) }},
}

// goldenValues are the value shapes of both corpora.
var goldenValues = []struct {
	name string
	val  func(rng *rand.Rand, i int, prev float64) float64
}{
	// Idle counters: long runs of one reading, the one-bit XOR case.
	{"repeat", func(rng *rand.Rand, i int, prev float64) float64 {
		if i > 0 && rng.Intn(10) != 0 {
			return prev
		}
		return float64(rng.Intn(1000))
	}},
	// Gauges quantized to 1e-3: shared high bits, window reuse.
	{"quant", func(rng *rand.Rand, i int, prev float64) float64 {
		return math.Round((50+20*math.Sin(float64(i)/7)+rng.NormFloat64())*1000) / 1000
	}},
	// Uniformly random bit patterns: the widest XOR windows.
	{"randbits", func(rng *rand.Rand, _ int, _ float64) float64 { return math.Float64frombits(rng.Uint64()) }},
	// Quiet NaNs with random payloads: bit-exact round trip required.
	{"nan", func(rng *rand.Rand, _ int, _ float64) float64 {
		return math.Float64frombits(0x7ff8000000000000 | rng.Uint64()&0x0007ffffffffffff)
	}},
}

// goldenBlocksPerFamily blocks of 1..goldenMaxLen points (or buckets) per
// time×value family.
const (
	goldenBlocksPerFamily = 12
	goldenMaxLen          = 96
)

// codecHasher digests one family: what each block persists — point
// count, payload length and payload bytes — plus the decode verdict at
// every truncation length of the payload.
type codecHasher struct {
	h                   hash.Hash
	blocks, bytes, cuts int
}

func newCodecHasher() *codecHasher { return &codecHasher{h: sha256.New()} }

func (c *codecHasher) block(n int, data []byte, decodes func([]byte) bool) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	c.h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(len(data)))
	c.h.Write(buf[:])
	c.h.Write(data)
	verdicts := make([]byte, 0, len(data)+1)
	for cut := 0; cut <= len(data); cut++ {
		if decodes(data[:cut]) {
			verdicts = append(verdicts, 1)
		} else {
			verdicts = append(verdicts, 0)
		}
	}
	c.h.Write(verdicts)
	c.blocks++
	c.bytes += len(data)
	c.cuts += len(verdicts)
}

func (c *codecHasher) line(name string) string {
	return fmt.Sprintf("%s blocks=%d bytes=%d cuts=%d sha256=%s\n",
		name, c.blocks, c.bytes, c.cuts, hex.EncodeToString(c.h.Sum(nil)))
}

// pointFamily encodes one time×value family and digests it. A truncated
// payload must decode (RebuildBlock) exactly when the cut leaves every
// point's bits intact.
func pointFamily(t *testing.T, ti, vi int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(1000*ti + vi + 1)))
	c := newCodecHasher()
	for b := 0; b < goldenBlocksPerFamily; b++ {
		n := 1 + rng.Intn(goldenMaxLen)
		pts := make([]series.Point, n)
		ts := blockEpoch.Add(time.Duration(rng.Int63n(int64(24 * time.Hour))))
		v := 0.0
		for i := range pts {
			if i > 0 {
				ts = ts.Add(goldenTimes[ti].gap(rng))
			}
			v = goldenValues[vi].val(rng, i, v)
			pts[i] = series.Point{Time: ts, Value: v}
		}
		blk, err := EncodeBlock(pts)
		if err != nil {
			t.Fatalf("%s/%s block %d: encode: %v", goldenTimes[ti].name, goldenValues[vi].name, b, err)
		}
		c.block(n, blk.Data(), func(data []byte) bool {
			_, err := RebuildBlock(data, n)
			if err != nil && !errors.Is(err, ErrCorruptBlock) {
				t.Fatalf("truncated rebuild: unexpected error %v", err)
			}
			return err == nil
		})
	}
	return c.line("points/" + goldenTimes[ti].name + "/" + goldenValues[vi].name)
}

// bucketFamily encodes one family of summary-tier bucket blocks: tier
// grids that are regular or retuned mid-block, with min/max/sum drawn
// from one value shape and counts that vary per bucket.
func bucketFamily(t *testing.T, retune bool, vi int) string {
	t.Helper()
	seed := int64(500 + vi)
	name := "buckets/regular/" + goldenValues[vi].name
	if retune {
		seed += 100
		name = "buckets/retune/" + goldenValues[vi].name
	}
	rng := rand.New(rand.NewSource(seed))
	c := newCodecHasher()
	bb := newBucketBlockBuilder()
	for b := 0; b < goldenBlocksPerFamily; b++ {
		n := 1 + rng.Intn(goldenMaxLen)
		width := time.Duration(1+rng.Intn(600)) * time.Second
		start := blockEpoch.Add(time.Duration(rng.Int63n(int64(24 * time.Hour)))).Truncate(width)
		count := int64(1 + rng.Intn(64))
		v := 0.0
		bb.reset()
		for i := 0; i < n; i++ {
			if retune && rng.Intn(16) == 0 {
				width = time.Duration(1+rng.Intn(3600)) * time.Second
			}
			if rng.Intn(4) == 0 {
				count = int64(1 + rng.Intn(1<<20))
			}
			v = goldenValues[vi].val(rng, i, v)
			lo := v
			hi := goldenValues[vi].val(rng, i, v)
			bk := bucket{start: start, end: start.Add(width), min: lo, max: hi, sum: lo + hi, count: count}
			if err := bb.append(bk); err != nil {
				t.Fatalf("%s block %d: append: %v", name, b, err)
			}
			start = start.Add(width)
		}
		blk := bb.finish()
		c.block(n, blk.data, func(data []byte) bool {
			return bucketBlock{data: data, n: n}.each(func(bucket) {}) == nil
		})
	}
	return c.line(name)
}

// TestCodecBytesGolden pins the encoded bytes of every corpus block and
// the decode verdict at every truncation length.
func TestCodecBytesGolden(t *testing.T) {
	var b strings.Builder
	for ti := range goldenTimes {
		for vi := range goldenValues {
			b.WriteString(pointFamily(t, ti, vi))
		}
	}
	for _, retune := range []bool{false, true} {
		for vi := range goldenValues {
			b.WriteString(bucketFamily(t, retune, vi))
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "codec_bytes.golden")
	if *updateCodec {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run: go test ./internal/tsdb -run TestCodecBytesGolden -update-codec): %v", err)
	}
	if got != string(want) {
		t.Errorf("codec bytes drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
