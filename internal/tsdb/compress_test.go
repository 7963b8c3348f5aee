package tsdb

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/series"
)

// TestCompressedStoreEquivalence pins the central compression contract:
// with unbounded retention (no eviction on either side), a compressed
// store returns exactly the points an uncompressed store does — same
// instants, bit-identical values — for monotonic and for out-of-order
// append streams.
func TestCompressedStoreEquivalence(t *testing.T) {
	for name, outOfOrder := range map[string]bool{"monotonic": false, "out-of-order": true} {
		t.Run(name, func(t *testing.T) {
			plain := New(Config{Shards: 1})
			comp := New(Config{Shards: 1, Retention: RetentionConfig{CompressBlock: 32}})
			const id = "host/metric"
			pts := diurnalWorkload(500)
			if outOfOrder {
				// Swap pairs so some appends go backwards in time.
				for i := 0; i+1 < len(pts); i += 5 {
					pts[i], pts[i+1] = pts[i+1], pts[i]
				}
			}
			for _, p := range pts {
				plain.Append(id, p)
				comp.Append(id, p)
			}
			want, err := plain.Full(id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := comp.Full(id)
			if err != nil {
				t.Fatal(err)
			}
			// Both engines order by time; the uncompressed ring keeps
			// append order inside equal-time runs, the compressed store
			// sorts stably — the point multisets must still match.
			if len(got.Points) != len(want.Points) {
				t.Fatalf("compressed store returned %d points, uncompressed %d", len(got.Points), len(want.Points))
			}
			for i := range want.Points {
				if !got.Points[i].Time.Equal(want.Points[i].Time) {
					t.Fatalf("point %d: time %v vs %v", i, got.Points[i].Time, want.Points[i].Time)
				}
				if math.Float64bits(got.Points[i].Value) != math.Float64bits(want.Points[i].Value) {
					t.Fatalf("point %d: value %v vs %v", i, got.Points[i].Value, want.Points[i].Value)
				}
			}
		})
	}
}

// TestCompressedCascade drives a small bounded compressed store far past
// its capacity and checks the retention invariants survive
// block-granular eviction: no write ever fails, every append is either
// still raw or was compacted into the tiers, the raw store breathes
// within [capacity−block, capacity], and mid-history queries still
// answer from the tiers.
func TestCompressedCascade(t *testing.T) {
	db := New(Config{
		Shards: 1,
		Retention: RetentionConfig{
			RawCapacity: 64, TierCapacity: 16, Tiers: 2, Fanout: 4, CompressBlock: 16,
		},
	})
	const id = "host/metric"
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	const n = 5000
	for i := 0; i < n; i++ {
		db.Append(id, series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i % 97)})
		if st, _ := db.SeriesStats(id); st.RawPoints > 64 {
			t.Fatalf("after %d appends: raw store holds %d points, capacity 64", i+1, st.RawPoints)
		}
	}
	st, err := db.SeriesStats(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Appends != n {
		t.Fatalf("appends %d, want %d", st.Appends, n)
	}
	if got := st.Compacted + int64(st.RawPoints); got != n {
		t.Fatalf("compacted %d + raw %d = %d, want every append accounted (%d)", st.Compacted, st.RawPoints, got, n)
	}
	if st.RawPoints < 64-16 {
		t.Fatalf("raw store holds %d points, want at least capacity-block (%d)", st.RawPoints, 64-16)
	}
	if st.CompressedBytes == 0 {
		t.Fatal("compressed store reports zero sealed bytes")
	}
	// A window just behind the raw store's retained band must answer
	// from the tiers alone (these tiny tiers only reach ~80 s back;
	// anything older was legitimately forgotten by the last tier).
	res, err := db.Query(id, st.RawOldest.Add(-30*time.Second), st.RawOldest, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("behind-raw query returned nothing: the cascade lost the tiers")
	}
	for _, ts := range res.Tiers {
		if ts.Tier == 0 {
			t.Fatalf("behind-raw query read the raw store: %+v", res.Tiers)
		}
	}
}

// decodedRetention walks a series' tiers by decoding every bucket, sealed
// blocks included, and returns the raw point count and each tier's
// sample total (finalized plus in-progress buckets).
func decodedRetention(db *DB, id string) (raw int64, tierSamples []int64) {
	sh := db.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	m := sh.series[id]
	for _, tr := range m.tiers {
		var n int64
		tr.each(time.Time{}, time.Time{}, func(b bucket) { n += b.count })
		if tr.curSet {
			n += tr.cur.count
		}
		tierSamples = append(tierSamples, n)
	}
	return int64(m.rawSize()), tierSamples
}

// checkConservation requires the series' counters to match a decode of
// what it retains: Compacted is every append that left the raw store,
// each tier's Samples is its decoded bucket-count total, and Dropped is
// exactly what the last tier let go — appends minus everything retained.
func checkConservation(t *testing.T, db *DB, id, context string) SeriesStats {
	t.Helper()
	st, err := db.SeriesStats(id)
	if err != nil {
		t.Fatal(err)
	}
	raw, tiers := decodedRetention(db, id)
	if len(tiers) != len(st.Tiers) {
		t.Fatalf("%s: %d tiers decoded, stats report %d", context, len(tiers), len(st.Tiers))
	}
	retained := raw
	for k, n := range tiers {
		if st.Tiers[k].Samples != n {
			t.Fatalf("%s: tier %d reports %d samples, decoding finds %d", context, k, st.Tiers[k].Samples, n)
		}
		retained += n
	}
	if st.Compacted != st.Appends-raw {
		t.Fatalf("%s: compacted %d, want appends %d - raw %d", context, st.Compacted, st.Appends, raw)
	}
	if st.Dropped != st.Appends-retained {
		t.Fatalf("%s: dropped %d, want appends %d - decoded retained %d", context, st.Dropped, st.Appends, retained)
	}
	return *st
}

// TestLastTierDropAccounting drives a long cascade — jittered cadence,
// Nyquist retunes changing every tier's width mid-stream — through three
// tiers until the last one has evicted many times, in ring and in
// compressed mode. The last tier counts what it evicts from sealed-block
// metadata without decoding; the counters must match a reference computed
// by decoding everything retained, live and after a snapshot restore into
// smaller tiers (whose restore loop evicts through the same path).
func TestLastTierDropAccounting(t *testing.T) {
	for _, compress := range []int{0, 16} {
		t.Run(fmt.Sprintf("compress=%d", compress), func(t *testing.T) {
			rc := RetentionConfig{RawCapacity: 64, TierCapacity: 24, Tiers: 3, Fanout: 4, CompressBlock: compress}
			db := New(Config{Shards: 1, StrictAppend: true, Retention: rc})
			const id = "host/metric"
			ts := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
			for i := 0; i < 40000; i++ {
				if i%5000 == 0 {
					db.SetNyquistRate(id, []float64{0.5, 0.05, 0.2, 0.01}[(i/5000)%4])
				}
				ts = ts.Add(time.Second + time.Duration(i*7919%1000)*time.Millisecond)
				if err := db.Append(id, series.Point{Time: ts, Value: float64(i%97) * 0.125}); err != nil {
					t.Fatal(err)
				}
			}
			st := checkConservation(t, db, id, "live")
			if st.Dropped == 0 {
				t.Fatalf("the last tier never evicted: %+v", st)
			}

			rc.TierCapacity = 6
			dst := New(Config{Shards: 1, StrictAppend: true, Retention: rc})
			if err := db.ExportSeries(func(s SeriesSnapshot) error { return dst.RestoreSeries(s) }); err != nil {
				t.Fatal(err)
			}
			rst := checkConservation(t, dst, id, "restored into smaller tiers")
			if rst.Appends != st.Appends || rst.Dropped <= st.Dropped {
				t.Fatalf("restore into smaller tiers: appends %d dropped %d, want appends %d and more than %d dropped",
					rst.Appends, rst.Dropped, st.Appends, st.Dropped)
			}
		})
	}
}

// TestCompressedFootprint pins the reason the serving store compresses
// at all: on the canonical diurnal workload the sealed raw payload costs
// at most 2 bytes per point, against 32 bytes for a []Point slice.
func TestCompressedFootprint(t *testing.T) {
	db := New(Config{Shards: 1, Retention: RetentionConfig{CompressBlock: 128}})
	const id = "host/metric"
	for _, p := range diurnalWorkload(4096) {
		db.Append(id, p)
	}
	st := db.Stats()
	if st.CompressedEntries == 0 {
		t.Fatal("no sealed compressed entries")
	}
	bpp := float64(st.CompressedBytes) / float64(st.CompressedEntries)
	t.Logf("store-level footprint: %d entries, %d bytes, %.3f bytes/point",
		st.CompressedEntries, st.CompressedBytes, bpp)
	if bpp > 2 {
		t.Fatalf("compressed store costs %.3f bytes/point on the diurnal workload, want <= 2", bpp)
	}
}

// TestCompressedRetune checks the estimate→retain loop still works on a
// compressed store: a SetNyquistRate retune changes future tier widths
// without corrupting buckets sealed under the old grid.
func TestCompressedRetune(t *testing.T) {
	db := New(Config{
		Shards:    1,
		Retention: RetentionConfig{RawCapacity: 32, TierCapacity: 64, Tiers: 2, Fanout: 4, CompressBlock: 8},
	})
	const id = "host/metric"
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	i := 0
	appendN := func(n int) {
		for k := 0; k < n; k++ {
			db.Append(id, series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i)})
			i++
		}
	}
	appendN(500)
	db.SetNyquistRate(id, 0.01) // first tier ~83 s buckets
	appendN(500)
	db.SetNyquistRate(id, 0.1) // retune to ~8.3 s buckets
	appendN(500)
	res, err := db.Full(id)
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Time
	for k, p := range res.Points {
		if k > 0 && p.Time.Before(prev) {
			t.Fatalf("point %d at %v precedes %v after retune", k, p.Time, prev)
		}
		prev = p.Time
	}
	for _, a := range res.Aggregates {
		if a.Min > a.Max || a.Mean < a.Min-1e-9 || a.Mean > a.Max+1e-9 {
			t.Fatalf("bucket summary inconsistent after retune: %+v", a)
		}
	}
}

// TestCompressedConcurrent runs writers against query/stats readers on a
// compressed store — under -race this is the decode-under-RLock
// contract: block iteration must not share decode state.
func TestCompressedConcurrent(t *testing.T) {
	db := New(Config{
		Shards:    4,
		Retention: RetentionConfig{RawCapacity: 64, TierCapacity: 32, Tiers: 2, Fanout: 4, CompressBlock: 16},
	})
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	ids := make([]string, 4)
	for i := range ids {
		ids[i] = fmt.Sprintf("dev%02d/metric", i)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range ids {
					if res, err := db.Query(id, start, start.Add(time.Hour), 50); err == nil && len(res.Points) > 50 {
						t.Errorf("budget exceeded: %d", len(res.Points))
						return
					}
				}
				_ = db.Stats()
				_ = db.Snapshot()
			}
		}(r)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				db.Append(ids[w], series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i)})
				if i%500 == 0 {
					db.SetNyquistRate(ids[w], 0.05)
				}
			}
		}(w)
	}
	// Writers finish, then readers are released.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done
}
