package wal

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// daemonStore is a store at nyquistd's default retention flags.
func daemonStore() *monitor.Store {
	return monitor.NewTieredStore(tsdb.Config{
		Shards:       16,
		StrictAppend: true,
		Retention: tsdb.RetentionConfig{
			RawCapacity:   4096,
			TierCapacity:  1024,
			Tiers:         2,
			CompressBlock: 128,
		},
	})
}

// BenchmarkDurableRecover measures boot recovery: reopening a WAL-only
// data dir of 64 series × 16384 points (every point in a sealed block
// record, each series four raw rings deep so replay runs the tier
// cascade) into a fresh store and estimator at the daemon's defaults.
// Reported as replayed points per second.
func BenchmarkDurableRecover(b *testing.B) {
	const seriesN, perSeries = 64, 16384
	dir := b.TempDir()
	opts := Options{SnapshotEvery: -1, StateEvery: -1, ScrubEvery: -1}
	store := daemonStore()
	d, err := Open(dir, store, monitor.NewIngestEstimator(store, ingestCfg), opts)
	if err != nil {
		b.Fatal(err)
	}
	const f2 = 16.0 / 256
	batch := make([]tsdb.BatchPoint, 0, seriesN)
	for i := 0; i < perSeries; i++ {
		batch = batch[:0]
		for s := 0; s < seriesN; s++ {
			// Gauges quantized to 1e-3, as pollers report them.
			v := math.Round((twoTone(f2/4, f2, float64(i))+float64(s))*1000) / 1000
			batch = append(batch, tsdb.BatchPoint{
				ID: fmt.Sprintf("bench/dev%02d/metric", s),
				P:  series.Point{Time: walStart.Add(time.Duration(i) * time.Second), Value: v},
			})
		}
		if got := store.AppendBatch(batch); got != len(batch) {
			b.Fatalf("round %d: %d of %d points accepted", i, got, len(batch))
		}
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := daemonStore()
		d, err := Open(dir, store, monitor.NewIngestEstimator(store, ingestCfg), opts)
		if err != nil {
			b.Fatal(err)
		}
		if got := d.Replay().Points; got != seriesN*perSeries {
			b.Fatalf("replayed %d points, want %d", got, seriesN*perSeries)
		}
		// Crash-stop: Close would seal and log, changing the data dir
		// the next iteration replays.
		d.abort()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*seriesN*perSeries)/b.Elapsed().Seconds(), "points/s")
}
