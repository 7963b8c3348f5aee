package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/series"
	"repro/internal/tsdb"
)

var replayOpts = Options{FsyncEvery: -1, SnapshotEvery: -1, StateEvery: -1, ScrubEvery: -1}

// blockPayload encodes a block record for id over pts.
func blockPayload(t *testing.T, id string, pts []series.Point) []byte {
	t.Helper()
	blk, err := tsdb.EncodeBlock(pts)
	if err != nil {
		t.Fatal(err)
	}
	e := enc{}
	encodeBlockRec(&e, id, blk)
	return e.b
}

// gridPoints returns points i in [from, to) on the one-second test grid.
func gridPoints(from, to int, value float64) []series.Point {
	pts := make([]series.Point, 0, to-from)
	for i := from; i < to; i++ {
		pts = append(pts, series.Point{Time: walStart.Add(time.Duration(i) * time.Second), Value: value + float64(i%11)})
	}
	return pts
}

// appendRecords writes extra records into dir's log as a new segment, the
// way a later process session would.
func appendRecords(t *testing.T, dir string, payloads ...[]byte) {
	t.Helper()
	l, err := openLog(dir, LogOptions{FsyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := l.Append(recBlock, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// seriesState is one series' whole answer plus its stats.
type seriesState struct {
	res   *tsdb.QueryResult
	stats *tsdb.SeriesStats
}

func storeState(t *testing.T, s *monitor.Store) map[string]seriesState {
	t.Helper()
	out := map[string]seriesState{}
	for _, id := range s.IDs() {
		res, err := s.QueryRange(id, time.Time{}, time.Time{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.DB().SeriesStats(id)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = seriesState{res: res, stats: st}
	}
	return out
}

func assertSameState(t *testing.T, got, want map[string]seriesState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d series, want %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("series %s missing", id)
		}
		if !reflect.DeepEqual(g.res, w.res) {
			t.Fatalf("%s: answer differs:\n got %d points %+v\nwant %d points %+v", id, len(g.res.Points), g.res.Tiers, len(w.res.Points), w.res.Tiers)
		}
		if !reflect.DeepEqual(g.stats, w.stats) {
			t.Fatalf("%s: stats differ:\n got %+v\nwant %+v", id, g.stats, w.stats)
		}
	}
}

// TestReplayCorruptBlockPayload pins that a block record whose CRC is
// intact but whose payload does not decode still fails Open, naming the
// series, whether the payload is truncated or its point count is wrong.
func TestReplayCorruptBlockPayload(t *testing.T) {
	pts := gridPoints(0, 128, 1)
	blk, err := tsdb.EncodeBlock(pts)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		n    int
		data []byte
	}{
		{"truncated payload", blk.Len(), blk.Data()[:blk.Size()/2]},
		{"no points", 0, blk.Data()},
		{"more points than encoded", blk.Len() + 64, blk.Data()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			e := enc{}
			e.str("ext/torn/metric")
			e.uvarint(uint64(c.n))
			e.bytes(c.data)
			appendRecords(t, dir, blockPayload(t, "ext/good/metric", pts), e.b)

			store := servingStore()
			d, err := Open(dir, store, monitor.NewIngestEstimator(store, ingestCfg), replayOpts)
			if err == nil {
				d.abort()
				t.Fatal("Open accepted a corrupt block record")
			}
			if !errors.Is(err, tsdb.ErrCorruptBlock) || !strings.Contains(err.Error(), `block record for "ext/torn/metric"`) {
				t.Fatalf("Open error %q, want ErrCorruptBlock naming the series", err)
			}
		})
	}
}

// TestReplayMatchesPerPointAppend pins replay against its definition:
// decoding every block record of a WAL-only data dir and feeding the
// points through Store.Append one at a time. The log mixes what a store
// sealed (deep enough to cascade into the tiers) with records the strict
// store must partly refuse — a re-logged old block, a block overlapping
// its series' newest points, equal-stamp duplicates — and a series seen
// first in the later segment. The recovered store and ReplayInfo's point
// counts must match the reference exactly.
func TestReplayMatchesPerPointAppend(t *testing.T) {
	dir := t.TempDir()
	store1 := servingStore()
	d1, err := Open(dir, store1, monitor.NewIngestEstimator(store1, ingestCfg), replayOpts)
	if err != nil {
		t.Fatal(err)
	}
	ingestLoad(t, store1, monitor.NewIngestEstimator(nil, ingestCfg), 3, 3000) // 23 sealed blocks each
	d1.abort()
	dup := gridPoints(2940, 2950, 5)
	dup = append(dup, dup[len(dup)-1], dup[len(dup)-1])
	appendRecords(t, dir,
		blockPayload(t, "ext/dev00/metric", gridPoints(0, 128, 0)),     // all refused
		blockPayload(t, "ext/dev01/metric", gridPoints(2900, 3100, 3)), // overlap: older ones refused
		blockPayload(t, "ext/dev02/metric", gridPoints(2940, 2944, 4)), // the newest stamp again: it lands
		blockPayload(t, "ext/dev02/metric", dup),                       // equal stamps land in order
		blockPayload(t, "ext/late/metric", gridPoints(5000, 5200, 7)),  // first seen here
		blockPayload(t, "ext/dev00/metric", gridPoints(2944, 3072, 8))) // in order again

	// The reference: every record's points, decoded through a rebuilt
	// Block and appended one Store.Append call at a time.
	ref := servingStore()
	var wantPoints, wantSkipped int64
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range segs {
		_, _, err := replayFile(filepath.Join(dir, segName(idx)), segMagic, func(typ byte, payload []byte) error {
			if typ != recBlock {
				return nil
			}
			d := dec{b: payload}
			id := d.str()
			n := int(d.uvarint())
			blk, err := tsdb.RebuildBlock(append([]byte(nil), d.bytes()...), n)
			if err != nil {
				return err
			}
			pts, err := blk.Points(nil)
			if err != nil {
				return err
			}
			for _, p := range pts {
				if ref.Append(id, p) != nil {
					wantSkipped++
				} else {
					wantPoints++
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if wantSkipped == 0 || wantPoints == 0 {
		t.Fatalf("reference replay: %d landed, %d refused; the log must exercise both", wantPoints, wantSkipped)
	}

	// The estimator is detached from the store so the rewarm after
	// replay cannot retune the tiers the reference never retuned.
	store2 := servingStore()
	d2, err := Open(dir, store2, monitor.NewIngestEstimator(nil, ingestCfg), replayOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.abort()
	info := d2.Replay()
	if info.Points != wantPoints || info.SkippedPoints != wantSkipped {
		t.Fatalf("replay landed %d and skipped %d points, per-point Append lands %d and refuses %d",
			info.Points, info.SkippedPoints, wantPoints, wantSkipped)
	}
	assertSameState(t, storeState(t, store2), storeState(t, ref))
}

// TestReplaySnapshotWatermarkStraddle pins the snapshot boundary: a
// block sealed after the snapshot re-logs the active tail the snapshot
// already holds, and those points — an equal-stamp point at the
// watermark included — are skipped and counted, while the block's newer
// points, and every point of a series the snapshot never saw, land.
func TestReplaySnapshotWatermarkStraddle(t *testing.T) {
	dir := t.TempDir()
	store1 := servingStore()
	d1, err := Open(dir, store1, monitor.NewIngestEstimator(store1, ingestCfg), replayOpts)
	if err != nil {
		t.Fatal(err)
	}
	appendAll := func(id string, pts []series.Point) {
		t.Helper()
		for _, p := range pts {
			if err := store1.Append(id, p); err != nil {
				t.Fatalf("append %s at %v: %v", id, p.Time, err)
			}
		}
	}
	// Active tails at the snapshot: a holds 40 points, b 100.
	appendAll("ext/a/metric", gridPoints(0, 296, 1))
	appendAll("ext/b/metric", gridPoints(0, 228, 2))
	if err := d1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// a re-stamps its newest instant, then seals 296..383 (40 tail + the
	// duplicate + 87 new); b seals 228..255 (100 tail + 28 new); c is
	// new and seals one whole block.
	appendAll("ext/a/metric", gridPoints(295, 383, 1))
	appendAll("ext/b/metric", gridPoints(228, 256, 2))
	appendAll("ext/c/metric", gridPoints(0, 128, 3))
	d1.abort()

	store2 := servingStore()
	d2, err := Open(dir, store2, monitor.NewIngestEstimator(store2, ingestCfg), replayOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.abort()
	info := d2.Replay()
	if !info.SnapshotLoaded {
		t.Fatalf("snapshot not loaded: %+v", info)
	}
	if wantSkipped, wantPoints := int64(40+1+100), int64(87+28+128); info.SkippedPoints != wantSkipped || info.Points != wantPoints {
		t.Fatalf("replay skipped %d and landed %d points, want %d and %d (info: %+v)",
			info.SkippedPoints, info.Points, wantSkipped, wantPoints, info)
	}
	for id, want := range map[string]int{"ext/a/metric": 383, "ext/b/metric": 256, "ext/c/metric": 128} {
		res, err := store2.QueryRange(id, time.Time{}, time.Time{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Points) != want {
			t.Fatalf("%s recovered %d points, want %d", id, len(res.Points), want)
		}
	}
	if got := fmt.Sprint(store2.IDs()); got != "[ext/a/metric ext/b/metric ext/c/metric]" {
		t.Fatalf("recovered series %s", got)
	}
}
