// The digests pin exact float bits, so they hold only where the compiler
// does not fuse multiply-adds: amd64 below the v3 feature level.

//go:build amd64 && !amd64.v3

package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dcsim"
)

var updateEmissions = flag.Bool("update-emissions", false, "regenerate testdata/stream_emissions.golden")

// emissionConfigs are the streaming shapes the golden pins: the serving
// default (window 256, a refresh every 8 points) and a short window
// emitting on every push, so both the cadence-gated and the per-push
// estimate paths are covered.
var emissionConfigs = []struct{ window, emitEvery int }{
	{256, 8},
	{64, 1},
}

// emissionDigest streams every device of one dcsim regime through a
// fresh StreamEstimator and hashes every emission's exact float bits.
// Each device is streamed past several resyncs, then Reset and streamed
// again from a later phase, so reuse after Reset is pinned too.
func emissionDigest(t *testing.T, regime string, window, emitEvery int) (string, int) {
	t.Helper()
	sc, err := dcsim.BuildScenario(regime, 7, 12)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	emissions := 0
	for i, d := range sc.Fleet.Devices {
		st, err := core.NewStreamEstimator(core.StreamConfig{
			Interval:      d.PollInterval,
			WindowSamples: window,
			EmitEvery:     emitEvery,
		})
		if err != nil {
			t.Fatal(err)
		}
		iv := d.PollInterval.Seconds()
		off := sc.PhaseOffset[i]
		feed := func(from, n int) {
			for k := from; k < from+n; k++ {
				up := st.Push(d.At(off + float64(k)*iv))
				if up == nil {
					continue
				}
				emissions++
				r := up.Result
				put(uint64(up.Index))
				put(math.Float64bits(r.CutoffFreq))
				put(math.Float64bits(r.NyquistRate))
				put(math.Float64bits(r.EnergyCaptured))
				if r.Aliased {
					put(1)
				} else {
					put(0)
				}
			}
		}
		feed(0, 3*window+window/2+5)
		st.Reset()
		feed(5*window, window+window/3)
	}
	return hex.EncodeToString(h.Sum(nil)), emissions
}

// TestStreamEmissionsGolden pins the streaming estimator's output bit for
// bit on every dcsim regime. Refactors of the sliding spectral state must
// leave every digest unchanged; only a deliberate estimator change may
// regenerate the file with -update-emissions.
func TestStreamEmissionsGolden(t *testing.T) {
	var b strings.Builder
	for _, sp := range dcsim.Scenarios() {
		for _, c := range emissionConfigs {
			sum, n := emissionDigest(t, sp.Name, c.window, c.emitEvery)
			fmt.Fprintf(&b, "%s window=%d emit=%d emissions=%d sha256=%s\n", sp.Name, c.window, c.emitEvery, n, sum)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "stream_emissions.golden")
	if *updateEmissions {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run: go test ./internal/core -run TestStreamEmissionsGolden -update-emissions): %v", err)
	}
	if got != string(want) {
		t.Errorf("stream emissions drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
