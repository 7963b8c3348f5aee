// Command perfbench is the repository's benchmark: it drives the real
// nyquistd binary over loopback HTTP with one generated workload and
// prints every end-to-end metric (-trace 0), or feeds the same inputs
// through each serving layer in process and prints the per-layer
// metrics (-trace 1). Run it through run.sh from the repository root,
// which builds both binaries:
//
//	bash perfbench/run.sh --workload ingest-deep --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result:
// {"correct", "attempted", "failed", "metrics"}. A failed correctness
// check makes the run exit 1. The full record — box fingerprint, daemon
// flags, per-metric sample counts — is written under
// .bench_build/results, and the traced run's spans and CPU profile
// under .bench_build/trace.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// box identifies the machine and build a record came from; records
// from different boxes are not comparable.
type box struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
}

func fingerprint() box {
	b := box{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown", Dirty: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				b.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The commit is stamped at build time when the tree is a git work
	// tree; an exported source tree has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				b.Commit = s.Value
			case "vcs.modified":
				b.Dirty = s.Value
			}
		}
	}
	return b
}

func main() { os.Exit(run()) }

func run() int {
	var (
		wlName  = flag.String("workload", "", "workload: ingest-deep, ingest-wide or dashboard")
		seed    = flag.Int64("seed", 1, "input seed")
		secs    = flag.Int("seconds", 10, "timed-phase length in seconds")
		trace   = flag.Int("trace", 0, "1 = traced in-process layer run, 0 = end-to-end run")
		bin     = flag.String("bin", "", "nyquistd binary")
		buildTo = flag.String("build-dir", ".bench_build", "directory for work files, results and traces")
	)
	flag.Parse()
	w := workloadByName(*wlName)
	if w == nil || *secs < 1 || (*trace != 0 && *trace != 1) || (*trace == 0 && *bin == "") {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (ingest-deep, ingest-wide, dashboard), --seconds >= 1, --trace 0|1, and -bin for --trace 0")
		return 2
	}
	buildDir, err := filepath.Abs(*buildTo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace)
	work := filepath.Join(buildDir, "work", tag)
	if err := cleanWork(work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	defs := e2eDefs
	var (
		metrics map[string]float64
		info    map[string]any
		led     *ledger
		flags   []string
	)
	if *trace == 0 {
		e, err := runE2E(w.plan(*seed, w.sizes), *bin, work, *secs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		metrics, info, led = e.metrics, e.info, &e.led
		flags = daemonArgs("<work>/data")
	} else {
		defs = layerDefs
		dir := filepath.Join(buildDir, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		tr, err := runTrace(w, *seed, *secs, work, filepath.Join(dir, tag))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		metrics, info, led = tr.metrics, tr.info, &tr.led
		flags = []string{"in-process stacks at the daemon defaults"}
	}

	res := result{Attempted: led.attempted, Failed: led.failed, Metrics: map[string]metricOut{}}
	res.Correct = led.failed == 0
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Correct = false
	}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	errorRatio := float64(res.Failed) / float64(res.Attempted)

	record := map[string]any{
		"workload": w.name, "why": w.why, "seed": *seed, "seconds": *secs, "trace": *trace,
		"box": fingerprint(), "daemon_flags": flags, "sizes": sizesJSON(w.sizes),
		"result": res, "error_ratio": errorRatio, "info": info, "failures": led.notes,
	}
	if err := writeRecord(filepath.Join(buildDir, "results", tag+".json"), record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	fp, _ := json.Marshal(record["box"])
	fmt.Printf("box %s\n", fp)
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", w.name, *seed, *secs, *trace)
	for _, d := range defs {
		fmt.Printf("  %-34s %16.6g %s\n", d.name, metrics[d.name], d.unit)
	}
	fmt.Printf("  %-34s %16.6g ratio (%d failed of %d attempted)\n", "error_ratio", errorRatio, res.Failed, res.Attempted)
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch info[k].(type) {
		case []float64, map[string][]float64:
			continue
		}
		fmt.Printf("  info %-29s %v\n", k, info[k])
	}
	for _, n := range led.notes {
		fmt.Println("  failure:", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func sizesJSON(s sizes) map[string]any {
	return map[string]any{
		"series": s.series, "anchors": s.anchors, "warm_points": s.warmPoints,
		"timed_points": s.timedPoints, "trace_extra_points": s.traceExtra,
		"batch_lines": s.batchLines, "warm_batch_lines": s.warmLines,
		"pushers": s.pushers, "period_ms": s.period.Milliseconds(),
		"round_batches_per_pusher": s.roundBatches, "round_reads": s.roundReads,
	}
}

func writeRecord(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
