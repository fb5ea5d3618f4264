// Command perfbench is the repository benchmark: it drives the JUST
// engine through its public surfaces (JustQL sessions, core.Engine
// inserts), checks every answer against a brute-force oracle over the
// generated data, and prints end-to-end metrics, or with --trace 1 the
// per-layer metrics derived from spans it records around each layer's
// calls.
//
//	perfbench --workload <olap-warm|routed-io> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it report
// sample counts, rows returned per query and, in traced runs, each
// layer's self time. Engine data lives under .bench_build/ in the
// working directory and is removed at exit; traced runs leave their
// spans in .bench_build/traces/.
//
// Workloads (one process, one closed-loop client each):
//
//   - olap-warm: 200k Order points (20 Gaussian hotspots over 60 days)
//     and 600 trajectories (~250k GPS fixes) in a default standalone
//     engine, compacted: 36 MB on disk, and the indexes the queries
//     read fit the default 32 MiB block cache (hit ratio above 0.99
//     after warm-up). The simulated disk is off. CPU-bound: sql, table
//     plan and decode, exec.
//   - routed-io: the same data and mix served by 3 region nodes behind
//     a kv.Router over TCP loopback, each node with a 4 MiB block cache
//     and the 40 MB/s simulated disk (loaded with the disk model off,
//     then reopened with it on, and warmed until the cache hit ratio
//     settles near 0.7). Without size splits all data stays in one
//     region on one node, as in internal/bench's cluster experiment.
//     rpc fan-out and block IO dominate.
//
// Both load orders in 500-row batches through core.Engine.InsertContext
// with the WAL on (one fsync per group commit, 4 MiB memtables,
// background flush and compaction through the jobs scheduler), so the
// write path is measured on their set-ups: about 14 flushes and 2
// compactions per load.
//
// The query mix: ST range (3 km × 1 day, SELECT fid, time), k-NN
// (k = 100, st_KNN), trajectory spatial range (3 km, projects
// gps_list) and a one-week GROUP BY st_geohash(geom, 5) count. Window
// and k-NN centres are drawn from stored points, so every query lands
// where data is. The datasets are the same in every run; --seed draws
// the queries (and nothing else).
//
// Latency percentiles are nearest-rank over every measured query of a
// kind in the run (ST p99 over 1000+ samples, k-NN and trajectory p90
// over 100+); a run prints each sample count and warns when a reported
// percentile has fewer than ten samples beyond it. setup_s is the
// median of three set-ups (open → loaded → compacted, and for
// routed-io reopened with the disk model on); data generation is
// excluded. ingest_rows_per_s and insert_p50/p99_ms cover the order
// loads of all three set-ups (1200 batches). write_amp is kv bytes
// written over user bytes written during the last load, space_amp is
// on-disk bytes over user bytes stored; user bytes are 32 per order
// and 24 per GPS fix plus the trajectory id. After the measured loop
// the run checks that every loaded order is there (count plus 1000
// sampled point reads). error_ratio, the failed or wrong answers over
// those attempted, is printed and is the JSON's failed over attempted;
// any failure fails the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// runner carries one benchmark run.
type runner struct {
	workload string
	seed     int64
	measure  time.Duration
	traced   bool
	root     string // engine data, removed at exit
	out      report
	tr       *tracer
	heap     *heapSampler
}

func (r *runner) set(name, unit string, v float64) {
	r.out.Metrics[name] = metricVal{Value: v, Unit: unit}
}

var workloads = map[string]func(*runner) error{
	"olap-warm": runOLAPWarm,
	"routed-io": runRoutedIO,
}

func logf(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

func main() {
	name := flag.String("workload", "", "olap-warm or routed-io")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		os.Exit(2)
	}
	r := &runner{
		workload: *name,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		out:      report{Metrics: map[string]metricVal{}},
	}
	base, err := filepath.Abs(".bench_build")
	if err == nil {
		err = os.MkdirAll(base, 0o755)
	}
	if err == nil {
		r.root, err = os.MkdirTemp(base, "run-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if r.traced {
		r.tr = newTracer()
	}
	r.heap = startHeapSampler()
	err = run(r)
	os.RemoveAll(r.root)
	if err == nil && r.traced {
		err = r.tr.write(filepath.Join(base, "traces", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed)))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	r.out.Correct = r.out.Failed == 0
	logf("error_ratio %g (%d failed or wrong of %d attempted)",
		float64(r.out.Failed)/float64(max(r.out.Attempted, 1)), r.out.Failed, r.out.Attempted)
	line, err := json.Marshal(r.out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.out.Correct || r.out.Attempted == 0 {
		os.Exit(1)
	}
}

// percentile is the nearest-rank q-quantile of xs (sorted in place). A
// named percentile warns when fewer than ten samples lie beyond it.
func percentile(name string, xs []float64, q float64) float64 {
	if len(xs) == 0 {
		if name != "" {
			logf("warning: %s has no samples", name)
		}
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	i = max(0, min(i, len(xs)-1))
	if beyond := len(xs) - 1 - i; beyond < 10 && q > 0.5 && name != "" {
		logf("warning: %s has %d samples beyond it (n=%d)", name, beyond, len(xs))
	}
	return xs[i]
}

func median(xs []float64) float64 {
	return percentile("", append([]float64(nil), xs...), 0.5)
}

// heapSampler tracks the peak live heap (bytes reachable at the end of
// the latest GC cycle), sampled every 20 ms. Garbage awaiting collection
// is left out: its peak depends on GC timing, not on what the engine
// holds.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMiB stops sampling and returns the peak.
func (h *heapSampler) peakMiB() float64 {
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	h.wg.Wait()
	return float64(h.peak.Load()) / (1 << 20)
}
