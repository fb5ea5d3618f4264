package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"just/internal/jobs"
	"just/internal/kv"
	"just/internal/sql"
)

const (
	setupRuns = 3

	warmRound  = time.Second
	warmRounds = 6
)

// queryMix gives each kind its share of queries. With one closed-loop
// client it yields 1000+ ST samples (for p99) and 150+ k-NN and
// trajectory samples (for p90) per 30 s run on both workloads;
// routed-io, the slower, sets the shares.
var queryMix = mix{kindST: 75, kindKNN: 12, kindTraj: 8, kindAgg: 5}

// client is one closed-loop JustQL session: it sends the next statement
// only after the previous one returned.
type client struct {
	sess      *sql.Session
	d         *deployment
	tr        *tracer
	measuring bool
	n         int64 // statements sent, alternating traced/untraced
	lat       [numKinds][]float64
	latTraced [numKinds][]float64
	answers   []answer
	attempted int64
	failed    int64
}

func (c *client) run(ctx context.Context, q query) {
	c.attempted++
	c.n++
	traced := c.tr != nil && c.measuring && c.n%2 == 0
	var res *sql.Result
	var ms float64
	var err error
	if traced {
		res, ms, err = c.tr.query(ctx, c.d, c.sess, q)
	} else {
		t0 := time.Now()
		res, err = c.sess.ExecuteContext(ctx, q.sql)
		ms = msSince(t0)
	}
	if err == nil {
		var a answer
		if a, err = extract(q, res); err == nil {
			c.answers = append(c.answers, a)
		}
	}
	if err != nil {
		c.failed++
		if c.failed <= 5 {
			logf("query failed: %v\n#   %s", err, q.sql)
		}
		return
	}
	switch {
	case traced:
		c.latTraced[q.kind] = append(c.latTraced[q.kind], ms)
	case c.measuring:
		c.lat[q.kind] = append(c.lat[q.kind], ms)
	}
}

// loop runs queries from next until d has passed.
func (c *client) loop(ctx context.Context, d time.Duration, next func() query) time.Duration {
	start := time.Now()
	for time.Since(start) < d {
		c.run(ctx, next())
	}
	return time.Since(start)
}

// warm runs the mix in one-second rounds until the block-cache hit
// ratios of two successive rounds agree within two points (at most
// warmRounds rounds), so timing starts from a settled cache.
func (c *client) warm(ctx context.Context, next func() query) {
	var ratios []float64
	for len(ratios) < warmRounds {
		m0 := c.d.kvMetrics()
		c.loop(ctx, warmRound, next)
		h := hitRatio(m0, c.d.kvMetrics())
		ratios = append(ratios, h)
		if n := len(ratios); n > 1 && math.Abs(h-ratios[n-2]) < 0.02 {
			break
		}
	}
	logf("warm-up block cache hit ratio per second %.3f", ratios)
}

func hitRatio(a, b kv.Metrics) float64 {
	hits, misses := b.BlockCacheHits-a.BlockCacheHits, b.BlockCacheMisses-a.BlockCacheMisses
	if hits+misses == 0 {
		return 1
	}
	return float64(hits) / float64(hits+misses)
}

// writeWindow brackets a write phase: the load of a set-up.
type writeWindow struct {
	m0, m1   kv.Metrics
	j0, j1   []jobs.Status
	t0, t1   time.Time
	queueMax atomic.Int64
	stop     chan struct{}
	wg       sync.WaitGroup

	writeAmp, spaceAmp float64
}

// begin snapshots the counters; traced runs also sample the flush queue
// depth every 10 ms.
func (w *writeWindow) begin(d *deployment, traced bool) {
	w.m0, w.j0, w.t0 = d.kvMetrics(), d.jobsStatus(), time.Now()
	if !traced {
		return
	}
	w.stop = make(chan struct{})
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if q := d.kvMetrics().FlushQueueDepth; q > w.queueMax.Load() {
				w.queueMax.Store(q)
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
}

// stopSampling stops the flush-queue sampler, if one runs.
func (w *writeWindow) stopSampling() {
	if w.stop != nil {
		close(w.stop)
		w.wg.Wait()
		w.stop = nil
	}
}

// end snapshots again. written is the user bytes written during the
// window, stored the user bytes the store holds at its end.
func (w *writeWindow) end(d *deployment, written, stored int64) {
	w.stopSampling()
	w.m1, w.j1, w.t1 = d.kvMetrics(), d.jobsStatus(), time.Now()
	w.writeAmp = float64(w.m1.BytesWritten-w.m0.BytesWritten) / float64(written)
	w.spaceAmp = float64(d.e.Store().DiskSize()) / float64(stored)
}

// load creates the tables and loads ds into d: orders in 500-row
// batches, trajectories in bulk, then flush and a full compaction.
func (r *runner) load(d *deployment, ds *dataset, ls *loadStats, w *writeWindow) error {
	ctx := context.Background()
	if err := createTables(d.e); err != nil {
		return err
	}
	w.begin(d, r.traced)
	defer w.stopSampling()
	if err := loadOrders(ctx, d.e, ds.orders, r.inserter(), ls); err != nil {
		return err
	}
	if err := loadTrajs(d.e, ds); err != nil {
		return err
	}
	if err := d.e.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	if err := d.e.Store().Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	user := rawOrderBytes(len(ds.orders)) + ds.rawTrajBytes()
	w.end(d, user, user)
	return nil
}

func (r *runner) inserter() inserter {
	if r.tr != nil {
		return r.tr.inserter()
	}
	return engineInsert
}

// setups runs setup setupRuns times in fresh directories and keeps the
// last deployment; each earlier one is closed and deleted before the
// next starts.
func (r *runner) setups(setup func(dir string) (*deployment, error)) (*deployment, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		dir := filepath.Join(r.root, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		d, err := setup(dir)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupRuns-1 {
			return d, times, nil
		}
		if err := d.close(); err != nil {
			return nil, nil, err
		}
		os.RemoveAll(dir)
	}
}

func runOLAPWarm(r *runner) error {
	return r.queryWorkload(func(dir string, ds *dataset, ls *loadStats, w *writeWindow) (*deployment, error) {
		d, err := openStandalone(dir)
		if err != nil {
			return nil, err
		}
		if err := r.load(d, ds, ls, w); err != nil {
			d.close()
			return nil, err
		}
		return d, nil
	})
}

// runRoutedIO loads with the disk model off (compaction reads would pay
// it too), then restarts the nodes with it on.
func runRoutedIO(r *runner) error {
	return r.queryWorkload(func(dir string, ds *dataset, ls *loadStats, w *writeWindow) (*deployment, error) {
		opts := kv.Options{BlockCacheBytes: routedCacheBytes}
		d, err := openRouted(dir, opts)
		if err != nil {
			return nil, err
		}
		err = r.load(d, ds, ls, w)
		if cerr := d.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		opts.DiskThroughputMBps = diskMBps
		return openRouted(dir, opts)
	})
}

// queryWorkload runs a workload: set up, warm, run the mix with one
// closed-loop client, check the loaded rows and verify every answer.
func (r *runner) queryWorkload(setup func(string, *dataset, *loadStats, *writeWindow) (*deployment, error)) error {
	ctx := context.Background()
	ds := newDataset(orderN)
	var ls loadStats
	var w *writeWindow
	d, setupS, err := r.setups(func(dir string) (*deployment, error) {
		w = &writeWindow{}
		return setup(dir, ds, &ls, w)
	})
	if err != nil {
		return err
	}
	defer d.close()
	c := &client{sess: sql.NewSession(d.e, ""), d: d, tr: r.tr}
	rng := rand.New(rand.NewSource(r.seed))
	next := func() query { return ds.nextQuery(rng, queryMix.pick(rng)) }
	c.warm(ctx, next)
	c.measuring = true
	var p phase
	p.begin(d)
	elapsed := c.loop(ctx, r.measure, next)
	p.end(d)
	heap := r.heap.peakMiB()
	r.checkDurable(ctx, d, ds)
	if err := d.close(); err != nil {
		return err
	}
	r.finish(ds, c)
	if r.traced {
		r.tr.report(r, c, &p, w)
		return nil
	}
	r.e2e(c, elapsed, setupS, &ls, w, heap)
	return nil
}

// phase brackets the measured loop for the run-level counters.
type phase struct {
	m0, m1  kv.Metrics
	regions int
}

func (p *phase) begin(d *deployment) { p.m0 = d.e.Store().Metrics() }
func (p *phase) end(d *deployment) {
	p.m1 = d.e.Store().Metrics()
	p.regions = d.e.Store().Regions()
}

// finish verifies the answers and folds the counts into the report.
func (r *runner) finish(ds *dataset, c *client) {
	wrong := ds.verify(c.answers)
	r.out.Attempted += c.attempted
	r.out.Failed += c.failed + int64(wrong)
	var total int
	for k := 0; k < numKinds; k++ {
		var rows []float64
		for _, a := range c.answers {
			if a.q.kind == k {
				rows = append(rows, float64(a.rows))
			}
		}
		total += len(rows)
		p50, p90 := percentile("", rows, 0.5), percentile("", rows, 0.9)
		logf("%-10s rows returned per query p50 %g p90 %g (n=%d)", kindNames[k], p50, p90, len(rows))
	}
	logf("oracle checked %d answers, %d wrong", total, wrong)
}

// e2e sets every end-to-end metric.
func (r *runner) e2e(c *client, elapsed time.Duration, setupS []float64, ls *loadStats, w *writeWindow, heap float64) {
	lat := func(k int, q float64) float64 {
		xs := c.lat[k]
		name := fmt.Sprintf("%s p%g", kindNames[k], q*100)
		return percentile(name, xs, q)
	}
	var n int
	for k := 0; k < numKinds; k++ {
		n += len(c.lat[k])
		logf("%-10s latency samples n=%d", kindNames[k], len(c.lat[k]))
	}
	logf("insert batch samples n=%d, setups %v s", len(ls.batchMS), setupS)
	r.set("setup_s", "s", median(setupS))
	r.set("st_range_p50_ms", "ms", lat(kindST, 0.5))
	r.set("st_range_p99_ms", "ms", lat(kindST, 0.99))
	r.set("knn_p50_ms", "ms", lat(kindKNN, 0.5))
	r.set("knn_p90_ms", "ms", lat(kindKNN, 0.9))
	r.set("traj_range_p50_ms", "ms", lat(kindTraj, 0.5))
	r.set("traj_range_p90_ms", "ms", lat(kindTraj, 0.9))
	r.set("agg_p50_ms", "ms", lat(kindAgg, 0.5))
	r.set("query_qps", "1/s", float64(n)/elapsed.Seconds())
	r.set("ingest_rows_per_s", "1/s", float64(ls.rows)/ls.elapsed.Seconds())
	r.set("insert_p50_ms", "ms", percentile("insert p50", ls.batchMS, 0.5))
	r.set("insert_p99_ms", "ms", percentile("insert p99", ls.batchMS, 0.99))
	r.set("write_amp", "ratio", w.writeAmp)
	r.set("space_amp", "ratio", w.spaceAmp)
	r.set("heap_peak_mib", "MiB", heap)
}

// checkDurable confirms every acknowledged insert is readable: the
// order count, then point reads of 1000 sampled orders.
func (r *runner) checkDurable(ctx context.Context, d *deployment, ds *dataset) {
	fail := func(format string, args ...any) {
		r.out.Failed++
		if r.out.Failed <= 5 {
			logf("durability check: "+format, args...)
		}
	}
	r.out.Attempted++
	res, err := sql.NewSession(d.e, "").ExecuteContext(ctx, "SELECT count(*) AS n FROM orders")
	if err != nil {
		fail("count: %v", err)
	} else if rows := res.Frame.Collect(); len(rows) != 1 || rows[0][0] != int64(len(ds.orders)) {
		fail("count = %v, want %d", rows, len(ds.orders))
	}
	t, err := d.e.OpenTable("", "orders")
	if err != nil {
		fail("open table: %v", err)
		return
	}
	rng := rand.New(rand.NewSource(r.seed + 1))
	for i := 0; i < 1000; i++ {
		r.out.Attempted++
		o := ds.orders[rng.Intn(len(ds.orders))]
		row, err := t.GetCtx(ctx, o.ID)
		if err != nil {
			fail("get %d: %v", o.ID, err)
			continue
		}
		if row[1] != any(o.TMS) || row[2] != any(o.Point) {
			fail("get %d = %v, want %v", o.ID, row, o)
		}
	}
}
