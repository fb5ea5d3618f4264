package main

import (
	"bufio"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"just/internal/compress"
	"just/internal/core"
	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/jobs"
	"just/internal/kv"
	"just/internal/sql"
	"just/internal/table"
)

// span is one timed call into a layer. Spans of one query or insert
// batch share Query; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int64  `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// stat accumulates one per-layer quantity: sum over n observations.
type stat struct {
	sum float64
	n   int64
}

// tracer keeps spans in memory (written out at exit) and the per-layer
// quantities measured at the same call boundaries, keyed by query kind
// ("write" for insert batches).
type tracer struct {
	t0    time.Time
	qids  atomic.Int64
	mu    sync.Mutex
	spans []span
	acc   map[string]*stat
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 1), acc: map[string]*stat{}}
}

func (t *tracer) start(name string, parent int, qid int64) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Query: qid, Name: name, Start: now})
	return len(t.spans) - 1
}

// finish closes span id and returns its duration.
func (t *tracer) finish(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

func (t *tracer) add(group, name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.acc[group+"/"+name]
	if s == nil {
		s = &stat{}
		t.acc[group+"/"+name] = s
	}
	s.sum += v
	s.n++
}

// mean pools name over the given groups.
func (t *tracer) mean(name string, groups ...string) float64 {
	sum, n := t.total(name, groups...)
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (t *tracer) total(name string, groups ...string) (float64, int64) {
	var sum float64
	var n int64
	for _, g := range groups {
		if s := t.acc[g+"/"+name]; s != nil {
			sum += s.sum
			n += s.n
		}
	}
	return sum, n
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// counters is the set of storage, rpc and codec counters read around a
// statement.
type counters struct {
	kv              kv.Metrics
	rpcOut, rpcIn   int64
	decNanos, decIn int64
}

// readCounters snapshots the counters around a statement. Routed kv
// snapshots are themselves rpcs, so the rpc and codec counters are read
// innermost: after the kv snapshot before the statement (after=false)
// and before it after the statement.
func readCounters(d *deployment, after bool) counters {
	var c counters
	if !after {
		c.kv = d.kvMetrics()
	}
	c.rpcOut, c.rpcIn = d.rpcBytes()
	for _, s := range compress.Stats() {
		c.decNanos += s.DecompressNanos
		c.decIn += s.DecompressBytesOut
	}
	if after {
		c.kv = d.kvMetrics()
	}
	return c
}

// query runs one statement the way Session.ExecuteContext does (parse,
// then execute), with spans and counters around each step, then replays
// it through EXPLAIN and through the table, kv, exec and core calls the
// plan makes. It returns the result and the parse+execute time in ms.
func (t *tracer) query(ctx context.Context, d *deployment, sess *sql.Session, q query) (*sql.Result, float64, error) {
	qid := t.qids.Add(1)
	k := kindNames[q.kind]
	root := t.start("query."+k, 0, qid)
	defer t.finish(root)

	ps := t.start("sql.parse", root, qid)
	stmt, err := sql.Parse(q.sql)
	parse := t.finish(ps)
	if err != nil {
		return nil, 0, err
	}
	c0 := readCounters(d, false)
	xs := t.start("sql.execute", root, qid)
	res, err := sess.ExecuteStmtContext(ctx, stmt)
	execD := t.finish(xs)
	c1 := readCounters(d, true)
	if err != nil {
		return nil, 0, err
	}
	m0, m1 := c0.kv, c1.kv
	t.add(k, "kv.blocks_read", float64(m1.BlocksRead-m0.BlocksRead))
	t.add(k, "kv.blocks_skipped", float64(m1.BlocksSkipped-m0.BlocksSkipped))
	t.add(k, "kv.cache_hits", float64(m1.BlockCacheHits-m0.BlockCacheHits))
	t.add(k, "kv.cache_misses", float64(m1.BlockCacheMisses-m0.BlockCacheMisses))
	t.add(k, "kv.bytes_read", float64(m1.BytesRead-m0.BytesRead))
	t.add(k, "kv.scan_tasks", float64(m1.ScanTasks-m0.ScanTasks))
	t.add(k, "rpc.bytes_out", float64(c1.rpcOut-c0.rpcOut))
	t.add(k, "rpc.bytes_in", float64(c1.rpcIn-c0.rpcIn))
	t.add(k, "compress.decompress_us", float64(c1.decNanos-c0.decNanos)/1e3)
	t.add(k, "compress.decompress_bytes", float64(c1.decIn-c0.decIn))
	t.add(k, "sql.parse_us", us(parse))

	es := t.start("sql.explain", root, qid)
	_, err = sess.ExecuteContext(ctx, "EXPLAIN "+q.sql)
	explain := t.finish(es)
	if err != nil {
		return nil, 0, fmt.Errorf("explain: %w", err)
	}
	t.add(k, "sql.plan_us", us(explain-parse))

	if q.kind == kindKNN {
		err = t.replayKNN(ctx, d.e, q, root, qid)
	} else {
		var replayed time.Duration
		if replayed, err = t.replayScan(ctx, d.e, q, root, qid); err == nil {
			t.add(k, "sql.overhead_us", us(execD-replayed))
		}
	}
	if err != nil {
		return nil, 0, fmt.Errorf("replay: %w", err)
	}
	return res, float64((parse + execD).Nanoseconds()) / 1e6, nil
}

// scanShape is the table, index query and columns the SQL planner
// derives for a range or aggregate statement.
func scanShape(q query) (tbl string, iq index.Query, cols []string) {
	switch q.kind {
	case kindST:
		return "orders", index.Query{Window: q.win, HasTime: true, TMin: q.tmin, TMax: q.tmax}, []string{"fid", "time"}
	case kindTraj:
		return "traj", index.Query{Window: q.win}, []string{table.TrajColID, table.TrajColGPSList}
	default:
		return "orders", index.Query{Window: geom.WorldMBR, HasTime: true, TMin: q.tmin, TMax: q.tmax}, []string{"geom"}
	}
}

// replayScan repeats a range or aggregate statement's data path:
// Table.PlanAccess, Table.ScanBatches, Store.ScanRanges over the same
// ranges, and for aggregates exec.AggregateBatches over the scanned
// batches keyed by geohash. It returns the scan plus aggregate time,
// the part of the statement below the sql layer.
func (t *tracer) replayScan(ctx context.Context, e *core.Engine, q query, root int, qid int64) (time.Duration, error) {
	k := kindNames[q.kind]
	tbl, iq, cols := scanShape(q)
	tb, err := e.OpenTable("", tbl)
	if err != nil {
		return 0, err
	}
	schema := tb.Schema()
	needed := make([]bool, schema.Len())
	for _, c := range cols {
		needed[schema.Index(c)] = true
	}

	ps := t.start("table.plan", root, qid)
	path, err := tb.PlanAccess(iq)
	t.add(k, "table.plan_us", us(t.finish(ps)))
	if err != nil {
		return 0, err
	}
	t.add(k, "table.ranges", float64(len(path.Ranges)))

	var batches []*exec.ColumnBatch
	rows := 0
	ss := t.start("table.scan", root, qid)
	err = tb.ScanBatches(ctx, iq, needed, func(b *exec.ColumnBatch) bool {
		rows += b.Len()
		if q.kind == kindAgg {
			batches = append(batches, b)
		}
		return true
	})
	scan := t.finish(ss)
	if err != nil {
		return 0, err
	}
	t.add(k, "table.scan_us", us(scan))
	t.add(k, "table.rows", float64(rows))

	// The kv part of the same scan: kv.ScanCollect, the pipeline
	// ScanBatches runs on, over the planned ranges with the zone hints
	// ScanBatches attaches, folding pairs into a count instead of
	// decoding them. (Store.ScanRanges hands every pair to one serial
	// consumer, a different and slower pipeline.)
	if iq.HasTime && tb.TimeIndex() >= 0 {
		for i := range path.Ranges {
			path.Ranges[i].Zoned, path.Ranges[i].ZMin, path.Ranges[i].ZMax = true, iq.TMin, iq.TMax
		}
	}
	pairs := 0
	countPairs := func() kv.TaskCollector[int] {
		n := 0
		return kv.TaskCollector[int]{
			Add:    func(_, _ []byte) (int, bool, error) { n++; return 0, false, nil },
			Finish: func() (int, bool, error) { return n, n > 0, nil },
		}
	}
	ks := t.start("kv.scan", root, qid)
	err = kv.ScanCollect(ctx, e.Store(), path.Ranges, countPairs, func(n int) bool {
		pairs += n
		return true
	})
	kvScan := t.finish(ks)
	if err != nil {
		return 0, err
	}
	t.add(k, "kv.scan_us", us(kvScan))
	t.add(k, "table.decode_us", us(scan-kvScan))
	t.add(k, "kv.pairs", float64(pairs))
	if q.kind != kindAgg {
		return scan, nil
	}

	gi := schema.Index("geom")
	keySchema := exec.NewSchema(exec.Field{Name: "cell", Type: exec.TypeString})
	ps = t.start("exec.project", root, qid)
	keyed := make([]*exec.ColumnBatch, 0, len(batches))
	for _, b := range batches {
		kb := exec.NewColumnBatch(keySchema, b.Len())
		for i := 0; i < b.Len(); i++ {
			p, _ := b.RowAt(i)[gi].(geom.Point)
			kb.AppendRow(exec.Row{geohash(p, geohashPrec)})
		}
		keyed = append(keyed, kb)
	}
	t.finish(ps)
	as := t.start("exec.agg", root, qid)
	_, groups, err := exec.AggregateBatches(keySchema, keyed, []int{0},
		[]exec.Agg{{Kind: exec.AggCount, Col: "*", Name: "n"}}, []int{-1}, 0)
	agg := t.finish(as)
	if err != nil {
		return 0, err
	}
	t.add(k, "exec.agg_us", us(agg))
	t.add(k, "exec.groups", float64(len(groups)))
	return scan + agg, nil
}

// replayKNN times core.Engine.KNN, then replays Algorithm 1's area
// expansion over Table.ScanQuery to count the range scans a k-NN query
// issues (core does not expose the count). The replay must find the
// same neighbour distances.
func (t *tracer) replayKNN(ctx context.Context, e *core.Engine, q query, root int, qid int64) error {
	ks := t.start("core.knn", root, qid)
	nbs, err := e.KNN(ctx, "", "orders", q.pt, knnK, core.KNNOptions{})
	t.add("knn", "core.knn_us", us(t.finish(ks)))
	if err != nil {
		return err
	}
	tb, err := e.OpenTable("", "orders")
	if err != nil {
		return err
	}
	rs := t.start("core.knn.replay", root, qid)
	dists, scans, err := knnAreas(ctx, tb, q.pt, knnK, func(scan func() error) error {
		s := t.start("table.scan", rs, qid)
		defer t.finish(s)
		return scan()
	})
	t.finish(rs)
	if err != nil {
		return err
	}
	t.add("knn", "core.knn_scans", float64(scans))
	for i := range nbs {
		if i >= len(dists) || nbs[i].Distance != dists[i] {
			return fmt.Errorf("k-NN replay disagrees with core.KNN at neighbour %d", i)
		}
	}
	return nil
}

// knnAreas is Algorithm 1 (best-first quadrant expansion with area
// pruning, g = 0.01°) over whole-world areas, as core.Engine.KNN runs
// it. It returns the ascending neighbour distances and the number of
// area range scans; each scan runs inside wrap.
func knnAreas(ctx context.Context, tb *table.Table, p geom.Point, k int, wrap func(func() error) error) ([]float64, int, error) {
	const minArea = 0.01
	gi, fi := tb.GeomIndex(), tb.FidIndex()
	areas := &areaQueue{{geom.WorldMBR, geom.WorldMBR.MinDistance(p)}}
	var cand maxHeap
	seen := map[string]bool{}
	scans := 0
	for areas.Len() > 0 {
		a := heap.Pop(areas).(areaDist)
		if cand.Len() == k && a.d > cand[0] {
			break
		}
		if a.m.Width() > minArea || a.m.Height() > minArea {
			for _, c := range a.m.QuadSplit() {
				heap.Push(areas, areaDist{c, c.MinDistance(p)})
			}
			continue
		}
		scans++
		err := wrap(func() error {
			return tb.ScanQuery(ctx, index.Query{Window: a.m}, func(row exec.Row) bool {
				fid := string(table.FIDBytes(row[fi]))
				if seen[fid] {
					return true
				}
				seen[fid] = true
				g, ok := row[gi].(geom.Geometry)
				if !ok {
					return true
				}
				d := geom.DistanceToGeometry(p, g)
				if cand.Len() < k {
					heap.Push(&cand, d)
				} else if d < cand[0] {
					cand[0] = d
					heap.Fix(&cand, 0)
				}
				return true
			})
		})
		if err != nil {
			return nil, scans, err
		}
	}
	out := make([]float64, cand.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&cand).(float64)
	}
	return out, scans, nil
}

type areaDist struct {
	m geom.MBR
	d float64
}

type areaQueue []areaDist

func (h areaQueue) Len() int           { return len(h) }
func (h areaQueue) Less(i, j int) bool { return h[i].d < h[j].d }
func (h areaQueue) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *areaQueue) Push(x any)        { *h = append(*h, x.(areaDist)) }
func (h *areaQueue) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type maxHeap []float64

func (h maxHeap) Len() int           { return len(h) }
func (h maxHeap) Less(i, j int) bool { return h[i] > h[j] }
func (h maxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *maxHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// inserter returns the traced write path: the two calls
// core.Engine.InsertContext makes (Table.InsertBatchCtx, then the
// catalog's meta statistics) as spans, plus a replay of the batch
// through Codec.Encode to time row encoding on its own.
func (t *tracer) inserter() inserter {
	return func(ctx context.Context, e *core.Engine, rows []exec.Row) error {
		tb, err := e.OpenTable("", "orders")
		if err != nil {
			return err
		}
		qid := t.qids.Add(1)
		root := t.start("core.insert", 0, qid)
		defer t.finish(root)
		codec := table.NewCodec(tb.Desc.Columns)
		es := t.start("table.encode", root, qid)
		for _, row := range rows {
			if _, err := codec.Encode(row); err != nil {
				return err
			}
		}
		t.add("write", "table.encode_us", us(t.finish(es)))
		is := t.start("table.insert", root, qid)
		err = tb.InsertBatchCtx(ctx, rows)
		t.add("write", "table.insert_us", us(t.finish(is)))
		if err != nil {
			return err
		}
		ti := tb.TimeIndex()
		minT, maxT := rows[0][ti].(int64), rows[0][ti].(int64)
		for _, r := range rows {
			minT, maxT = min(minT, r[ti].(int64)), max(maxT, r[ti].(int64))
		}
		cs := t.start("table.catalog", root, qid)
		defer t.finish(cs)
		return e.Catalog().UpdateStats("", "orders", int64(len(rows)), minT, maxT)
	}
}

// report sets every per-layer metric from the spans, the per-call
// counters and the run-level counter windows. Traced runs alternate
// traced and untraced statements; per-query figures are means over the
// traced ones of the kinds named, and each is the figure the named
// end-to-end metric should follow:
//
//   - sql.parse_us, sql.plan_us (EXPLAIN minus parse), sql.overhead_us
//     (execute minus the replayed table scan and aggregate): ST queries;
//     st_range_p50_ms on olap-warm.
//   - table.plan_us (Table.PlanAccess), table.ranges_per_query,
//     kv.scan_tasks_per_query: ST queries; st_range_p50_ms and
//     knn_p50_ms on routed-io, where each task is an rpc stream.
//   - table.scan_us (Table.ScanBatches), kv.scan_us (kv.ScanCollect on
//     the same ranges, counting pairs), table.decode_us (their
//     difference), table.rows_examined_per_result (pairs scanned per row
//     returned), compress.decompress_us_per_query and
//     compress.decompress_bytes_per_query (all codecs, during the
//     statement): ST and trajectory queries; traj_range_p50_ms and
//     st_range_p50_ms on olap-warm.
//   - exec.agg_us (exec.AggregateBatches on the replayed batches):
//     agg_p50_ms on olap-warm.
//   - core.knn_us (core.Engine.KNN), core.knn_scans_per_query (area
//     scans of a replay of Algorithm 1): knn_p50_ms and knn_p90_ms.
//   - kv.blocks_read_per_query, kv.blocks_skipped_per_query,
//     kv.bytes_read_per_query (ST queries), kv.block_cache_hit_ratio
//     (all queries), kv.regions: st_range_p50_ms and st_range_p99_ms on
//     routed-io, where every miss pays the disk model.
//   - rpc.bytes_out_per_query and rpc.bytes_in_per_query (router to
//     nodes and back, all queries), rpc.retries, kv.stale_map_refreshes
//     (run totals): st_range_p50_ms, knn_p50_ms and query_qps on
//     routed-io; zero on the standalone workloads.
//   - table.insert_us (Table.InsertBatchCtx), table.encode_us
//     (Codec.Encode over the batch), kv.group_commit_records (records
//     per group commit), kv.wal_syncs_per_s, kv.wal_bytes_per_sync:
//     ingest_rows_per_s and insert_p50_ms.
//   - kv.flushes, kv.compactions, kv.write_stall_ms,
//     kv.flush_queue_depth_max (sampled every 10 ms),
//     jobs.compact_busy_ms, jobs.failures (scheduler class counters):
//     insert_p99_ms and write_amp.
//
// The write-path figures cover the last set-up's load.
// trace.overhead_us is the traced minus the untraced ST median.
func (t *tracer) report(r *runner, c *client, p *phase, w *writeWindow) {
	st, tr, ag, kn := kindNames[kindST], kindNames[kindTraj], kindNames[kindAgg], kindNames[kindKNN]
	all := kindNames[:]

	r.set("sql.parse_us", "us", t.mean("sql.parse_us", st))
	r.set("sql.plan_us", "us", t.mean("sql.plan_us", st))
	r.set("sql.overhead_us", "us", t.mean("sql.overhead_us", st))
	r.set("table.plan_us", "us", t.mean("table.plan_us", st))
	r.set("table.ranges_per_query", "count", t.mean("table.ranges", st))
	r.set("kv.scan_tasks_per_query", "count", t.mean("kv.scan_tasks", st))
	r.set("table.scan_us", "us", t.mean("table.scan_us", st, tr))
	r.set("kv.scan_us", "us", t.mean("kv.scan_us", st, tr))
	r.set("table.decode_us", "us", t.mean("table.decode_us", st, tr))
	pairs, _ := t.total("kv.pairs", st, tr)
	rows, _ := t.total("table.rows", st, tr)
	r.set("table.rows_examined_per_result", "ratio", pairs/max(rows, 1))
	r.set("compress.decompress_us_per_query", "us", t.mean("compress.decompress_us", st, tr))
	r.set("compress.decompress_bytes_per_query", "B", t.mean("compress.decompress_bytes", st, tr))
	r.set("exec.agg_us", "us", t.mean("exec.agg_us", ag))
	r.set("core.knn_us", "us", t.mean("core.knn_us", kn))
	r.set("core.knn_scans_per_query", "count", t.mean("core.knn_scans", kn))
	r.set("kv.blocks_read_per_query", "count", t.mean("kv.blocks_read", st))
	r.set("kv.blocks_skipped_per_query", "count", t.mean("kv.blocks_skipped", st))
	hits, _ := t.total("kv.cache_hits", all...)
	misses, _ := t.total("kv.cache_misses", all...)
	r.set("kv.block_cache_hit_ratio", "ratio", hits/max(hits+misses, 1))
	r.set("kv.bytes_read_per_query", "B", t.mean("kv.bytes_read", st))
	r.set("kv.regions", "count", float64(p.regions))
	r.set("rpc.bytes_out_per_query", "B", t.mean("rpc.bytes_out", all...))
	r.set("rpc.bytes_in_per_query", "B", t.mean("rpc.bytes_in", all...))
	r.set("rpc.retries", "count", float64(p.m1.RPCRetries-p.m0.RPCRetries))
	r.set("kv.stale_map_refreshes", "count", float64(p.m1.StaleMapRefreshes-p.m0.StaleMapRefreshes))

	// Write path: the last set-up's load.
	m0, m1 := w.m0, w.m1
	secs := w.t1.Sub(w.t0).Seconds()
	r.set("table.insert_us", "us", t.mean("table.insert_us", "write"))
	r.set("table.encode_us", "us", t.mean("table.encode_us", "write"))
	r.set("kv.group_commit_records", "count", ratio(m1.GroupCommitRecords-m0.GroupCommitRecords, m1.GroupCommits-m0.GroupCommits))
	r.set("kv.wal_syncs_per_s", "1/s", float64(m1.WALSyncs-m0.WALSyncs)/secs)
	r.set("kv.wal_bytes_per_sync", "B", ratio(m1.WALSyncBytes-m0.WALSyncBytes, m1.WALSyncs-m0.WALSyncs))
	r.set("kv.flushes", "count", float64(m1.Flushes-m0.Flushes))
	r.set("kv.compactions", "count", float64(m1.Compactions-m0.Compactions))
	r.set("kv.write_stall_ms", "ms", float64(m1.WriteStallNanos-m0.WriteStallNanos)/1e6)
	r.set("kv.flush_queue_depth_max", "count", float64(w.queueMax.Load()))
	busy0, fail0 := jobTotals(w.j0)
	busy1, fail1 := jobTotals(w.j1)
	r.set("jobs.compact_busy_ms", "ms", float64(busy1-busy0)/1e6)
	r.set("jobs.failures", "count", float64(fail1-fail0))

	// Tracing overhead: traced minus untraced medians of the same
	// statements' parse+execute time, queries alternating between the two.
	for k := 0; k < numKinds; k++ {
		u, tt := median(c.lat[k]), median(c.latTraced[k])
		logf("trace overhead %-10s %+.1f us (untraced p50 %.3f ms n=%d, traced p50 %.3f ms n=%d)",
			kindNames[k], (tt-u)*1e3, u, len(c.lat[k]), tt, len(c.latTraced[k]))
		if k == kindST {
			r.set("trace.overhead_us", "us", (tt-u)*1e3)
		}
	}
	t.logSelfTimes()
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// jobTotals sums the compact class's busy time and every class's
// failures over the snapshots.
func jobTotals(ss []jobs.Status) (compactNanos, failures int64) {
	for _, s := range ss {
		for _, c := range s.Classes {
			if c.Class == jobs.ClassCompact {
				compactNanos += c.Counters.DurationNanos
			}
			failures += c.Counters.Failed
		}
	}
	return compactNanos, failures
}

// logSelfTimes prints each span name's mean self time: its duration
// minus the time its child spans cover (children of one span run one
// after another).
func (t *tracer) logSelfTimes() {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans[1:] {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type agg struct {
		self, total float64
		n           int
	}
	by := map[string]*agg{}
	for i, s := range t.spans[1:] {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		d := float64(s.End - s.Start)
		a.self += d - float64(child[i+1])
		a.total += d
		a.n++
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := by[n]
		logf("span %-18s n=%-6d mean %10.1f us  self %10.1f us", n, a.n, a.total/float64(a.n)/1e3, a.self/float64(a.n)/1e3)
	}
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans[1:] {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	logf("wrote %d spans to %s", len(t.spans)-1, path)
	return f.Close()
}
