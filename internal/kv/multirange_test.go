package kv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"just/internal/rpc"
)

// Multi-range scan tests. The router sends all of a region's ranges in
// one OpScanRanges stream, served on the region node by one walker per
// range. These tests pin exact-once resume across cut streams and
// splits, walker teardown on early stop and deadline, task grouping,
// and connection reuse.

const mrRows = 8000

func mrKey(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }

func mrIndex(t *testing.T, key []byte) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(string(key), "k%06d", &i); err != nil {
		t.Fatalf("bad fixture key %q", key)
	}
	return i
}

// mrRanges is the fixture's query: 55 small disjoint ranges of one
// batch each, a 1500-key range of three batches and an unbounded tail,
// listed in reverse key order so the router has to sort them.
func mrRanges() []KeyRange {
	var out []KeyRange
	for i := 0; i < 55; i++ {
		out = append(out, KeyRange{Start: mrKey(i*100 + 5), End: mrKey(i*100 + 95)})
	}
	out = append(out, KeyRange{Start: mrKey(6000), End: mrKey(7500)}, KeyRange{Start: mrKey(7600)})
	slices.Reverse(out)
	return out
}

func mrBatch() *WriteBatch {
	var b WriteBatch
	for i := 0; i < mrRows; i++ {
		b.Put(mrKey(i), []byte(fmt.Sprintf("v%d", i)))
	}
	return &b
}

// mrOracle scans the fixture on the in-process Cluster: the reference
// answer, as sorted "key=value" strings.
func mrOracle(t *testing.T, ranges []KeyRange) []string {
	t.Helper()
	c, err := OpenCluster(t.TempDir(), testClusterOpts(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Apply(mrBatch()); err != nil {
		t.Fatal(err)
	}
	var out []string
	err = c.ScanRanges(context.Background(), ranges, func(k, v []byte) bool {
		out = append(out, string(k)+"="+string(v))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// splitRegionAt splits the router-known region holding key on its
// primary, the same OpSplit a primary forwards to its replicas. The
// router's cached map is left stale.
func splitRegionAt(t *testing.T, tr Transport, r *Router, key []byte, leftID uint64) {
	t.Helper()
	for _, reg := range r.Topology() {
		if (KeyRange{Start: reg.Start, End: reg.End}).Contains(key) {
			req := rpc.SplitReq{Region: reg.ID, Epoch: reg.Epoch, SplitKey: key, LeftID: leftID, RightID: leftID + 1}
			if _, err := tr.Do(context.Background(), reg.Primary, rpc.OpSplit, rpc.MarshalAdmin(&req)); err != nil {
				t.Fatalf("split at %q: %v", key, err)
			}
			return
		}
	}
	t.Fatalf("no region holds %q", key)
}

// splitOnCut is the router's transport in the resume test: the first
// scan stream the fault rule cuts also splits the region it was
// reading, after the stream ended and before the router retries, so
// the resumed ranges must cross into daughters the router never saw.
type splitOnCut struct {
	*FaultTransport
	once  sync.Once
	split func(req rpc.ScanRangesReq)
}

func (s *splitOnCut) Stream(ctx context.Context, addr string, op byte, payload []byte, onFrame func(op byte, payload []byte) (bool, error)) error {
	err := s.FaultTransport.Stream(ctx, addr, op, payload, onFrame)
	if op == rpc.OpScanRanges && rpc.IsTransport(err) {
		s.once.Do(func() {
			var req rpc.ScanRangesReq
			if req.Decode(payload) == nil {
				s.split(req)
			}
		})
	}
	return err
}

// TestChaosMultiRangeResumeEveryCut cuts the first region's
// multi-range stream after k frames for every k the stream has, and
// splits that region at the cut, with 57 ranges over four regions (two
// ranges cross a region boundary, one starts exactly on one). Every
// run must deliver each key exactly once, each range in key order, and
// the same answer as the in-process Cluster.
func TestChaosMultiRangeResumeEveryCut(t *testing.T) {
	ranges := mrRanges()
	want := mrOracle(t, ranges)
	sorted := append([]KeyRange(nil), ranges...)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i].Start, sorted[j].Start) < 0 })
	rangeOf := func(k []byte) int {
		return sort.Search(len(sorted), func(i int) bool { return bytes.Compare(sorted[i].Start, k) > 0 }) - 1
	}

	// The first region, (-inf, k004205), holds 42 one-batch ranges: a
	// 43-frame stream counting the terminal frame.
	const streamFrames = 43
	for k := 1; k < streamFrames; k++ {
		lb := NewLoopback()
		testNode(t, lb, "s1", 1, NodeOptions{})
		testNode(t, lb, "s2", 2, NodeOptions{})
		ft := NewFaultTransport(lb, int64(k))
		tr := &splitOnCut{FaultTransport: ft}
		r, err := OpenRouter(fastRetry(RouterOptions{Peers: []string{"s1", "s2"}, Transport: tr}))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Apply(mrBatch()); err != nil {
			t.Fatal(err)
		}
		// k004205 starts a range; k005050 and k006700 fall inside one.
		for i, key := range []int{4205, 5050, 6700} {
			splitRegionAt(t, lb, r, mrKey(key), uint64(100+2*i))
			r.Regions() // refresh the cached map
		}
		if n := r.Regions(); n != 4 {
			t.Fatalf("k=%d: %d regions after pre-splits, want 4", k, n)
		}
		tr.split = func(req rpc.ScanRangesReq) {
			// Split inside the middle range of the cut request.
			mid := req.Ranges[len(req.Ranges)/2]
			at := mrKey(mrIndex(t, mid.Start) + 45)
			sreq := rpc.SplitReq{Region: req.Region, Epoch: req.Epoch, SplitKey: at, LeftID: 200, RightID: 201}
			if _, err := lb.Do(context.Background(), "s1", rpc.OpSplit, rpc.MarshalAdmin(&sreq)); err != nil {
				t.Errorf("k=%d: split at the cut: %v", k, err)
			}
		}
		ft.Add(TransportFaultRule{Op: rpc.OpScanRanges, Prob: 1, Count: 1, AfterFrames: k})

		seen := map[string]int{}
		last := make([][]byte, len(sorted))
		var got []string
		err = r.ScanRanges(context.Background(), ranges, func(key, v []byte) bool {
			seen[string(key)]++
			i := rangeOf(key)
			if i < 0 || !sorted[i].Contains(key) {
				t.Errorf("k=%d: key %q outside every range", k, key)
			} else if last[i] != nil && bytes.Compare(last[i], key) >= 0 {
				t.Errorf("k=%d: range %d out of order: %q after %q", k, i, key, last[i])
			} else {
				last[i] = append([]byte(nil), key...)
			}
			got = append(got, string(key)+"="+string(v))
			return true
		})
		if err != nil {
			t.Fatalf("k=%d: scan: %v", k, err)
		}
		for key, n := range seen {
			if n != 1 {
				t.Fatalf("k=%d: key %q delivered %d times", k, key, n)
			}
		}
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d: router answer (%d pairs) differs from the Cluster's (%d pairs)", k, len(got), len(want))
		}
		if ft.Injected() != 1 {
			t.Fatalf("k=%d: injected = %d, want 1", k, ft.Injected())
		}
		if n := r.Regions(); n != 5 {
			t.Fatalf("k=%d: %d regions after the split at the cut, want 5", k, n)
		}
		r.Close()
	}
}

// TestRouterScanTasksOneStreamPerRegion pins the task grouping: one
// task per region with its sub-ranges sorted, a range overlapping the
// previous one starting a new task, and the overlapped keys scanned
// once per range, as the Cluster scans them.
func TestRouterScanTasksOneStreamPerRegion(t *testing.T) {
	lb, _, r := startRouterCluster(t, 1, NodeOptions{}, RouterOptions{})
	if err := r.Apply(mrBatch()); err != nil {
		t.Fatal(err)
	}
	splitRegionAt(t, lb, r, mrKey(4000), 100)
	r.Regions()

	ranges := mrRanges()
	tasks := r.scanTasks(ranges)
	if len(tasks) != 2 {
		t.Fatalf("%d tasks for 57 ranges over 2 regions, want 2", len(tasks))
	}
	for _, task := range tasks {
		for i := 1; i < len(task.krs); i++ {
			if task.krs[i-1].Overlaps(task.krs[i]) || !startBefore(task.krs[i-1].Start, task.krs[i].Start) {
				t.Fatalf("task ranges not sorted and disjoint: %q then %q", task.krs[i-1].Start, task.krs[i].Start)
			}
		}
	}

	overlapping := append(ranges, KeyRange{Start: mrKey(50), End: mrKey(100)})
	if n := len(r.scanTasks(overlapping)); n != 3 {
		t.Fatalf("%d tasks with one overlapping range, want 3", n)
	}
	want := mrOracle(t, overlapping)
	var got []string
	if err := r.ScanRanges(context.Background(), overlapping, func(k, v []byte) bool {
		got = append(got, string(k)+"="+string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Fatalf("router answer (%d pairs) differs from the Cluster's (%d pairs)", len(got), len(want))
	}
}

// TestRouterMultiRangeScanReusesConnection runs a 60-range scan against
// one region over TCP after one warm-up query: the router must open no
// new connection, because the whole scan is one stream.
func TestRouterMultiRangeScanReusesConnection(t *testing.T) {
	node, err := OpenRegionNode(t.TempDir(), NodeOptions{Options: Options{DisableWAL: true}, NodeID: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rpc.Serve("127.0.0.1:0", node.Handler(), rpc.ServerOptions{})
	if err != nil {
		node.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); node.Close() })
	// No Transport: the router dials through its own pooled client, whose
	// dial count RPCDials reports.
	r, err := OpenRouter(RouterOptions{Peers: []string{srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Apply(mrBatch()); err != nil {
		t.Fatal(err)
	}
	var ranges []KeyRange
	for i := 0; i < 60; i++ {
		ranges = append(ranges, KeyRange{Start: mrKey(i*100 + 5), End: mrKey(i*100 + 95)})
	}
	scan := func() int {
		n := 0
		if err := r.ScanRanges(context.Background(), ranges, func(k, v []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	scan() // warm-up
	m0 := r.Metrics()
	if m0.RPCDials == 0 {
		t.Fatal("RPCDials = 0 after a warm-up query; dials are not counted")
	}
	if n := scan(); n != 60*90 {
		t.Fatalf("scan returned %d pairs, want %d", n, 60*90)
	}
	m1 := r.Metrics()
	if d := m1.RPCDials - m0.RPCDials; d != 0 {
		t.Fatalf("60-range scan dialed %d new connections, want 0", d)
	}
	if d := m1.ScanTasks - m0.ScanTasks; d != 1 {
		t.Fatalf("60-range scan ran %d scan tasks, want 1", d)
	}
}

// mrWalkerCluster is a one-node loopback cluster holding 60 ranges of
// 1200 keys each (three batches per range), warmed by one full scan so
// later goroutine counts compare against a steady baseline.
func mrWalkerCluster(t *testing.T) (*Loopback, *RegionNode, *Router, []KeyRange) {
	t.Helper()
	lb, nodes, r := startRouterCluster(t, 1, NodeOptions{}, fastRetry(RouterOptions{}))
	var b WriteBatch
	for i := 0; i < 60*1300; i++ {
		b.Put(mrKey(i), []byte("v"))
		if b.Len() == 4000 {
			if err := r.Apply(&b); err != nil {
				t.Fatal(err)
			}
			b = WriteBatch{}
		}
	}
	if err := r.Apply(&b); err != nil {
		t.Fatal(err)
	}
	var ranges []KeyRange
	for i := 0; i < 60; i++ {
		ranges = append(ranges, KeyRange{Start: mrKey(i * 1300), End: mrKey(i*1300 + 1200)})
	}
	if err := r.ScanRanges(context.Background(), ranges, func(k, v []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	return lb, nodes[0], r, ranges
}

// assertWalkersReleased checks what a torn-down multi-range stream must
// leave behind: no walker goroutine (the count returns to the baseline
// taken before the scan) and no region read lock (a split completes).
func assertWalkersReleased(t *testing.T, lb *Loopback, r *Router, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after the scan ended, baseline %d: walkers leaked", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		splitRegionAt(t, lb, r, mrKey(30*1300), 100)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("split after the scan did not complete: the region read lock is still held")
	}
	if n := r.Regions(); n != 2 {
		t.Fatalf("%d regions after the split, want 2", n)
	}
}

// TestMultiRangeEarlyStopStopsWalkers stops consuming ten pairs into a
// 60-range stream: the region node must count the cancel and stop every
// walker before releasing the region.
func TestMultiRangeEarlyStopStopsWalkers(t *testing.T) {
	lb, node, r, ranges := mrWalkerCluster(t)
	baseline := runtime.NumGoroutine()
	cancels := node.Metrics().ScanCancels
	rows := 0
	err := r.ScanRanges(context.Background(), ranges, func(k, v []byte) bool {
		rows++
		return rows < 10
	})
	if err != nil {
		t.Fatalf("early-stopped scan: %v", err)
	}
	if rows != 10 {
		t.Fatalf("emit ran %d times after returning false at 10", rows)
	}
	if node.Metrics().ScanCancels == cancels {
		t.Fatal("ScanCancels not counted for the abandoned stream")
	}
	assertWalkersReleased(t, lb, r, baseline)
}

// TestMultiRangeDeadlineStopsWalkers lets the caller's deadline expire
// under a slow consumer of a 60-range stream: the caller sees
// context.DeadlineExceeded, the region node stops the stream, and every
// walker is gone before the region is released.
func TestMultiRangeDeadlineStopsWalkers(t *testing.T) {
	lb, node, r, ranges := mrWalkerCluster(t)
	baseline := runtime.NumGoroutine()
	m0 := node.Metrics()
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	rows := 0
	err := r.ScanRanges(ctx, ranges, func(k, v []byte) bool {
		rows++
		if rows%scanBatchSize == 0 {
			time.Sleep(8 * time.Millisecond) // slow consumer: ~140 batches to go
		}
		return true
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("scan err = %v, want context.DeadlineExceeded", err)
	}
	if rows >= 60*1200 {
		t.Fatal("scan delivered every row despite the expired deadline")
	}
	// The node stops through whichever side notices first: its own check
	// of the propagated deadline, or the router abandoning the stream.
	if m1 := node.Metrics(); m1.DeadlineAborts+m1.ScanCancels == m0.DeadlineAborts+m0.ScanCancels {
		t.Fatal("neither DeadlineAborts nor ScanCancels counted; the node never noticed the expired budget")
	}
	assertWalkersReleased(t, lb, r, baseline)
}
