package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"just/internal/core"
	"just/internal/exec"
	"just/internal/jobs"
	"just/internal/kv"
	"just/internal/rpc"
	"just/internal/table"
	"just/internal/workload"
)

const (
	routedNodes = 3
	// routedCacheBytes is each region node's block cache: well below the
	// ~1/3 of the dataset a node holds, so queries keep missing.
	routedCacheBytes = 4 << 20
	// diskMBps is the simulated disk of the paper harness
	// (internal/bench): every block read from an SSTable sleeps
	// size/throughput.
	diskMBps = 40
	// insertBatchRows is the write batch of every Order load.
	insertBatchRows = 500
)

// deployment is one running engine: standalone (core.Open over the
// in-process cluster) or routed (region nodes behind a kv.Router over
// TCP loopback sockets, all in this process).
type deployment struct {
	e       *core.Engine
	dir     string
	nodes   []*kv.RegionNode
	servers []*rpc.Server
	scheds  []*jobs.Scheduler // routed: one maintenance scheduler per node
	closers []func() error
}

func openStandalone(dir string) (*deployment, error) {
	e, err := core.Open(core.Config{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("open standalone engine: %w", err)
	}
	return &deployment{e: e, dir: dir, closers: []func() error{e.Close}}, nil
}

// openRouted starts routedNodes region nodes, each serving rpc on its
// own loopback port, and a router engine over them. Reopening the same
// dir restarts the nodes on their stored regions.
func openRouted(dir string, opts kv.Options) (*deployment, error) {
	d := &deployment{dir: dir}
	cl := rpc.NewClient(rpc.ClientOptions{})
	d.closers = append(d.closers, func() error { cl.Close(); return nil })
	peers := make([]string, routedNodes)
	for i := range peers {
		ndir := filepath.Join(dir, fmt.Sprintf("node%d", i+1))
		sched := jobs.New(jobs.Options{DiskPath: dir})
		d.closers = append(d.closers, sched.Close)
		d.scheds = append(d.scheds, sched)
		opts.Jobs = sched
		node, err := kv.OpenRegionNode(ndir, kv.NodeOptions{
			Options: opts, NodeID: i + 1, Transport: cl,
		})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("open region node: %w", err)
		}
		d.closers = append(d.closers, node.Close)
		srv, err := rpc.Serve("127.0.0.1:0", node.Handler(), rpc.ServerOptions{})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("serve region node: %w", err)
		}
		d.closers = append(d.closers, srv.Close)
		d.nodes, d.servers = append(d.nodes, node), append(d.servers, srv)
		peers[i] = srv.Addr()
	}
	e, err := core.Open(core.Config{
		Dir:    filepath.Join(dir, "router"),
		Router: &kv.RouterOptions{Peers: peers},
	})
	if err != nil {
		d.close()
		return nil, fmt.Errorf("open router engine: %w", err)
	}
	d.e = e
	d.closers = append(d.closers, e.Close)
	return d, nil
}

// close stops the engine first, then servers, then nodes, and returns
// the first error. Closing again is a no-op.
func (d *deployment) close() error {
	var first error
	for i := len(d.closers) - 1; i >= 0; i-- {
		if err := d.closers[i](); err != nil && first == nil {
			first = fmt.Errorf("close: %w", err)
		}
	}
	d.closers = nil
	return first
}

// kvMetrics snapshots the storage counters. The router adds each
// node's counters to its own through one stats rpc per node.
func (d *deployment) kvMetrics() kv.Metrics { return d.e.Store().Metrics() }

// jobsStatus returns every maintenance scheduler's snapshot.
func (d *deployment) jobsStatus() []jobs.Status {
	if d.scheds == nil {
		return []jobs.Status{d.e.Jobs().Snapshot()}
	}
	out := make([]jobs.Status, len(d.scheds))
	for i, s := range d.scheds {
		out[i] = s.Snapshot()
	}
	return out
}

// rpcBytes returns the bytes the router sent to (out) and received from
// (in) the region nodes, as counted by the node servers.
func (d *deployment) rpcBytes() (out, in int64) {
	for _, s := range d.servers {
		st := s.Stats()
		out += st.BytesIn
		in += st.BytesOut
	}
	return out, in
}

func createTables(e *core.Engine) error {
	if err := e.CreateTable(&table.Desc{Name: "orders", Columns: workload.OrderSchema()}); err != nil {
		return fmt.Errorf("create orders: %w", err)
	}
	if err := e.CreateTableAs("", "traj", "trajectory"); err != nil {
		return fmt.Errorf("create traj: %w", err)
	}
	return nil
}

// inserter writes one batch of order rows; the traced run swaps in a
// version that records spans around each layer's call.
type inserter func(ctx context.Context, e *core.Engine, rows []exec.Row) error

func engineInsert(ctx context.Context, e *core.Engine, rows []exec.Row) error {
	return e.InsertContext(ctx, "", "orders", rows)
}

// loadStats records one load: per-batch insert latencies and the rows
// written.
type loadStats struct {
	batchMS []float64
	rows    int
	elapsed time.Duration
}

// loadOrders inserts orders in insertBatchRows batches through ins.
func loadOrders(ctx context.Context, e *core.Engine, os []workload.Order, ins inserter, ls *loadStats) error {
	start := time.Now()
	for i := 0; i < len(os); i += insertBatchRows {
		j := min(i+insertBatchRows, len(os))
		rows := workload.OrderRows(os[i:j])
		t0 := time.Now()
		if err := ins(ctx, e, rows); err != nil {
			return fmt.Errorf("insert orders: %w", err)
		}
		ls.batchMS = append(ls.batchMS, msSince(t0))
		ls.rows += j - i
	}
	ls.elapsed += time.Since(start)
	return nil
}

func loadTrajs(e *core.Engine, ds *dataset) error {
	rows, err := workload.TrajectoryRows(ds.trajs)
	if err != nil {
		return err
	}
	if err := e.BulkInsert("", "traj", rows); err != nil {
		return fmt.Errorf("insert traj: %w", err)
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
