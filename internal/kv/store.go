package kv

import "context"

// Store is the storage-fabric surface the table and query layers build
// on. Two implementations exist:
//
//   - *Cluster: the in-process simulated cluster (standalone deployments
//     and tests) — regions, replication and region servers all live in
//     one process.
//   - *Router: the networked deployment — a cached region map routing
//     every operation to TCP region servers (see router.go).
//
// The unexported methods deliberately restrict implementations to this
// package: the generic scan pipeline (ScanRangesFunc, ScanCollect) is
// built on their contracts, which are too easy to get subtly wrong
// (resume semantics, corruption failover, slot accounting) to leave
// open.
type Store interface {
	// Put stores key → value.
	Put(key, value []byte) error
	// Delete removes key.
	Delete(key []byte) error
	// Get fetches the value for key or ErrNotFound.
	Get(key []byte) ([]byte, error)
	// Apply group-commits a WriteBatch (regions in parallel, batch order
	// kept within each region).
	Apply(b *WriteBatch) error
	// MultiGet fetches many keys; the result is parallel to keys, with
	// nil entries for missing keys.
	MultiGet(keys [][]byte) ([][]byte, error)
	// DeleteBatch removes many keys via the group-commit path.
	DeleteBatch(keys [][]byte) error

	// Context-carrying variants of the point operations, for callers
	// holding a query deadline: the networked Router propagates the
	// remaining budget to the region servers in the request frames (so
	// abandoned work aborts server-side); the in-process Cluster honors
	// cancellation between operations. The plain methods above are these
	// with context.Background().
	PutCtx(ctx context.Context, key, value []byte) error
	DeleteCtx(ctx context.Context, key []byte) error
	GetCtx(ctx context.Context, key []byte) ([]byte, error)
	ApplyCtx(ctx context.Context, b *WriteBatch) error
	MultiGetCtx(ctx context.Context, keys [][]byte) ([][]byte, error)
	DeleteBatchCtx(ctx context.Context, keys [][]byte) error
	// ScanRange streams pairs of one range in key order; emit returning
	// false stops the scan early.
	ScanRange(kr KeyRange, emit func(key, value []byte) bool) error
	// ScanRanges runs the ranges' scan tasks (see scanTasks) in
	// parallel, delivering pairs to emit serially in arbitrary
	// inter-range order.
	ScanRanges(ctx context.Context, ranges []KeyRange, emit func(key, value []byte) bool) error
	// Flush persists all memtables.
	Flush() error
	// Compact fully compacts every region.
	Compact() error
	// DiskSize returns total on-disk bytes (including replica copies).
	DiskSize() int64
	// Regions returns the current region count (grows with splits).
	Regions() int
	// Metrics snapshots cumulative storage metrics.
	Metrics() Metrics
	// RegisterZoneExtractor installs fn as the zone extractor for keys
	// with the given prefix (nil fn unregisters). Implementations that
	// cannot push extractors to the storage nodes may ignore this; zone
	// pruning is an optimization, never a correctness requirement.
	RegisterZoneExtractor(prefix []byte, fn ZoneExtractor)
	// Close releases the store.
	Close() error

	// scanTasks splits ranges into schedulable tasks: one per (region ×
	// range) in-process, one per region (holding all of that region's
	// sub-ranges) on the routed fabric.
	scanTasks(ranges []KeyRange) []scanTask
	// runScanTask streams one task's pairs in key order, handling node
	// selection, retries and resume internally. The pairs passed to emit
	// are valid only during the call; emit returning false stops the
	// task without error.
	runScanTask(ctx context.Context, t scanTask, emit func(key, value []byte) bool) error
	// metrics exposes the live counter block for the scan pipeline.
	metrics() *Metrics
	// scanWidth sizes the worker → consumer batch channel (roughly the
	// useful scan parallelism).
	scanWidth() int
}

// scanTask is one schedulable unit of a parallel scan, served by one
// region. Exactly one shape is set, matching the Store that produced
// it.
type scanTask struct {
	kr KeyRange      // *Cluster: the key sub-range
	h  *regionHandle // *Cluster: the serving replication group
	// *Router: sorted, disjoint sub-ranges of one cached region, streamed
	// in one request (re-routed on staleness).
	krs []KeyRange
}
