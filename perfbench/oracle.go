package main

import (
	"fmt"
	"sort"
	"sync"

	"just/internal/geom"
	"just/internal/sql"
)

// answer is what the engine returned for one query, reduced to what the
// oracle compares.
type answer struct {
	q     query
	fids  []int64          // st_range, knn
	times []int64          // st_range: the time column, parallel to fids
	tids  []string         // traj_range
	npts  []int            // traj_range: gps_list lengths, parallel to tids
	cells map[string]int64 // agg
	rows  int
}

// extract reads a statement result into an answer.
func extract(q query, res *sql.Result) (answer, error) {
	a := answer{q: q}
	if res == nil || res.Frame == nil {
		return a, fmt.Errorf("%s: no result frame", kindNames[q.kind])
	}
	rows := res.Frame.Collect()
	res.Frame.Release()
	a.rows = len(rows)
	for _, r := range rows {
		var ok1, ok2 bool
		switch q.kind {
		case kindST:
			var fid, t int64
			fid, ok1 = r[0].(int64)
			t, ok2 = r[1].(int64)
			a.fids, a.times = append(a.fids, fid), append(a.times, t)
		case kindKNN:
			var fid int64
			fid, ok1 = r[0].(int64)
			ok2 = true
			a.fids = append(a.fids, fid)
		case kindTraj:
			var tid string
			var pts []geom.TPoint
			tid, ok1 = r[0].(string)
			pts, ok2 = r[1].([]geom.TPoint)
			a.tids, a.npts = append(a.tids, tid), append(a.npts, len(pts))
		case kindAgg:
			if a.cells == nil {
				a.cells = map[string]int64{}
			}
			var cell string
			var n int64
			cell, ok1 = r[0].(string)
			n, ok2 = r[1].(int64)
			if _, dup := a.cells[cell]; dup {
				return a, fmt.Errorf("agg: cell %q returned twice", cell)
			}
			a.cells[cell] = n
		}
		if !ok1 || !ok2 {
			return a, fmt.Errorf("%s: unexpected row %v", kindNames[q.kind], r)
		}
	}
	return a, nil
}

// timeSlice returns the order indexes whose time lies in [tmin, tmax].
func (ds *dataset) timeSlice(tmin, tmax int64) []int32 {
	lo := sort.Search(len(ds.byTime), func(i int) bool { return ds.orders[ds.byTime[i]].TMS >= tmin })
	hi := sort.Search(len(ds.byTime), func(i int) bool { return ds.orders[ds.byTime[i]].TMS > tmax })
	return ds.byTime[lo:hi]
}

// check compares an answer with a brute-force evaluation over the
// generated rows.
func (ds *dataset) check(a *answer) error {
	q := a.q
	name := kindNames[q.kind]
	switch q.kind {
	case kindST:
		seen := make(map[int64]bool, len(a.fids))
		for i, fid := range a.fids {
			if fid < 0 || fid >= int64(len(ds.orders)) || seen[fid] {
				return fmt.Errorf("%s: unexpected or duplicate fid %d", name, fid)
			}
			seen[fid] = true
			o := ds.orders[fid]
			if o.TMS != a.times[i] || !q.win.Contains(o.Point) || o.TMS < q.tmin || o.TMS > q.tmax {
				return fmt.Errorf("%s: fid %d does not match the query", name, fid)
			}
		}
		want := 0
		for _, i := range ds.timeSlice(q.tmin, q.tmax) {
			if q.win.Contains(ds.orders[i].Point) {
				want++
			}
		}
		if want != len(a.fids) {
			return fmt.Errorf("%s: %d rows, want %d", name, len(a.fids), want)
		}
	case kindKNN:
		if len(a.fids) != knnK {
			return fmt.Errorf("%s: %d results, want %d", name, len(a.fids), knnK)
		}
		seen := make(map[int64]bool, len(a.fids))
		got := make([]float64, 0, len(a.fids))
		for _, fid := range a.fids {
			if fid < 0 || fid >= int64(len(ds.orders)) || seen[fid] {
				return fmt.Errorf("%s: unexpected or duplicate fid %d", name, fid)
			}
			seen[fid] = true
			got = append(got, geom.EuclideanDistance(q.pt, ds.orders[fid].Point))
		}
		// Compare distances, not fids: ties at the k-th distance may pick
		// either order.
		sort.Float64s(got)
		for i, d := range ds.nearest(q.pt) {
			if got[i] != d {
				return fmt.Errorf("%s: neighbour %d at distance %g, want %g", name, i, got[i], d)
			}
		}
	case kindTraj:
		want := map[string]int{}
		for i, m := range ds.trajMBR {
			if m.Intersects(q.win) {
				want[ds.trajs[i].ID] = len(ds.trajs[i].Points)
			}
		}
		if len(a.tids) != len(want) {
			return fmt.Errorf("%s: %d trajectories, want %d", name, len(a.tids), len(want))
		}
		for i, tid := range a.tids {
			n, ok := want[tid]
			if !ok || n != a.npts[i] {
				return fmt.Errorf("%s: trajectory %s unexpected or with %d points", name, tid, a.npts[i])
			}
			delete(want, tid)
		}
	case kindAgg:
		want := map[string]int64{}
		for _, i := range ds.timeSlice(q.tmin, q.tmax) {
			want[geohash(ds.orders[i].Point, geohashPrec)]++
		}
		if len(a.cells) != len(want) {
			return fmt.Errorf("%s: %d cells, want %d", name, len(a.cells), len(want))
		}
		for cell, n := range a.cells {
			if want[cell] != n {
				return fmt.Errorf("%s: cell %s count %d, want %d", name, cell, n, want[cell])
			}
		}
	}
	return nil
}

// nearest returns the ascending distances from p to its knnK nearest
// orders.
func (ds *dataset) nearest(p geom.Point) []float64 {
	best := make([]float64, 0, knnK+1)
	for _, o := range ds.orders {
		d := geom.EuclideanDistance(p, o.Point)
		if len(best) == knnK && d >= best[knnK-1] {
			continue
		}
		i := sort.SearchFloat64s(best, d)
		best = append(best, 0)
		copy(best[i+1:], best[i:])
		best[i] = d
		if len(best) > knnK {
			best = best[:knnK]
		}
	}
	return best
}

// verify checks every answer on two goroutines and returns the number
// that failed, printing the first few mismatches.
func (ds *dataset) verify(answers []answer) int {
	var mu sync.Mutex
	failed := 0
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(answers); i += 2 {
				if err := ds.check(&answers[i]); err != nil {
					mu.Lock()
					failed++
					if failed <= 5 {
						logf("oracle mismatch: %v\n  query: %s", err, answers[i].q.sql)
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return failed
}
