package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"just/internal/geom"
	"just/internal/table"
	"just/internal/workload"
)

// Dataset sizes. Order and Traj follow the paper's two real datasets at
// laptop scale; both query workloads load the same data.
const (
	orderN     = 200_000
	trajN      = 600
	trajPoints = 400

	dayMS  = int64(24 * 3600 * 1000)
	weekMS = 7 * dayMS

	// dataSeed generates the datasets; --seed draws the queries. As in
	// the paper's evaluation the data stays fixed and each run asks
	// different questions of it: with the data drawn from --seed too,
	// the hotspot layout alone moved k-NN p90 by ±20% between seeds.
	dataSeed = 2019

	stSideM     = 3000 // ST and trajectory range window side (paper default 3 km)
	knnK        = 100
	geohashPrec = 5
)

// Query kinds of the JustQL mix.
const (
	kindST = iota
	kindKNN
	kindTraj
	kindAgg
	numKinds
)

var kindNames = [numKinds]string{"st_range", "knn", "traj_range", "agg"}

// dataset holds the generated rows the engine is loaded with, in the
// form the oracle filters by brute force. Order fids equal their index.
type dataset struct {
	orders  []workload.Order
	byTime  []int32 // order indexes sorted by time (oracle time slicing)
	trajs   []*table.Trajectory
	trajMBR []geom.MBR
}

func newDataset(nOrders int) *dataset {
	ds := &dataset{
		orders: workload.Orders(workload.OrderConfig{N: nOrders, Seed: dataSeed, Days: 60}),
		trajs: workload.Trajectories(workload.TrajConfig{
			N: trajN, PointsPerTraj: trajPoints, Days: 30, Seed: dataSeed + 1,
		}),
	}
	ds.byTime = make([]int32, len(ds.orders))
	for i := range ds.byTime {
		ds.byTime[i] = int32(i)
	}
	sort.SliceStable(ds.byTime, func(i, j int) bool {
		return ds.orders[ds.byTime[i]].TMS < ds.orders[ds.byTime[j]].TMS
	})
	ds.trajMBR = make([]geom.MBR, len(ds.trajs))
	for i, tr := range ds.trajs {
		ds.trajMBR[i] = tr.MBR()
	}
	return ds
}

// rawOrderBytes and rawTrajBytes give the user-data size write_amp and
// space_amp divide by: 32 bytes per order (fid, time, lng, lat) and, per
// trajectory, its id plus 24 bytes per GPS fix.
func rawOrderBytes(n int) int64 { return int64(n) * 32 }

func (ds *dataset) rawTrajBytes() int64 {
	var b int64
	for _, tr := range ds.trajs {
		b += int64(len(tr.ID)) + 24*int64(len(tr.Points))
	}
	return b
}

// query is one JustQL statement with the parameters the oracle needs.
type query struct {
	kind       int
	win        geom.MBR
	tmin, tmax int64
	pt         geom.Point
	sql        string
}

func ff(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func mbrSQL(m geom.MBR) string {
	return fmt.Sprintf("st_makeMBR(%s, %s, %s, %s)", ff(m.MinLng), ff(m.MinLat), ff(m.MaxLng), ff(m.MaxLat))
}

// Query generators centre every window and k-NN point on a stored
// record, so each query lands where data is. Uniform placement over the
// region would put most 3 km × 1 day windows in empty space (the Order
// data sits in Gaussian hotspots) and time nothing but index planning.

func stQueryWin(win geom.MBR, tmin, tmax int64) query {
	q := query{kind: kindST, win: win, tmin: tmin, tmax: tmax}
	q.sql = fmt.Sprintf("SELECT fid, time FROM orders WHERE geom WITHIN %s AND time BETWEEN %d AND %d",
		mbrSQL(q.win), q.tmin, q.tmax)
	return q
}

func knnQuery(p geom.Point) query {
	return query{kind: kindKNN, pt: p, sql: fmt.Sprintf(
		"SELECT fid FROM orders WHERE geom IN st_KNN(st_makePoint(%s, %s), %d)", ff(p.Lng), ff(p.Lat), knnK)}
}

func trajQuery(p geom.Point) query {
	q := query{kind: kindTraj, win: geom.SquareAround(p, stSideM)}
	q.sql = "SELECT tid, gps_list FROM traj WHERE mbr WITHIN " + mbrSQL(q.win)
	return q
}

func aggQuery(tmin, tmax int64) query {
	return query{kind: kindAgg, tmin: tmin, tmax: tmax, sql: fmt.Sprintf(
		"SELECT st_geohash(geom, %d) AS cell, count(*) AS n FROM orders WHERE time BETWEEN %d AND %d GROUP BY cell",
		geohashPrec, tmin, tmax)}
}

// nextQuery draws one query of the given kind.
func (ds *dataset) nextQuery(rng *rand.Rand, kind int) query {
	var q query
	switch kind {
	case kindST:
		o := ds.orders[rng.Intn(len(ds.orders))]
		q = stQueryWin(geom.SquareAround(o.Point, stSideM), o.TMS-dayMS/2, o.TMS+dayMS/2)
	case kindKNN:
		q = knnQuery(ds.orders[rng.Intn(len(ds.orders))].Point)
	case kindTraj:
		tr := ds.trajs[rng.Intn(len(ds.trajs))]
		q = trajQuery(tr.Points[rng.Intn(len(tr.Points))].Point)
	default:
		t := ds.orders[rng.Intn(len(ds.orders))].TMS
		q = aggQuery(t-weekMS/2, t+weekMS/2)
	}
	return q
}

// mix picks query kinds by fixed weights (shares of queries, not time).
type mix [numKinds]int

func (m mix) pick(rng *rand.Rand) int {
	total := 0
	for _, w := range m {
		total += w
	}
	r := rng.Intn(total)
	for k, w := range m {
		if r < w {
			return k
		}
		r -= w
	}
	return numKinds - 1
}

// geohash is the standard base-32 geohash (the oracle's reference for
// st_geohash).
func geohash(p geom.Point, precision int) string {
	const base32 = "0123456789bcdefghjkmnpqrstuvwxyz"
	latMin, latMax := -90.0, 90.0
	lngMin, lngMax := -180.0, 180.0
	out := make([]byte, 0, precision)
	bit, ch := 0, 0
	even := true
	for len(out) < precision {
		if even {
			mid := (lngMin + lngMax) / 2
			if p.Lng >= mid {
				ch |= 1 << (4 - bit)
				lngMin = mid
			} else {
				lngMax = mid
			}
		} else {
			mid := (latMin + latMax) / 2
			if p.Lat >= mid {
				ch |= 1 << (4 - bit)
				latMin = mid
			} else {
				latMax = mid
			}
		}
		even = !even
		if bit < 4 {
			bit++
		} else {
			out = append(out, base32[ch])
			bit, ch = 0, 0
		}
	}
	return string(out)
}
