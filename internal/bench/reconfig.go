package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/proto"
	"repro/internal/stats"
)

// This file measures the LIVE payoff of per-shard membership epochs: when
// one shard rides out an install/replay storm — back-to-back m-updates with
// writes in flight, every install shutting the read gate and epoch-filtering
// the in-flight traffic of the shards it touches — how much throughput do the
// *untouched* shards keep? With shard-targeted installs (InstallShardView)
// the storm never touches shards j≠hot, so their readers stay on the
// lock-free fast path at full speed; with the node-wide installs this
// experiment uses as its control, every install shuts every shard's gate and
// retags every shard's traffic, and the collateral damage shows up as lost
// reads, lost fast-path hits and stalled writes on shards that had nothing
// to reconfigure.

// reconfigKeys is the preloaded keyspace; keys spread over all shards.
const reconfigKeys = 256

// reconfigInstallEvery paces the storm: one install per this interval on
// every node, sustained through the storm window — a reconfiguration rate
// far beyond any real membership churn, which is the point of a storm.
const reconfigInstallEvery = 200 * time.Microsecond

// retentionPairs is how many interleaved base/storm window pairs one
// retention measurement takes. Retention is the median of the per-pair
// ratios, so a single window disturbed by the host — GC, or a scheduler
// that on a 2-CPU box shares the cores among 12 event loops, the readers
// and the storm issuer — cannot decide the verdict, and a base window always
// sits next to the storm window it is compared with. On a 2-CPU box with
// the host to itself, one untouched shard's per-pair read ratio has a mean
// of ~0.95 and a standard deviation of ~0.3 (210 pairs); resampling those
// pairs, the worst of three untouched shards' medians fell below 0.8 in
// 8% of 5-pair measurements, 1% of 11-pair ones and 0.3% of 15-pair ones.
const retentionPairs = 15

// counts is one window's per-shard counts on node 0, indexed by field.
type counts [4][]uint64

// Fields of counts.
const (
	fReads = iota
	fWrites
	fHits
	fMisses
)

// Windows is one retention measurement: retentionPairs interleaved pairs of
// a quiet base window and a storm window.
type Windows struct {
	Base, Storm []counts
	Starved     int // pairs retaken because the rest of the host took the CPUs
}

// series returns field f of each window in ws, for shard s or, with s < 0,
// summed over all shards.
func series(ws []counts, f, s int) []uint64 {
	out := make([]uint64, len(ws))
	for i, w := range ws {
		for sh, v := range w[f] {
			if s < 0 || sh == s {
				out[i] += v
			}
		}
	}
	return out
}

func sum(xs []uint64) (t uint64) {
	for _, x := range xs {
		t += x
	}
	return t
}

// retention is the median over the pairs of field f's storm/base ratio (0
// for a pair with an empty base window), for shard s or all shards (s < 0).
func (w Windows) retention(f, s int) float64 {
	base, storm := series(w.Base, f, s), series(w.Storm, f, s)
	r := make([]float64, len(base))
	for i := range base {
		if base[i] > 0 {
			r[i] = float64(storm[i]) / float64(base[i])
		}
	}
	sort.Float64s(r)
	return r[len(r)/2]
}

// stormHitRate is the fast-path hit rate over all storm windows, for shard
// s or all shards (s < 0).
func (w Windows) stormHitRate(s int) float64 {
	h, m := sum(series(w.Storm, fHits, s)), sum(series(w.Storm, fMisses, s))
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// measureWindows preloads the keyspace, drives one reader and one writer
// goroutine per shard against node, warms up, and takes retentionPairs
// base/storm window pairs of dur each. storm issues installs until its
// deadline and returns how many it issued (the fewest over all storm
// windows is returned); settle, when set, waits out a storm's tail before
// the next base window opens. A pair with a window in which the rest of the
// host took the CPUs (quietWindow) is not kept but retaken, for up to
// retentionBudget.
func measureWindows(node *cluster.ShardedNode, shards int, dur time.Duration, storm func(until time.Time) uint64, settle func()) (w Windows, fewest uint64) {
	ctx := context.Background()
	shardKeys := make([][]proto.Key, shards)
	for k := proto.Key(0); k < reconfigKeys; k++ {
		s := proto.ShardOf(k, shards)
		shardKeys[s] = append(shardKeys[s], k)
		if err := node.Write(ctx, k, proto.Value("reconfig-seed")); err != nil {
			panic(fmt.Sprintf("bench: preload: %v", err))
		}
	}
	reads := make([]atomic.Uint64, shards)
	writes := make([]atomic.Uint64, shards)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		keys := shardKeys[s]
		wg.Add(2)
		go func(s int) { // reader: loop over this shard's keys
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := node.Read(ctx, keys[i%len(keys)]); err == nil {
					reads[s].Add(1)
				}
				// Yield between reads: a 40ns fast-path loop per shard would
				// otherwise monopolize small hosts and starve the event
				// loops, turning the measurement into scheduler noise. The
				// retention *ratios* are what this experiment reports, and
				// they survive the yield on any core count.
				runtime.Gosched()
			}
		}(s)
		go func(s int) { // writer: keeps update traffic in flight on the shard
			defer wg.Done()
			val := proto.Value("reconfig-write-32-byte-payload!!")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				wctx, cancel := context.WithTimeout(ctx, time.Second)
				err := node.Write(wctx, keys[i%len(keys)], val)
				cancel()
				if err == nil {
					writes[s].Add(1)
				}
			}
		}(s)
	}
	defer wg.Wait()
	defer close(stop)

	snap := func() (c counts) {
		for f := range c {
			c[f] = make([]uint64, shards)
		}
		for s := 0; s < shards; s++ {
			c[fReads][s], c[fWrites][s] = reads[s].Load(), writes[s].Load()
			_, c[fHits][s], c[fMisses][s] = node.Shard(s).ReadStats()
		}
		return c
	}
	delta := func(a, b counts) (d counts) {
		for f := range d {
			d[f] = make([]uint64, shards)
			for s := range d[f] {
				d[f][s] = b[f][s] - a[f][s]
			}
		}
		return d
	}
	time.Sleep(dur / 4) // warm-up
	deadline := time.Now().Add(retentionBudget)
	for len(w.Base) < retentionPairs {
		_, l0, ok0 := clock()
		c0 := snap()
		time.Sleep(dur)
		c1 := snap()
		t1, l1, ok1 := clock()
		n := storm(t1.Add(dur))
		c2 := snap()
		t2, l2, ok2 := clock()
		ok := ok0 && ok1 && ok2
		if quietWindow(l0, l1, ok) && quietWindow(l1, l2, ok) || t2.After(deadline) {
			if len(w.Base) == 0 || n < fewest {
				fewest = n
			}
			w.Base, w.Storm = append(w.Base, delta(c0, c1)), append(w.Storm, delta(c1, c2))
		} else {
			w.Starved++
		}
		if settle != nil {
			settle()
		}
		time.Sleep(dur / 4)
	}
	return w, fewest
}

// retentionBudget bounds how long measureWindows keeps retaking pairs in
// which the rest of the host took the CPUs; once it is spent, every pair
// counts.
const retentionBudget = 30 * time.Second

// maxOtherLoad is the share of the host's CPU time that everything but this
// process (other processes, and the hypervisor's steal) may take during a
// window for it to count. The readers are busy loops, so what they get is
// what the host leaves them. On a 2-CPU box, with another test binary
// running beside this one (`go test ./...` runs packages in parallel), the
// others took about half, and the untouched shards' storm/base read ratio
// over one pair spread from 0.06 to 3.2, the hot shard's lost reads hidden
// in it; with the host to itself it stayed within 0.73-1.4. The others'
// share is measured from the host's counters rather than from this
// process's own CPU time, because a storm that blocks the readers (the
// node-wide control) idles the process without anyone else running.
const maxOtherLoad = 0.25

// hostLoad is a snapshot of CPU time: the process's own, and the host's busy
// and total (busy plus idle) summed over its CPUs.
type hostLoad struct{ own, busy, total time.Duration }

// clock returns the wall time and a hostLoad snapshot, the latter with false
// where the platform does not report one.
func clock() (time.Time, hostLoad, bool) {
	l, ok := sampleLoad()
	return time.Now(), l, ok
}

// quietWindow reports whether the rest of the host took at most
// maxOtherLoad of its CPU time between snapshots a and b. Without snapshots
// every window counts.
func quietWindow(a, b hostLoad, ok bool) bool {
	total := b.total - a.total
	if !ok || total <= 0 {
		return true
	}
	others := (b.busy - a.busy) - (b.own - a.own)
	return float64(others) <= maxOtherLoad*float64(total)
}

// ReconfigPointResult is one measured storm run on one shard.
type ReconfigPointResult struct {
	Shards, Hot int
	Installs    uint64 // fewest installs any one storm window issued
	Windows

	// EpochsAfter is node 0's per-shard epochs when the storm ends —
	// evidence of which shards the storm actually touched.
	EpochsAfter []uint32
}

// ReadRetention returns shard s's storm-window read throughput as a
// fraction of its baseline.
func (r ReconfigPointResult) ReadRetention(s int) float64 { return r.retention(fReads, s) }

// WriteRetention is the write-side analogue of ReadRetention.
func (r ReconfigPointResult) WriteRetention(s int) float64 { return r.retention(fWrites, s) }

// StormHitRate returns shard s's fast-path hit rate during the storm.
func (r ReconfigPointResult) StormHitRate(s int) float64 { return r.stormHitRate(s) }

// untouchedMin folds fn over the shards the storm did not target and
// returns the minimum — the worst collateral damage.
func (r ReconfigPointResult) untouchedMin(fn func(int) float64) float64 {
	min := -1.0
	for s := 0; s < r.Shards; s++ {
		if s == r.Hot {
			continue
		}
		if v := fn(s); min < 0 || v < min {
			min = v
		}
	}
	return min
}

// UntouchedMinReadRetention is the acceptance number: the worst untouched
// shard's storm-window read throughput relative to baseline.
func (r ReconfigPointResult) UntouchedMinReadRetention() float64 {
	return r.untouchedMin(r.ReadRetention)
}

// UntouchedMinWriteRetention is the write-side analogue.
func (r ReconfigPointResult) UntouchedMinWriteRetention() float64 {
	return r.untouchedMin(r.WriteRetention)
}

// UntouchedMinStormHitRate is the worst untouched shard's fast-path hit
// rate during the storm.
func (r ReconfigPointResult) UntouchedMinStormHitRate() float64 {
	return r.untouchedMin(r.StormHitRate)
}

// RunReconfigPoint stands up a live 3-replica, `shards`-shard group, drives
// one reader and one writer goroutine per shard against node 0, and
// measures interleaved base and storm windows of dur each (measureWindows).
// A storm is sustained installs — per-shard installs targeting only shard
// `hot` when global is false, node-wide installs (the pre-localization
// behaviour) when global is true.
func RunReconfigPoint(shards int, global bool, dur time.Duration) ReconfigPointResult {
	grp := cluster.NewShardedLocal(cluster.LocalConfig{N: 3, MLT: 2 * time.Millisecond}, shards)
	defer grp.Close()
	const hot = 0
	epoch := uint32(1)
	storm := func(until time.Time) (n uint64) {
		for ; time.Now().Before(until); n++ {
			epoch++
			v := proto.View{Epoch: epoch, Members: []proto.NodeID{0, 1, 2}}
			// Every node gets each install, as a membership service's
			// commit fan-out would do.
			for _, nd := range grp.Nodes {
				if global {
					nd.InstallView(v)
				} else {
					nd.InstallShardView(hot, v)
				}
			}
			time.Sleep(reconfigInstallEvery)
		}
		return n
	}
	w, installs := measureWindows(grp.Nodes[0], shards, dur, storm, nil)
	return ReconfigPointResult{Shards: shards, Hot: hot, Installs: installs, Windows: w,
		EpochsAfter: grp.Nodes[0].ShardEpochs()}
}

// RolloutPointResult is one measured full-view rollout storm: every issued
// view reconfigures ALL shards (the membership agent's node-wide decision),
// either staggered one gate at a time through cluster.RolloutController or
// installed on every shard simultaneously (the pre-controller behaviour).
// Reads/writes are aggregated across all shards — with full-view rollouts
// there is no untouched shard, so the aggregate is the availability number.
type RolloutPointResult struct {
	Shards    int
	Issued    uint64 // fewest views any one storm window fed to the nodes
	Installed uint64 // per-shard installs actually performed (node 0)
	Skipped   uint64 // installs skipped by supersede fast-forward (node 0)
	Windows

	EpochsAfter []uint32
}

// AggReadRetention is the acceptance number: storm-window aggregate read
// throughput as a fraction of baseline.
func (r RolloutPointResult) AggReadRetention() float64 { return r.retention(fReads, -1) }

// AggWriteRetention is the write-side analogue.
func (r RolloutPointResult) AggWriteRetention() float64 { return r.retention(fWrites, -1) }

// StormHitRate is the aggregate fast-path hit rate during the storm.
func (r RolloutPointResult) StormHitRate() float64 { return r.stormHitRate(-1) }

// RunRolloutPoint stands up a live 3-replica, `shards`-shard group under
// per-shard readers and writers on node 0 and measures interleaved base and
// storm windows of dur each (measureWindows). A storm is full views — every
// view addressed to every shard — issued until the window closes. With
// staggered=true each node runs a RolloutController (at most one gate shut
// at any moment, coolest shard first, newest view wins mid-roll); with
// staggered=false every view shuts all W gates at once on every node.
func RunRolloutPoint(shards int, staggered bool, dur time.Duration) RolloutPointResult {
	grp := cluster.NewShardedLocal(cluster.LocalConfig{N: 3, MLT: 2 * time.Millisecond}, shards)
	defer grp.Close()
	node := grp.Nodes[0]

	var rcs []*cluster.RolloutController
	if staggered {
		for _, n := range grp.Nodes {
			rc := cluster.NewRolloutController(n, cluster.RolloutConfig{})
			defer rc.Close()
			rcs = append(rcs, rc)
		}
	}
	epoch, issued := uint32(1), uint64(0)
	storm := func(until time.Time) (n uint64) {
		for ; time.Now().Before(until); n++ {
			epoch++
			v := proto.View{Epoch: epoch, Members: []proto.NodeID{0, 1, 2}}
			if staggered {
				for _, rc := range rcs {
					rc.OnView(v)
				}
			} else {
				for _, nd := range grp.Nodes {
					nd.InstallView(v)
				}
			}
			time.Sleep(reconfigInstallEvery)
		}
		issued += n
		return n
	}
	// A staggered roll outlives the storm window that issued its view: let
	// node 0's shards land before the next base window opens.
	settle := func() {
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			landed := true
			for _, e := range node.ShardEpochs() {
				landed = landed && e >= epoch
			}
			if landed {
				return
			}
		}
	}
	w, fewest := measureWindows(node, shards, dur, storm, settle)
	res := RolloutPointResult{Shards: shards, Issued: fewest, Windows: w, EpochsAfter: node.ShardEpochs()}
	if staggered {
		st := rcs[0].Stats()
		res.Installed, res.Skipped = st.ShardInstalls, st.SkippedInstalls
	} else {
		res.Installed = issued * uint64(shards)
	}
	return res
}

// ReconfigAvailability is `hermes-bench -exp reconfig`: one row per install
// mode. The per-shard/global pair reproduces the PR 4 experiment (a storm
// on ONE shard; the headline is what the untouched shards keep); the
// rollout pair storms FULL views through every shard and compares the
// staggered controller against simultaneous all-gates installs — there the
// aggregate read retention is the headline, and hot/untouched columns do
// not apply.
func ReconfigAvailability(sc Scale) *stats.Table {
	t := &stats.Table{Header: []string{
		"mode", "rollout", "installs", "agg-rd-ret%", "agg-wr-ret%", "agg-hit%",
		"hot-rd-ret%", "untouched-rd-ret%", "untouched-hit%", "untouched-wr-ret%",
	}}
	dur := readBenchDur(sc)
	pct := func(v float64) string { return fmt.Sprintf("%.1f", 100*v) }
	for _, global := range []bool{false, true} {
		mode := "per-shard"
		if global {
			mode = "global"
		}
		r := RunReconfigPoint(4, global, dur)
		aggRet, aggWrRet, aggHit := r.retention(fReads, -1), r.retention(fWrites, -1), r.stormHitRate(-1)
		t.AddRow(mode, "-", r.Installs,
			pct(aggRet), pct(aggWrRet), pct(aggHit),
			pct(r.ReadRetention(r.Hot)),
			pct(r.UntouchedMinReadRetention()),
			pct(r.UntouchedMinStormHitRate()),
			pct(r.UntouchedMinWriteRetention()))
	}
	for _, staggered := range []bool{true, false} {
		rollout := "staggered"
		if !staggered {
			rollout = "simultaneous"
		}
		r := RunRolloutPoint(4, staggered, dur)
		t.AddRow("full-view", rollout, r.Issued,
			pct(r.AggReadRetention()), pct(r.AggWriteRetention()), pct(r.StormHitRate()),
			"-", "-", "-", "-")
	}
	return t
}
