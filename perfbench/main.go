// Command perfbench is the repository's benchmark: a three-replica Hermes
// cluster over loopback TCP, composed as cmd/hermes-node composes one
// replica, driven over the client wire protocol by two pipelined
// connections, one to each of the two serving replicas.
//
// Each run has an open-loop phase at the workload's fixed rate, a
// closed-loop phase at a fixed depth, and a correctness gate. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it wraps each
// layer's public interface, prints the per-layer metrics, and compares its
// closed-loop throughput against an unwrapped cluster's as the tracing
// overhead. The last line of standard output is one JSON object.
//
// Build and run from the repository root with perfbench/run.sh, e.g.
//
//	perfbench/run.sh --workload read-mostly --seed 1 --seconds 40 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setups is how many times an untraced run stands the cluster up; setup_s
// is their median.
const setups = 5

// warmup runs unmeasured closed-loop traffic before the first phase.
const warmup = 300 * time.Millisecond

// Generator lateness past these bounds marks an open-loop segment as off
// schedule: the load offered in it was not the fixed rate. The generator
// shares the process, so a collector cycle delays it as it delays the
// servers, by some tens of milliseconds on a 2-CPU host; the bounds sit
// well above that and catch a host that starved the whole process. The
// open-loop metrics are medians over the segments, which rest on a
// segment that kept its schedule as long as at most half of them, rounded
// down, did not; a run with more off-schedule segments is invalid.
const (
	maxLateP99 = 50 * time.Millisecond
	maxLate    = 250 * time.Millisecond
)

// Exit codes.
const (
	exitIncorrect = 1 // a correctness check failed; the result line says so
	exitInvalid   = 2 // bad arguments, set-up failure or an invalid run; no result line
)

func main() {
	wl := flag.String("workload", "", "workload name: read-mostly, write-heavy or hot-keys")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 40, "measured seconds: three quarters open loop, one quarter closed loop, over five rounds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory the traced run writes its spans under")
	flag.Parse()
	sp, ok := specByName(*wl)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wl, *seconds, *trace)
		os.Exit(exitInvalid)
	}
	total := time.Duration(*seconds) * time.Second
	b := &bench{sp: sp, ks: newKeyspace(*seed), seed: *seed, open: total * 3 / 4, closed: total / 4}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d: %d replicas (%d serving), W=%d, MLT %v, %d Ki keys, %d B values, %.0f%% updates, zipf=%v\n",
		sp.name, *seed, *seconds, *trace, replicas, serving, shards, mlt, keys>>10, sp.valueSize, sp.updates*100, sp.zipf)
	if sp.excluded != "" {
		fmt.Printf("NOTE: %s is not in BENCHMARK.json: %s\n", sp.name, sp.excluded)
	}
	var err error
	if *trace == 0 {
		err = b.untraced()
	} else {
		err = b.traced(filepath.Join(*out, "trace"))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(exitInvalid)
	}
	line, err := b.rep.resultLine(b.correct, b.attempted, b.failed, b.names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(exitInvalid)
	}
	fmt.Println(line)
	if !b.correct {
		os.Exit(exitIncorrect)
	}
}

// bench is one invocation's state and findings.
type bench struct {
	sp   spec
	ks   *keyspace
	seed int64
	// open and closed are the total lengths of the two kinds of measured
	// segment, each split over the rounds. The open loop gets the larger
	// share: its tail percentiles rest on the collector's cycles, and the
	// more of them a run spans the steadier they are. The traced run gives
	// each kind closed.
	open, closed time.Duration

	rep report
	// names are the metrics the result line carries.
	names []string
	// correct is false once a correctness check failed; attempted and
	// failed count ops over every phase, the checks' included.
	correct           bool
	attempted, failed int64
}

func (b *bench) drivers(c *composition, t *tracer) []*driver {
	var ds []*driver
	for i, cl := range c.conns {
		ds = append(ds, &driver{c: cl, gen: newGenerator(b.sp, b.ks, b.seed, i), t: t, stuck: make(chan struct{})})
	}
	return ds
}

// account adds a phase's ops to the run's attempted and failed counts.
func (b *bench) account(tl *tally) {
	b.attempted += tl.attempted
	b.failed += tl.failed()
}

// gate runs the correctness checks and folds their outcome into the run.
func (b *bench) gate(c *composition, ds []*driver) {
	tl, err := verify(c, ds, b.ks)
	if tl != nil {
		b.account(tl)
	}
	if err != nil {
		fmt.Printf("CORRECTNESS FAILURE: %v\n", err)
		b.correct = false
	}
	for i, s := range c.srvs {
		if k := s.Stats().Killed; k > 0 {
			fmt.Printf("FAILURE: server %d killed %d sessions\n", i, k)
			b.failed += int64(k)
		}
	}
}

func (b *bench) untraced() error {
	var setupS []float64
	var c *composition
	for i := 0; i < setups; i++ {
		if c != nil {
			c.close()
			c = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if c, err = standUp(b.sp, nil); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer c.close()
	ds := b.drivers(c, nil)
	phase(ds, 0, 0, func(d *driver) { d.closedLoop(depth, warmup, 0) })
	steal0 := stealTime()
	m := b.measure(ds, b.open, b.closed)
	steal := stealTime() - steal0
	b.correct = true
	b.account(m.open)
	b.account(m.closed)
	b.gate(c, ds)

	r := &b.rep
	sort.Float64s(setupS)
	r.add("setup_s", setupS[len(setupS)/2], "s", fmt.Sprintf("median of %d set-ups: %.3f..%.3f", len(setupS), setupS[0], setupS[len(setupS)-1]))
	b.addOpsS("ops_s", m.rates)
	invalid := b.openLoopMetrics(m)
	r.add("rss_peak_mb", peakRSSMB(), "MB", "process peak resident set")
	for _, e := range endToEnd {
		b.names = append(b.names, e.name)
	}
	b.printReport(m.open, m.closed)
	fmt.Printf("  host CPU time stolen by the hypervisor during the measured phases: %v\n", steal)
	return invalid
}

// measured is what the rounds of a run observed.
type measured struct {
	// open and closed merge the rounds' tallies of each kind of segment.
	open, closed *tally
	// segs are the open-loop segments' due times and cpuPerOp their
	// process CPU per answered op, us; rates are the closed-loop windows'
	// ops/s.
	segs            []segment
	cpuPerOp, rates []float64
}

// measure runs the rounds: an open-loop segment of open/rounds at the
// workload's rate, skipped when open is 0, then a closed-loop segment of
// closed/rounds.
func (b *bench) measure(ds []*driver, open, closed time.Duration) *measured {
	m := &measured{open: &tally{}, closed: &tally{}}
	open, closed = open/rounds, closed/rounds
	for i := 0; i < rounds; i++ {
		if open > 0 {
			tl, marks := phase(ds, 1, open, func(d *driver) { d.openLoop(b.sp.rate/float64(len(ds)), open) })
			a, z := marks[0], marks[1]
			m.open.merge(tl)
			m.segs = append(m.segs, segment{a.at, a.at + int64(open)})
			m.cpuPerOp = append(m.cpuPerOp, float64(z.cpu-a.cpu)/1e3/float64(z.answered-a.answered))
		}
		tl, marks := phase(ds, closedWindows, closed/closedWindows, func(d *driver) { d.closedLoop(depth, closed, 0) })
		m.closed.merge(tl)
		m.rates = append(m.rates, windowRates(marks)...)
	}
	return m
}

// addOpsS reports the median closed-loop rate over the windows.
func (b *bench) addOpsS(name string, rates []float64) {
	d := newDist(rates)
	b.rep.add(name, median(rates), "ops/s", fmt.Sprintf("median of %d closed-loop windows, depth %d x %d; %.0f..%.0f",
		len(d), depth, serving, d[0], d.max()))
}

// openLoopMetrics reports the open-loop latencies, CPU per op and
// generator lateness. It returns an error, also printed, when the segments
// are invalid: a latency percentile not reportable, or the generator off
// schedule in more than half of the rounds.
func (b *bench) openLoopMetrics(m *measured) error {
	r := &b.rep
	us := 1e-3
	open := m.open
	r.add("cpu_us_per_op", median(m.cpuPerOp), "us", fmt.Sprintf("whole process, median of %d rounds", len(m.cpuPerOp)))
	valid := r.addSliced("read_p50_us", open.readLat, m.segs, 0.50, "us", us)
	valid = r.addSliced("read_p99_us", open.readLat, m.segs, 0.99, "us", us) && valid
	valid = r.addSliced("write_p50_us", open.updateLat, m.segs, 0.50, "us", us) && valid
	valid = r.addSliced("write_p99_us", open.updateLat, m.segs, 0.99, "us", us) && valid
	var invalid error
	if !valid {
		invalid = fmt.Errorf("an open-loop latency percentile has fewer than %d samples beyond it", minBeyond)
	}
	var lateNs []float64
	for _, s := range open.late {
		lateNs = append(lateNs, s.ns)
	}
	late := newDist(lateNs)
	r.addPct("gen.late_us.p99", late, 0.99, "us", us)
	r.add("gen.late_us.max", late.max()*us, "us", fmt.Sprintf("n=%d", len(late)))
	off := offSchedule(open.late, m.segs, float64(maxLateP99), float64(maxLate))
	fmt.Printf("  open loop: offered %.0f ops/s, completed %d; generator off schedule in %d of %d rounds (p99 late > %v or max > %v)\n",
		b.sp.rate, open.completed, off, len(m.segs), maxLateP99, maxLate)
	if off > len(m.segs)/2 && invalid == nil {
		p99, _, _ := quantile(late, 0.99)
		invalid = fmt.Errorf("the open-loop generator was off schedule in %d of %d rounds (p99 late %.0fus, max %.0fus over them all)",
			off, len(m.segs), p99*us, late.max()*us)
	}
	if invalid != nil {
		fmt.Printf("INVALID: %v\n", invalid)
		return fmt.Errorf("invalid run: %w", invalid)
	}
	return nil
}

func (b *bench) printReport(phases ...*tally) {
	var att, fail, aborted, updates int64
	for _, p := range phases {
		att += p.attempted
		fail += p.failed()
		aborted += p.aborted
		updates += p.updates
	}
	b.rep.print(os.Stdout)
	fmt.Printf("  %-36s %14.6f %-12s (%d failed / %d attempted in the measured phases; %d attempted, %d failed in the whole run)\n",
		"error_ratio", float64(fail)/float64(att), "ratio", fail, att, b.attempted, b.failed)
	fmt.Printf("  %-36s %14d %-12s (defined outcome, not a failure; %d updates)\n", "rmw_aborted", aborted, "count", updates)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the CPU time the hypervisor took from this host's CPUs,
// summed over them, from /proc/stat; 0 where that is not available. A run
// with much of it was measured on a busy host.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	// The first line is "cpu  user nice system idle iowait irq softirq steal ...",
	// in clock ticks of 1/100 s.
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// peakRSSMB is the process's peak resident memory in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// traced measures the per-layer metrics. It first runs the closed-loop
// phase on an unwrapped cluster as the reference for the tracing overhead,
// then both phases on a wrapped one.
func (b *bench) traced(dir string) error {
	b.correct = true
	ref, err := standUp(b.sp, nil)
	if err != nil {
		return err
	}
	ds := b.drivers(ref, nil)
	phase(ds, 0, 0, func(d *driver) { d.closedLoop(depth, warmup, 0) })
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	refM := b.measure(ds, 0, b.closed)
	runtime.ReadMemStats(&m1)
	refClosed := refM.closed
	b.account(refClosed)
	b.gate(ref, ds)
	ref.close()
	runtime.GC()

	t := &tracer{}
	c, err := standUp(b.sp, t)
	if err != nil {
		return err
	}
	defer c.close()
	ds = b.drivers(c, t)
	phase(ds, 0, 0, func(d *driver) { d.closedLoop(depth, warmup, 0) })
	before, steal0 := snapshot(c), stealTime()
	t.on.Store(true)
	m := b.measure(ds, b.closed, b.closed)
	t.on.Store(false)
	after, steal := snapshot(c), stealTime()-steal0
	b.account(m.open)
	b.account(m.closed)
	b.gate(c, ds)
	if n := t.copyingReads.Load(); n > 0 {
		fmt.Printf("FAILURE: the traced server took the copying read path %d times\n", n)
		b.correct = false
	}

	invalid := b.layerMetrics(t, before, after, m)
	r := &b.rep
	refOps := float64(refClosed.completed)
	r.add("proc.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/refOps, "allocs", fmt.Sprintf("untraced closed loop, %d ops", refClosed.completed))
	r.add("proc.gc_per_kop", float64(m1.NumGC-m0.NumGC)*1000/refOps, "gc/kop", fmt.Sprintf("%d GCs", m1.NumGC-m0.NumGC))
	b.addOpsS("trace.ops_s_untraced", refM.rates)
	b.addOpsS("trace.ops_s_traced", m.rates)
	untraced, traced := r.metrics[len(r.metrics)-2].Value, r.metrics[len(r.metrics)-1].Value
	r.add("trace.overhead", 1-traced/untraced, "ratio", "1 - traced/untraced ops_s")
	for _, l := range perLayer {
		b.names = append(b.names, l.name)
	}
	b.printReport(refClosed, m.open, m.closed)
	fmt.Printf("  host CPU time stolen by the hypervisor during the traced phases: %v\n", steal)
	fmt.Println("  what each layer metric should move:")
	for _, l := range perLayer {
		fmt.Printf("    %-36s %s\n", l.name, l.moves)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, b.sp.name+".spans")
	if err := t.writeSpans(path); err != nil {
		return err
	}
	fmt.Printf("  spans written to %s\n", path)
	return invalid
}

// counters is a snapshot of the exported counters the per-layer metrics
// take deltas of.
type counters struct {
	reads, hits, misses                  uint64
	batches, coalesced, singles, dropped uint64
	loads                                []uint64
	srvReqs, srvFast, srvKilled          uint64
}

func snapshot(c *composition) counters {
	var s counters
	for _, n := range c.nodes {
		r, h, m := n.ReadStats()
		s.reads, s.hits, s.misses = s.reads+r, s.hits+h, s.misses+m
		bt, co, si, dr := n.CoalesceStats()
		s.batches, s.coalesced, s.singles, s.dropped = s.batches+bt, s.coalesced+co, s.singles+si, s.dropped+dr
	}
	for i := 0; i < serving; i++ {
		s.loads = append(s.loads, c.nodes[i].ShardLoads()...)
	}
	for _, srv := range c.srvs {
		st := srv.Stats()
		s.srvReqs, s.srvFast, s.srvKilled = s.srvReqs+st.Reqs, s.srvFast+st.FastReads, s.srvKilled+st.Killed
	}
	return s
}

func (b *bench) layerMetrics(t *tracer, s0, s1 counters, m *measured) error {
	open, closed := m.open, m.closed
	r := &b.rep
	us, ns := 1e-3, 1.0
	do := newDist(t.clientDo.durations())
	r.addPct("client.do_us.p50", do, 0.50, "us", us)
	r.addPct("client.do_us.p99", do, 0.99, "us", us)

	reads := float64(open.reads + closed.reads)
	updates := float64(open.updates + closed.updates)
	r.addRatio("server.fast_read_ratio", float64(s1.srvFast-s0.srvFast), reads, "ratio")
	r.add("server.sessions_killed", float64(s1.srvKilled), "count", "since start")

	rl := newDist(t.readLocal.durations())
	r.addPct("cluster.read_local_ns.p50", rl, 0.50, "ns", ns)
	r.addPct("cluster.read_local_ns.p99", rl, 0.99, "ns", ns)
	hits, misses := float64(s1.hits-s0.hits), float64(s1.misses-s0.misses)
	r.addRatio("cluster.read_hit_ratio", hits, hits+misses, "ratio")
	up := newDist(t.update.durations())
	r.addPct("cluster.update_us.p50", up, 0.50, "us", us)
	r.addPct("cluster.update_us.p99", up, 0.99, "us", us)
	fb := newDist(t.fallback.durations())
	r.addPct("cluster.fallback_read_us.p50", fb, 0.50, "us", us)
	r.addPct("cluster.fallback_read_us.p99", fb, 0.99, "us", us)
	r.add("cluster.fallback_read.calls", float64(len(fb)), "count", fmt.Sprintf("of %.0f reads", reads))
	dl := newDist(t.deliver.durations())
	r.addPct("cluster.deliver_us.p50", dl, 0.50, "us", us)
	r.addPct("cluster.deliver_us.p99", dl, 0.99, "us", us)
	r.add("cluster.deliver.calls", float64(len(dl)), "count", "all replicas")
	r.addRatio("cluster.coalesce.msgs_per_batch", float64(s1.coalesced-s0.coalesced), float64(s1.batches-s0.batches), "msgs")
	r.add("cluster.coalesce.dropped", float64(s1.dropped-s0.dropped), "count", "all replicas")
	var maxLoad, sum float64
	for i := range s1.loads {
		d := float64(s1.loads[i] - s0.loads[i])
		sum += d
		if d > maxLoad {
			maxLoad = d
		}
	}
	r.addRatio("cluster.shard_load_max_over_mean", maxLoad, sum/float64(len(s1.loads)), "ratio")

	sd := newDist(t.send.durations())
	r.addPct("transport.send_us.p50", sd, 0.50, "us", us)
	r.addPct("transport.send_us.p99", sd, 0.99, "us", us)
	// A CAS whose comparand fails is answered by its coordinator alone, so
	// the per-update counts are over the updates that replicate.
	replicated := updates - float64(open.casFailed+closed.casFailed)
	inv, ack, val, oth := float64(t.inv.Load()), float64(t.ack.Load()), float64(t.val.Load()), float64(t.other.Load())
	r.addRatio("transport.msgs_per_update", inv+ack+val+oth, replicated, "msgs")
	r.addRatio("transport.msgs_per_update.inv", inv, replicated, "msgs")
	r.addRatio("transport.msgs_per_update.ack", ack, replicated, "msgs")
	r.addRatio("transport.msgs_per_update.val", val, replicated, "msgs")
	r.addRatio("transport.msgs_per_update.other", oth, replicated, "msgs")
	r.addRatio("transport.envelopes_per_update", float64(t.envelopes.Load()), replicated, "envelopes")
	r.addRatio("transport.bytes_per_update", float64(t.bytes.Load()), replicated, "bytes")
	return b.openLoopMetrics(m)
}
