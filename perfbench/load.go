package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/proto"
)

// depth is each connection's outstanding requests in the closed-loop
// phase.
const depth = 32

// stallDeadline is how long a connection may go without a response while
// ops are outstanding. Past it the connection is declared wedged and
// closed: its outstanding ops count as failed and every later op fails at
// once, so a stuck cluster ends the run instead of hanging it.
const stallDeadline = 10 * time.Second

// tally is what one phase observed on one connection. The issuing
// goroutine and the client's read pump both write it, under mu.
type tally struct {
	mu sync.Mutex
	// readLat and updateLat are open-loop latencies from the due time.
	readLat, updateLat []sample
	// late is how far behind its schedule the open-loop generator itself
	// issued each op (see openLoop), ns, with the op's due time.
	late []sample
	// attempted counts ops handed to Do; reads and updates split it.
	attempted, reads, updates int64
	// completed counts responses with a defined outcome (OK, CASFailed,
	// Aborted); aborted is the RMWs among them that lost to a concurrent
	// update, which the protocol reports and the client may retry, and
	// casFailed the CASes whose comparand did not match, which the
	// coordinator answers without replicating anything.
	completed, aborted, casFailed int64
	// doErrs, errResps and refused are failures: Do returning an error,
	// the callback reporting one, and a NotOperational response.
	doErrs, errResps, refused int64
	// stranded is ops still outstanding when the connection was declared
	// wedged.
	stranded int64
	// hist records the ops on checked keys, in the history phase only.
	hist []histOp
}

func (t *tally) failed() int64 { return t.doErrs + t.errResps + t.refused + t.stranded }

// merge folds o into t. Both must be quiescent.
func (t *tally) merge(o *tally) {
	t.readLat = append(t.readLat, o.readLat...)
	t.updateLat = append(t.updateLat, o.updateLat...)
	t.late = append(t.late, o.late...)
	t.attempted += o.attempted
	t.reads += o.reads
	t.updates += o.updates
	t.completed += o.completed
	t.aborted += o.aborted
	t.casFailed += o.casFailed
	t.doErrs += o.doErrs
	t.errResps += o.errResps
	t.refused += o.refused
	t.stranded += o.stranded
	t.hist = append(t.hist, o.hist...)
}

// sample is one open-loop op's latency in ns with its due time, which
// places it in its segment.
type sample struct {
	due int64
	ns  float64
}

// histOp is one recorded op on a checked key.
type histOp struct {
	op          op
	invoke, ret int64 // ret < 0: never returned
	status      proto.Status
	out         proto.Value
	responded   bool
}

// driver issues one connection's ops; the generator and the tally are its
// own.
type driver struct {
	c     *client.Client
	gen   *generator
	t     *tracer
	tally *tally
	// outstanding is ops issued and not yet answered; answered counts
	// callbacks, the watchdog's sign of progress.
	outstanding, answered atomic.Int64
	// wedged is set once the watchdog gave up on the connection; callbacks
	// after that belong to ops already counted as stranded.
	wedged atomic.Bool
	// stuck is closed when the watchdog gives up, releasing a closed loop
	// waiting for a response that will not come.
	stuck chan struct{}
	// record, when set, keeps a histOp for every op on a key in it.
	record map[proto.Key]bool
	// start is when the current phase began; slot is this connection's
	// index among slots.
	start       int64
	slot, slots int
}

// issue sends o and accounts for its outcome; due is its scheduled time
// (0: closed loop, no latency recorded); done runs after the accounting.
func (d *driver) issue(o op, due int64, done func()) {
	tl := d.tally
	tl.mu.Lock()
	tl.attempted++
	if o.kind == proto.OpRead {
		tl.reads++
	} else {
		tl.updates++
	}
	tl.mu.Unlock()
	var h *histOp
	if d.record[o.key] {
		h = &histOp{op: o, invoke: now(), ret: -1}
	}
	d.outstanding.Add(1)
	err := d.t.do(d.c, o, func(r proto.ClientResp, err error) {
		at := now()
		d.answered.Add(1)
		tl.mu.Lock()
		switch {
		case d.wedged.Load():
		case err != nil:
			tl.errResps++
		case r.Status == proto.NotOperational:
			tl.refused++
		default:
			tl.completed++
			switch r.Status {
			case proto.Aborted:
				tl.aborted++
			case proto.CASFailed:
				tl.casFailed++
			}
			if due > 0 {
				if o.kind == proto.OpRead {
					tl.readLat = append(tl.readLat, sample{due: due, ns: float64(at - due)})
				} else {
					tl.updateLat = append(tl.updateLat, sample{due: due, ns: float64(at - due)})
				}
			}
		}
		if h != nil {
			h.responded = err == nil
			if h.responded {
				h.ret, h.status, h.out = at, r.Status, r.Value
			}
			tl.hist = append(tl.hist, *h)
		}
		tl.mu.Unlock()
		d.outstanding.Add(-1)
		if done != nil {
			done()
		}
	})
	if err != nil {
		d.outstanding.Add(-1)
		tl.mu.Lock()
		tl.doErrs++
		if h != nil {
			tl.hist = append(tl.hist, *h)
		}
		tl.mu.Unlock()
		if done != nil {
			done()
		}
	}
}

// drain waits until every outstanding op was answered or abandoned.
func (d *driver) drain() {
	for d.outstanding.Load() > 0 && !d.wedged.Load() {
		time.Sleep(time.Millisecond)
	}
}

// watch runs beside a phase until done closes. If ops stay outstanding
// with no response for stallDeadline, it counts them as stranded and closes
// the connection, which fails them and unblocks the issuing goroutine.
func (d *driver) watch(done <-chan struct{}) {
	if d.wedged.Load() {
		return
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	last, since := d.answered.Load(), time.Now()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		if a := d.answered.Load(); a != last || d.outstanding.Load() == 0 {
			last, since = a, time.Now()
			continue
		}
		if time.Since(since) < stallDeadline {
			continue
		}
		n := d.outstanding.Load()
		d.tally.mu.Lock()
		d.tally.stranded += n
		d.tally.mu.Unlock()
		fmt.Printf("FAILURE: connection %d wedged: %d ops outstanding, no response for %v\n", d.gen.conn, n, stallDeadline)
		d.wedged.Store(true)
		close(d.stuck)
		d.c.Close()
		return
	}
}

// tick is how often the open-loop generator wakes. It issues every op due
// by then at once, as a client library sends what its users asked for
// since its last write, so the cluster sees batches of the same size on
// every run. Each op is still timed from its own due time, so the wait for
// the tick, half of it on average, is part of every latency.
const tick = time.Millisecond

// openLoop offers ops at rate per second for dur, due at even intervals,
// and times each from the moment it was due, so a stall is charged to every
// op it delays. Late ops are issued at once, never skipped. The schedules
// of the connections interleave at fixed offsets from the phase's start.
//
// An op's recorded lateness is the generator's own: from when the op was
// due, or from when the previous Do returned if that was later, to when
// the generator issued it. Time spent inside Do is left out: Do blocks
// while the server's window is full, which is the cluster pushing back,
// and that wait is already part of the latency of every op it delays.
// What remains is the generator not running, an oversleep or a host that
// took its CPU, which would make the offered load differ from the rate.
func (d *driver) openLoop(rate float64, dur time.Duration) {
	interval := float64(time.Second) / rate
	first := d.start + int64(float64(d.slot)*interval/float64(d.slots))
	end := d.start + int64(dur)
	due := func(i int) int64 { return first + int64(float64(i)*interval) }
	free := d.start // when the previous Do returned
	for i := 0; due(i) < end; {
		t := now()
		if wait := due(i) - t; wait > 0 {
			next := d.start + (due(i)-d.start+int64(tick)-1)/int64(tick)*int64(tick)
			sleep(next - t)
			t = now()
		}
		for ; due(i) <= t && due(i) < end; i++ {
			o := d.gen.next()
			at := now()
			d.tally.mu.Lock()
			d.tally.late = append(d.tally.late, sample{due: due(i), ns: float64(at - max(due(i), free))})
			d.tally.mu.Unlock()
			d.issue(o, due(i), nil)
			free = now()
		}
	}
	d.drain()
}

// sleep blocks the calling goroutine for ns nanoseconds in the kernel. The
// runtime's timers wake a sleeper up to a millisecond late on a 2-CPU host,
// and later still while the collector's idle workers hold the processors,
// which would time the generator's schedule rather than the cluster; a
// thread sleeping in the kernel wakes within tens of microseconds.
func sleep(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// closedLoop keeps depth ops outstanding until dur has passed, or until n
// ops were issued when n > 0.
func (d *driver) closedLoop(depth int, dur time.Duration, n int) {
	tokens := make(chan struct{}, depth)
	release := func() { <-tokens }
	end := now() + int64(dur)
	for i := 0; (n <= 0 || i < n) && !d.wedged.Load(); i++ {
		if n <= 0 && now() >= end {
			break
		}
		select {
		case tokens <- struct{}{}:
		case <-d.stuck:
			return
		}
		d.issue(d.gen.next(), 0, release)
	}
	d.drain()
}

// rounds is how many open-loop and closed-loop segments a run alternates.
// On a shared host the speed the process gets drifts over tens of seconds;
// one long phase of each kind would let that drift decide a phase as a
// whole, where segments spread over the whole run see it alike. The
// open-loop metrics are medians over the rounds: each round's open segment
// is long enough to span several of the collector's cycles, and the median
// of five still discards two rounds a passing disturbance hit.
const rounds = 5

// closedWindows is how many windows each closed-loop segment is cut into:
// throughput is taken per window and reported as the median over all
// windows of the run, so a passing disturbance moves one window, not the
// result.
const closedWindows = 2

// mark is the state of the process at a window boundary.
type mark struct {
	at       int64 // ns since base
	answered int64 // responses over all connections
	cpu      time.Duration
}

// phase runs fn on one driver per connection, each on its own goroutine,
// and returns the merged tally and marks taken at the start and after each
// of the first windows windows of length every.
func phase(ds []*driver, windows int, every time.Duration, fn func(d *driver)) (*tally, []mark) {
	for _, d := range ds {
		d.tally = &tally{}
	}
	var wg sync.WaitGroup
	answered := func() (n int64) {
		for _, d := range ds {
			n += d.answered.Load()
		}
		return n
	}
	// Every measured phase starts from a collected heap, so where the
	// collector's cycles fall does not depend on what ran before.
	if windows > 0 {
		runtime.GC()
	}
	start := now()
	for i, d := range ds {
		d.start, d.slot, d.slots = start, i, len(ds)
	}
	marks := []mark{{at: start, answered: answered(), cpu: cpuTime()}}
	if windows > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= windows; i++ {
				time.Sleep(time.Duration(start + int64(i)*int64(every) - now()))
				marks = append(marks, mark{at: now(), answered: answered(), cpu: cpuTime()})
			}
		}()
	}
	for _, d := range ds {
		wg.Add(2)
		done := make(chan struct{})
		go func(d *driver) {
			defer wg.Done()
			d.watch(done)
		}(d)
		go func(d *driver) {
			defer wg.Done()
			defer close(done)
			fn(d)
		}(d)
	}
	wg.Wait()
	all := &tally{}
	for _, d := range ds {
		d.tally.mu.Lock()
		all.merge(d.tally)
		d.tally.mu.Unlock()
	}
	return all, marks
}
