package main

import (
	"fmt"
	"time"

	"repro/internal/linear"
	"repro/internal/proto"
)

// histOps is how many ops the history phase issues over both connections.
// It bounds the checked history: under zipf 0.99 over 64 Ki keys the
// hottest key draws about 8% of ops, well inside linear.CheckRegister's
// limit of 2000 per key.
const histOps = 12000

// histDepth is each connection's outstanding ops in the history phase. The
// checker's search branches over the ops in flight together on one key, so
// the phase keeps few in flight: at the closed-loop depth a hot key's
// history carries dozens of overlapping ops and the search does not end.
const histDepth = 4

// quiesceDeadline bounds how long the checks wait for replicas to agree.
const quiesceDeadline = 5 * time.Second

// verify is the correctness gate every run ends with. It quiesces the
// sample keys, records a bounded history of the workload's own ops on them,
// quiesces every key, requires all replicas to hold identical Valid values,
// and checks the recorded history for linearizability starting from the
// first agreed state and ending at the final one. It returns the tally of
// the history phase.
func verify(c *composition, ds []*driver, ks *keyspace) (*tally, error) {
	init, err := c.agree(ks.sample, quiesceDeadline)
	if err != nil {
		return nil, fmt.Errorf("before the history phase: %w", err)
	}
	rec := map[proto.Key]bool{}
	for _, k := range ks.sample {
		rec[k] = true
	}
	for _, d := range ds {
		d.record = rec
	}
	tl, _ := phase(ds, 0, 0, func(d *driver) { d.closedLoop(histDepth, 0, histOps/len(ds)) })
	for _, d := range ds {
		d.record = nil
	}
	all := make([]proto.Key, keys)
	for k := range all {
		all[k] = proto.Key(k)
	}
	final, err := c.agree(all, quiesceDeadline)
	if err != nil {
		return tl, fmt.Errorf("after the run: %w", err)
	}
	return tl, checkHistory(tl.hist, init, final, ks.sample, now())
}

// checkHistory checks each sample key's history: a write of its agreed
// initial value, then the recorded ops, then a read of its final value,
// issued at end after every recorded op returned or was abandoned.
func checkHistory(hist []histOp, init, final map[proto.Key]proto.Value, sample []proto.Key, end int64) error {
	byKey := map[proto.Key][]linear.Op{}
	for _, k := range sample {
		byKey[k] = []linear.Op{{Kind: linear.KWrite, Arg: init[k], Invoke: 0, Return: 1}}
	}
	for i, h := range hist {
		o, keep := specOp(h)
		if !keep {
			continue
		}
		o.ID = uint64(i + 1)
		byKey[h.op.key] = append(byKey[h.op.key], o)
	}
	for _, k := range sample {
		ops := append(byKey[k], linear.Op{
			ID: uint64(len(hist) + 1), Kind: linear.KRead, Out: final[k],
			Invoke: time.Duration(end), Return: time.Duration(end + 1),
		})
		if res := linear.CheckRegister(ops); !res.OK {
			return fmt.Errorf("key %d is not linearizable over %d ops: %s", k, res.Ops, res.Info)
		}
	}
	return nil
}

// specOp maps a recorded op to the register specification. Ops that
// provably had no effect (aborted RMWs, refused ops) are dropped; ops that
// never answered may have taken effect or not, and stay pending.
func specOp(h histOp) (linear.Op, bool) {
	o := linear.Op{Arg: h.op.val, Exp: h.op.exp, Invoke: time.Duration(h.invoke), Return: linear.Pending}
	switch h.op.kind {
	case proto.OpRead:
		o.Kind = linear.KRead
	case proto.OpWrite:
		o.Kind = linear.KWrite
	case proto.OpFAA:
		o.Kind = linear.KFAA
	case proto.OpCAS:
		// A pending CAS either swapped or had no effect; as a pending
		// successful CAS the checker may place it or leave it out.
		o.Kind = linear.KCASOk
	}
	if !h.responded {
		return o, true
	}
	switch h.status {
	case proto.Aborted, proto.NotOperational:
		return o, false
	case proto.CASFailed:
		o.Kind = linear.KCASFail
	}
	o.Out = h.out
	o.Return = time.Duration(h.ret)
	return o, true
}
