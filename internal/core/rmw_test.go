package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/proto"
)

func TestFAACommits(t *testing.T) {
	h := newHarness(t, 3, nil)
	op := h.faa(0, 1, 5)
	h.run()
	c := h.completion(0, op)
	if c.Status != proto.OK || proto.DecodeInt64(c.Value) != 0 {
		t.Fatalf("FAA completion: %+v (want old value 0)", c)
	}
	e := h.requireConverged(1)
	if proto.DecodeInt64(e.Value) != 5 {
		t.Fatalf("counter=%d want 5", proto.DecodeInt64(e.Value))
	}
	// RMWs advance the version by 1 (writes by 2), §3.6 CTS.
	if e.TS.Version != 1 {
		t.Fatalf("RMW version=%d want 1", e.TS.Version)
	}
}

func TestSequentialFAAAccumulate(t *testing.T) {
	h := newHarness(t, 3, nil)
	var last proto.Completion
	for i := 0; i < 10; i++ {
		op := h.faa(proto.NodeID(i%3), 1, 1)
		h.run()
		last = h.completion(proto.NodeID(i%3), op)
	}
	if proto.DecodeInt64(last.Value) != 9 {
		t.Fatalf("last FAA old value=%d want 9", proto.DecodeInt64(last.Value))
	}
	if e := h.requireConverged(1); proto.DecodeInt64(e.Value) != 10 {
		t.Fatalf("counter=%d", proto.DecodeInt64(e.Value))
	}
}

func TestCASSuccessAndFailure(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.write(0, 1, "a")
	h.run()

	ok := h.cas(1, 1, "a", "b")
	h.run()
	if c := h.completion(1, ok); c.Status != proto.OK {
		t.Fatalf("matching CAS: %+v", c)
	}
	if e := h.requireConverged(1); string(e.Value) != "b" {
		t.Fatalf("value=%q", e.Value)
	}

	fail := h.cas(2, 1, "a", "c") // expects stale value
	h.run()
	c := h.completion(2, fail)
	if c.Status != proto.CASFailed || string(c.Value) != "b" {
		t.Fatalf("failed CAS must return observed value: %+v", c)
	}
	if e := h.requireConverged(1); string(e.Value) != "b" {
		t.Fatal("failed CAS mutated state")
	}
	// Failed CAS is resolved locally: no protocol messages.
	h.requireNoInflight()
}

// §3.6: a write racing an RMW always wins — the write's +2 version increment
// guarantees it outranks the RMW's +1, so the RMW aborts.
func TestWriteRacingRMWAbortsTheRMW(t *testing.T) {
	h := newHarness(t, 3, nil)
	rmwOp := h.faa(0, 1, 7)    // ts (1,0)
	wrOp := h.write(2, 1, "w") // ts (2,2)
	h.run()
	for i := 0; i < 5; i++ {
		h.advance(15 * time.Millisecond)
		h.run()
	}
	if c := h.completion(0, rmwOp); c.Status != proto.Aborted {
		t.Fatalf("RMW should abort: %+v", c)
	}
	if c := h.completion(2, wrOp); c.Status != proto.OK {
		t.Fatalf("write must commit: %+v", c)
	}
	if h.nodes[0].Metrics().RMWAborts != 1 {
		t.Fatal("abort not counted")
	}
	e := h.requireConverged(1)
	if string(e.Value) != "w" {
		t.Fatalf("value=%q want the write's", e.Value)
	}
}

// §3.6: of two concurrent RMWs to a key, exactly one commits (the higher
// node id); the other aborts.
func TestConcurrentRMWsExactlyOneCommits(t *testing.T) {
	h := newHarness(t, 3, nil)
	lo := h.faa(0, 1, 1) // ts (1,0)
	hi := h.faa(2, 1, 1) // ts (1,2)
	h.run()
	for i := 0; i < 5; i++ {
		h.advance(15 * time.Millisecond)
		h.run()
	}
	cLo := h.completion(0, lo)
	cHi := h.completion(2, hi)
	if cLo.Status != proto.Aborted {
		t.Fatalf("low-cid RMW: %+v want Aborted", cLo)
	}
	if cHi.Status != proto.OK {
		t.Fatalf("high-cid RMW: %+v want OK", cHi)
	}
	e := h.requireConverged(1)
	if proto.DecodeInt64(e.Value) != 1 {
		t.Fatalf("counter=%d want exactly one increment", proto.DecodeInt64(e.Value))
	}
}

// The FRMW-ACK rule: a follower that has already seen a higher timestamp
// answers a losing RMW's INV with a unicast teaching ACK carrying its local
// state. The reply must be a response (an ACK), not an INV: only a response
// repays the send credit the coordinator's INV spent on the link.
func TestLosingRMWReceivesTeachingACK(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.write(1, 1, "newer") // ts (2,1)
	h.run()
	// Force the race by injecting an RMW INV with a stale timestamp directly.
	h.nodes[1].Deliver(0, INV{Epoch: 1, Key: 1, TS: proto.TS{Version: 1, CID: 0}, Value: proto.EncodeInt64(1), RMW: true})
	if len(h.msgs) != 1 {
		t.Fatalf("%d messages, want 1", len(h.msgs))
	}
	if to := h.msgs[0].to; to != 0 {
		t.Fatalf("reply sent to node %d, want the coordinator 0", to)
	}
	reply, is := h.msgs[0].msg.(ACK)
	if !is {
		t.Fatalf("reply is %T, want ACK", h.msgs[0].msg)
	}
	if reply.TS != (proto.TS{Version: 1, CID: 0}) || !reply.Higher {
		t.Fatalf("teaching ACK must echo the losing TS and set Higher: %+v", reply)
	}
	if reply.HTS != (proto.TS{Version: 2, CID: 1}) || string(reply.HVal) != "newer" {
		t.Fatalf("teaching ACK payload: %+v", reply)
	}
}

// CRMW-replay: after a membership reconfiguration, a pending RMW resets its
// gathered ACKs and re-broadcasts, so its commitment is re-established
// against the new membership.
func TestRMWReplaysAfterViewChange(t *testing.T) {
	h := newHarness(t, 5, nil)
	op := h.faa(0, 1, 1)
	// Let two followers ACK; hold the others.
	h.step()                                                               // INV -> 1
	h.step()                                                               // INV -> 2
	h.dropWhere(func(e envelope) bool { _, is := e.msg.(INV); return is }) // INVs to 3,4 lost
	h.run()                                                                // ACKs from 1,2 arrive
	if h.hasCompletion(0, op) {
		t.Fatal("RMW committed early")
	}
	// Node 4 fails; view changes. The RMW must reset ACKs and rebroadcast
	// to everyone (1,2,3).
	h.crash(4)
	h.removeFromView(4)
	invTargets := map[proto.NodeID]bool{}
	for _, e := range h.msgs {
		if _, is := e.msg.(INV); is {
			invTargets[e.to] = true
		}
	}
	for _, want := range []proto.NodeID{1, 2, 3} {
		if !invTargets[want] {
			t.Fatalf("CRMW-replay must re-INV node %d (targets=%v)", want, invTargets)
		}
	}
	h.run()
	if c := h.completion(0, op); c.Status != proto.OK {
		t.Fatalf("RMW after view change: %+v", c)
	}
	h.requireConverged(1)
}

// Mixed writes and RMWs under shuffled delivery and random loss must still
// converge, commit all writes, and commit at most one of each concurrent
// RMW batch.
func TestRMWStressConverges(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newHarness(t, 3, nil)
		type issued struct {
			node proto.NodeID
			op   uint64
			rmw  bool
		}
		var ops []issued
		for i := 0; i < 12; i++ {
			id := proto.NodeID(rng.Intn(3))
			if rng.Intn(2) == 0 {
				ops = append(ops, issued{id, h.faa(id, 1, 1), true})
			} else {
				ops = append(ops, issued{id, h.write(id, 1, string(rune('a'+i))), false})
			}
			if rng.Intn(3) == 0 {
				h.runShuffled(rng)
			}
		}
		for round := 0; round < 40; round++ {
			h.dropWhere(func(envelope) bool { return rng.Float64() < 0.1 })
			h.runShuffled(rng)
			h.advance(11 * time.Millisecond)
		}
		h.run()
		h.requireConverged(1)
		for _, is := range ops {
			c := h.completion(is.node, is.op)
			if !is.rmw && c.Status != proto.OK {
				t.Fatalf("seed %d: write aborted: %+v", seed, c)
			}
			if is.rmw && c.Status != proto.OK && c.Status != proto.Aborted {
				t.Fatalf("seed %d: rmw status: %+v", seed, c)
			}
		}
	}
}

func TestRMWThenWriteVersionSpacing(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.faa(0, 1, 1) // version 1
	h.run()
	h.write(1, 1, "w") // version 3
	h.run()
	e := h.requireConverged(1)
	if e.TS.Version != 3 {
		t.Fatalf("version=%d want 3 (1 for RMW + 2 for write)", e.TS.Version)
	}
}
