package membership

import (
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/shardhost"
)

// The view log + redelivery counter + without-aliasing fixes, unit-tested
// against a directly driven Agent (no harness network needed).

func testAgent(t *testing.T) *Agent {
	t.Helper()
	all := []proto.NodeID{0, 1, 2}
	return New(Config{
		ID: 0, All: all,
		Initial: proto.View{Epoch: 1, Members: append([]proto.NodeID(nil), all...)},
		Env:     &magentEnv{h: &mharness{t: t}, id: 0},
	})
}

// without must return a fresh slice: the previous in-place filter wrote
// through the input's backing array, silently corrupting whatever view (or
// cfg.All) the caller's slice aliased.
func TestWithoutDoesNotAliasInput(t *testing.T) {
	in := []proto.NodeID{0, 1, 2, 3, 4}
	orig := append([]proto.NodeID(nil), in...)
	out := without(in, []proto.NodeID{1, 3})
	want := []proto.NodeID{0, 2, 4}
	if len(out) != len(want) {
		t.Fatalf("without = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("without = %v, want %v", out, want)
		}
	}
	for i := range in {
		if in[i] != orig[i] {
			t.Fatalf("without overwrote its input: %v, want %v untouched", in, orig)
		}
	}
	if len(out) > 0 && &out[0] == &in[0] {
		t.Fatal("without returned a slice aliasing the input's backing array")
	}
}

// The agent-level version of the same bug: a removal proposal filtering a
// dead node must leave the committed view's member list bit-identical while
// the proposal is in flight — even when the filtered slice aliases live
// state.
func TestProposalFilteringLeavesViewIntact(t *testing.T) {
	h := newMHarness(t, 3)
	a := h.agents[0]
	before := append([]proto.NodeID(nil), a.view.Members...)
	// Make node 2 look long dead while node 1 stays fresh, then tick: node 0
	// (rank 0 among survivors) starts the removal proposal immediately.
	h.now = 10 * time.Second
	a.lastHeard[1] = h.now
	a.lastHeard[2] = 0
	a.Tick()
	if !a.Proposing() {
		t.Fatal("no removal proposal started")
	}
	if got := a.prop.view.Members; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("proposal members %v, want [0 1]", got)
	}
	for i := range before {
		if a.view.Members[i] != before[i] {
			t.Fatalf("building the proposal corrupted the committed view: %v, want %v",
				a.view.Members, before)
		}
	}
}

// Duplicate deliveries of the current view must stay idempotent — OnView
// fires once per epoch — but observable through the redelivery counter.
func TestInstallRedeliveryIdempotentButCounted(t *testing.T) {
	h := newMHarness(t, 3)
	a := h.agents[0]
	v2 := proto.View{Epoch: 2, Members: []proto.NodeID{0, 1, 2}}
	a.Deliver(1, ViewCommit{View: v2})
	if got := len(h.views[0]); got != 1 {
		t.Fatalf("OnView fired %d times after first install, want 1", got)
	}
	if a.Redelivered() != 0 {
		t.Fatalf("redelivered = %d before any duplicate", a.Redelivered())
	}
	// The same commit again (a lossy wire redelivers), plus a stale one.
	a.Deliver(2, ViewCommit{View: v2})
	a.Deliver(2, ViewCommit{View: proto.View{Epoch: 1, Members: []proto.NodeID{0, 1, 2}}})
	if got := len(h.views[0]); got != 1 {
		t.Fatalf("OnView re-fired on redelivery: %d calls, want 1", got)
	}
	if got := a.Redelivered(); got != 2 {
		t.Fatalf("redelivered = %d, want 2", got)
	}
	if a.View().Epoch != 2 {
		t.Fatalf("view regressed to epoch %d", a.View().Epoch)
	}
}

// The view log retains installed views in epoch order, serves only the gap
// above `since`, and stays bounded.
func TestViewLogRetainsAndBounds(t *testing.T) {
	h := newMHarness(t, 3)
	a := h.agents[0]
	members := []proto.NodeID{0, 1, 2}
	for e := uint32(2); e <= 10; e++ {
		a.Deliver(1, ViewCommit{View: proto.View{Epoch: e, Members: members}})
	}
	got := a.ViewLog(6)
	if len(got) != 4 {
		t.Fatalf("ViewLog(6) returned %d views, want 4 (epochs 7..10)", len(got))
	}
	for i, v := range got {
		if want := uint32(7 + i); v.Epoch != want {
			t.Fatalf("ViewLog(6)[%d].Epoch = %d, want %d", i, v.Epoch, want)
		}
	}
	// Mutating a returned view must not reach the log (clones only).
	got[0].Members[0] = proto.NilNode
	if a.ViewLog(6)[0].Members[0] == proto.NilNode {
		t.Fatal("ViewLog returned an aliased member list")
	}
	// Blow past the cap; the log keeps only the newest shardhost.LogCap entries.
	for e := uint32(11); e <= 11+2*shardhost.LogCap; e++ {
		a.Deliver(1, ViewCommit{View: proto.View{Epoch: e, Members: members}})
	}
	all := a.ViewLog(0)
	if len(all) != shardhost.LogCap {
		t.Fatalf("log holds %d views after overflow, want %d", len(all), shardhost.LogCap)
	}
	if newest := all[len(all)-1].Epoch; newest != 11+2*shardhost.LogCap {
		t.Fatalf("newest retained epoch %d, want %d", newest, 11+2*uint32(shardhost.LogCap))
	}
	if oldest := all[0].Epoch; oldest != 11+2*shardhost.LogCap-(shardhost.LogCap-1) {
		t.Fatalf("oldest retained epoch %d, want %d", oldest, 11+2*shardhost.LogCap-(shardhost.LogCap-1))
	}
}

// A fresh agent logs its initial view, so a peer one epoch ahead of a
// rejoiner can serve the full gap including the view it booted with.
func TestViewLogIncludesInitialView(t *testing.T) {
	a := testAgent(t)
	log := a.ViewLog(0)
	if len(log) != 1 || log[0].Epoch != 1 {
		t.Fatalf("fresh agent's log = %+v, want exactly the initial epoch-1 view", log)
	}
}
