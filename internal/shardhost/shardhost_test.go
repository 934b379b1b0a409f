package shardhost

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// keyOn returns a key owned by shard s at w shards.
func keyOn(t *testing.T, s uint16, w int) proto.Key {
	t.Helper()
	for k := proto.Key(1); k < 10000; k++ {
		if proto.ShardOf(k, w) == s {
			return k
		}
	}
	t.Fatalf("no key on shard %d of %d", s, w)
	return 0
}

type delivery struct {
	shard uint16
	msg   any
}

func route(w int, msg any) ([]delivery, bool) {
	var got []delivery
	ok := Route(w, msg, func(s uint16, m any) { got = append(got, delivery{s, m}) })
	return got, ok
}

func TestRouteTagCheckAndFanOut(t *testing.T) {
	const w = 4
	k1, k2 := keyOn(t, 1, w), keyOn(t, 2, w)
	inv := core.INV{Epoch: 1, Key: k1}
	ack := core.ACK{Epoch: 1, Key: k2}
	chunk := core.ChunkReq{}

	// Matching tag: delivered to its shard.
	got, ok := route(w, proto.ShardMsg{Shard: 1, Msg: inv})
	if !ok || !reflect.DeepEqual(got, []delivery{{1, inv}}) {
		t.Fatalf("tagged INV: %v %v", got, ok)
	}
	// Mis-tagged (W mismatch) and out-of-range tags drop.
	for _, tag := range []uint16{2, w, proto.AllShards} {
		if got, ok := route(w, proto.ShardMsg{Shard: tag, Msg: inv}); !ok || len(got) != 0 {
			t.Fatalf("tag %d: delivered %v", tag, got)
		}
	}
	// Keyless traffic keeps the sender's tag.
	if got, _ := route(w, proto.ShardMsg{Shard: 3, Msg: chunk}); !reflect.DeepEqual(got, []delivery{{3, chunk}}) {
		t.Fatalf("keyless tagged: %v", got)
	}
	// A batch fans out under the same check per inner message.
	got, _ = route(w, proto.ShardBatch{Msgs: []proto.ShardMsg{
		{Shard: 1, Msg: inv}, {Shard: 3, Msg: ack}, {Shard: 2, Msg: ack},
	}})
	if !reflect.DeepEqual(got, []delivery{{1, inv}, {2, ack}}) {
		t.Fatalf("batch: %v", got)
	}
	// Untagged protocol traffic routes by key; keyless goes to shard 0.
	if got, _ := route(w, ack); !reflect.DeepEqual(got, []delivery{{2, ack}}) {
		t.Fatalf("untagged ACK: %v", got)
	}
	if got, _ := route(w, chunk); !reflect.DeepEqual(got, []delivery{{0, chunk}}) {
		t.Fatalf("untagged chunk: %v", got)
	}
	// W=1 takes everything on shard 0.
	if got, _ := route(1, proto.ShardMsg{Shard: 0, Msg: ack}); !reflect.DeepEqual(got, []delivery{{0, ack}}) {
		t.Fatalf("W=1: %v", got)
	}
	// Node-level control traffic is the host's.
	for _, msg := range []any{proto.MUpdate{}, proto.ViewLogReq{}, proto.ViewLogResp{}, proto.EpochGossip{}} {
		if got, ok := route(w, msg); ok || len(got) != 0 {
			t.Fatalf("%T routed to engines: %v", msg, got)
		}
	}
}

func TestAddressed(t *testing.T) {
	for _, c := range []struct {
		shard  uint16
		lo, hi int
	}{{proto.AllShards, 0, 4}, {2, 2, 3}, {4, 0, 0}} {
		if lo, hi := Addressed(4, proto.MUpdate{Shard: c.shard}); lo != c.lo || hi != c.hi {
			t.Fatalf("shard %d: [%d,%d) want [%d,%d)", c.shard, lo, hi, c.lo, c.hi)
		}
	}
}

func TestViewLogDedupFilterAndCap(t *testing.T) {
	var l ViewLog
	v := func(e uint32) proto.View { return proto.View{Epoch: e, Members: []proto.NodeID{0, 1, 2}} }
	l.Record(proto.MUpdate{Shard: proto.AllShards, View: v(2)})
	l.Record(proto.MUpdate{Shard: 1, View: v(3)})
	l.Record(proto.MUpdate{Shard: 1, View: v(3)}) // exact duplicate
	l.Record(proto.MUpdate{Shard: 2, View: v(3)}) // same epoch, other shard
	epochsOf := func(ups []proto.MUpdate) (out []uint32) {
		for _, u := range ups {
			out = append(out, u.View.Epoch*10+uint32(u.Shard%10))
		}
		return out
	}
	// AllShards (0xFFFF) renders as 5 in the last digit.
	if got := epochsOf(l.Serve(proto.ViewLogReq{Shard: proto.AllShards})); !reflect.DeepEqual(got, []uint32{25, 31, 32}) {
		t.Fatalf("all: %v", got)
	}
	if got := epochsOf(l.Serve(proto.ViewLogReq{Shard: 1, Since: 1})); !reflect.DeepEqual(got, []uint32{25, 31}) {
		t.Fatalf("shard 1: %v", got)
	}
	if got := l.Serve(proto.ViewLogReq{Shard: 2, Since: 3}); len(got) != 0 {
		t.Fatalf("since 3: %v", got)
	}
	for e := uint32(10); e < 10+2*LogCap; e++ {
		l.Record(proto.MUpdate{Shard: proto.AllShards, View: v(e)})
	}
	all := l.Serve(proto.ViewLogReq{Shard: proto.AllShards})
	if len(all) != LogCap || all[0].View.Epoch != 10+LogCap || all[LogCap-1].View.Epoch != 9+2*LogCap {
		t.Fatalf("after overflow: %d entries, epochs %d..%d", len(all), all[0].View.Epoch, all[len(all)-1].View.Epoch)
	}
}

func TestObserverDebounceNewestPeer(t *testing.T) {
	const db = 10 * time.Millisecond
	var o Observer
	local := []uint32{3, 3, 3, 3}
	if behind, fetch, _ := o.Observe(0, db, 1, []uint32{3, 3, 3, 3}, local); behind || fetch {
		t.Fatal("equal vector reported behind")
	}
	// First observation in an idle window fires at once.
	if behind, fetch, to := o.Observe(0, db, 1, []uint32{4, 3, 3, 3}, local); !behind || !fetch || to != 1 {
		t.Fatalf("first: %v %v %d", behind, fetch, to)
	}
	// Inside the window: only the candidate moves, to the newest peer.
	if _, fetch, _ := o.Observe(5*time.Millisecond, db, 2, []uint32{9}, local); fetch {
		t.Fatal("fetch inside the debounce window")
	}
	if _, fetch, _ := o.Observe(6*time.Millisecond, db, 1, []uint32{4, 4, 4, 4}, local); fetch {
		t.Fatal("fetch inside the debounce window")
	}
	// Past it, a low vector triggers the fetch — at the newest candidate
	// (a shorter vector still compares by its maximum).
	if _, fetch, to := o.Observe(db, db, 1, []uint32{4, 3, 3, 3}, local); !fetch || to != 2 {
		t.Fatalf("after window: fetch=%v to=%d, want peer 2", fetch, to)
	}
}

func TestFetchReqDebounceRollOrder(t *testing.T) {
	if got := FetchReq([]uint32{5, 2, 7}); got != (proto.ViewLogReq{Shard: proto.AllShards, Since: 2}) {
		t.Fatalf("FetchReq: %+v", got)
	}
	if Debounce(250*time.Microsecond) != time.Millisecond || Debounce(0) != defaultDebounce {
		t.Fatal("Debounce")
	}
	// Deltas since the previous roll, not totals: shard 0 is hottest overall
	// but coolest lately. Ties break by index.
	if got := RollOrder([]uint64{100, 50, 30, 30}, []uint64{99, 10, 0, 0}); !reflect.DeepEqual(got, []int{0, 2, 3, 1}) {
		t.Fatalf("RollOrder: %v", got)
	}
	if got := RollOrder([]uint64{3, 1, 2}, nil); !reflect.DeepEqual(got, []int{1, 2, 0}) {
		t.Fatalf("RollOrder without prev: %v", got)
	}
}
