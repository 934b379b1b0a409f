// Package shardhost is the shard-host policy: what a node hosting W
// core.Hermes engines decides about the traffic and membership updates that
// reach it. The live node (cluster.ShardedNode with its RolloutController)
// and the simulator's replica (sim.ShardedReplica) both call it, so the
// chaos sweeps exercise the policy that ships.
//
// Like core, the package is deterministic and single-threaded: it reads no
// clock (callers pass now), sends nothing (it returns decisions for the
// caller to act on) and takes no locks (the live node calls it under its
// own). It owns:
//
//   - message-to-shard routing: each message's owning shard, the
//     tag-vs-owner check and ShardBatch fan-out (Route), and the shards an
//     MUpdate addresses (Addressed);
//   - the bounded view log laggards fast-forward from (ViewLog);
//   - the epoch-gossip observer that decides when and whom to fetch from
//     (Observer, FetchReq, Debounce);
//   - the coolest-first order a node-wide view rolls across the shards
//     (RollOrder).
package shardhost

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// ownerOf maps a protocol message to the shard owning it on a w-shard host.
// Key-carrying messages hash their key; instance-scoped traffic (membership
// checks, state-transfer chunks) has no key and keeps dflt — the sender's
// tag for tagged messages, shard 0 (where a W=1 peer's single engine lives)
// for untagged ones.
func ownerOf(w int, msg any, dflt uint16) uint16 {
	if w == 1 {
		return 0
	}
	switch m := msg.(type) {
	case core.INV:
		return proto.ShardOf(m.Key, w)
	case core.ACK:
		return proto.ShardOf(m.Key, w)
	case core.VAL:
		return proto.ShardOf(m.Key, w)
	}
	return dflt
}

// Route resolves one arriving message to the engines that own it on a
// w-shard host and calls deliver once per (shard, message). A ShardBatch
// fans out; a tagged message is delivered only when its tag matches the
// local owner of the key it carries — a peer configured with a different W
// computes different owners, and delivering its traffic to a non-owner
// shard would store values no reader consults, so a W mismatch stalls
// safely (the sender keeps retransmitting) instead. A mis-tagged message is
// dropped with its frame owners released. Untagged protocol traffic (a
// plain Node or a W=1 peer) routes by key.
//
// Route returns false, touching nothing, for node-level control traffic —
// membership updates, view-log fetches and answers, epoch gossip — which the
// host handles itself.
func Route(w int, msg any, deliver func(shard uint16, msg any)) bool {
	switch m := msg.(type) {
	case proto.ShardBatch:
		for _, sm := range m.Msgs {
			routeTagged(w, sm, deliver)
		}
	case proto.ShardMsg:
		routeTagged(w, m, deliver)
	case proto.MUpdate, proto.ViewLogReq, proto.ViewLogResp, proto.EpochGossip:
		return false
	default:
		deliver(ownerOf(w, msg, 0), msg)
	}
	return true
}

func routeTagged(w int, sm proto.ShardMsg, deliver func(shard uint16, msg any)) {
	if int(sm.Shard) < w && ownerOf(w, sm.Msg, sm.Shard) == sm.Shard {
		deliver(sm.Shard, sm.Msg)
		return
	}
	core.ReleaseMsgOwners(sm.Msg)
}

// Addressed returns the half-open range [lo, hi) of shards m installs on
// at a w-shard host: every shard for a node-wide update, the one it names
// for a shard-scoped update, none when the target is out of range (dropped,
// like a mis-tagged message).
func Addressed(w int, m proto.MUpdate) (lo, hi int) {
	switch {
	case m.Shard == proto.AllShards:
		return 0, w
	case int(m.Shard) < w:
		return int(m.Shard), int(m.Shard) + 1
	}
	return 0, 0
}

// LogCap bounds a view log. Reconfigurations are control-plane rare, so 64
// epochs of history is far more than any live gap; a laggard further
// behind has been down long enough that it rejoins through the full
// learner arc anyway.
const LogCap = 64

// ViewLog is a node's bounded view log: every membership update it has
// seen — wire m-updates, direct installs, node-wide decisions — in arrival
// order with exact duplicates elided. A rejoining or lagging peer replays
// its gap from here via proto.ViewLogReq.
type ViewLog struct {
	ups []proto.MUpdate
}

// Record retains m (its view cloned), unless an entry for the same shard
// and epoch is already held; past LogCap the oldest entry drops.
func (l *ViewLog) Record(m proto.MUpdate) {
	for _, have := range l.ups {
		if have.Shard == m.Shard && have.View.Epoch == m.View.Epoch {
			return
		}
	}
	l.ups = append(l.ups, proto.MUpdate{Shard: m.Shard, View: m.View.Clone()})
	if len(l.ups) > LogCap {
		// Copy so the backing array does not pin the dropped views.
		l.ups = append(l.ups[:0:0], l.ups[len(l.ups)-LogCap:]...)
	}
}

// Serve answers a fetch: the retained updates above req.Since that concern
// the shard it asks about (node-wide entries concern every shard; an
// AllShards request wants everything). Retained views are never mutated,
// so the answer shares them.
func (l *ViewLog) Serve(req proto.ViewLogReq) []proto.MUpdate {
	var out []proto.MUpdate
	for _, mu := range l.ups {
		if mu.View.Epoch > req.Since &&
			(req.Shard == proto.AllShards || mu.Shard == proto.AllShards || mu.Shard == req.Shard) {
			out = append(out, mu)
		}
	}
	return out
}

// FetchReq is the fast-forward fetch for a host whose shards sit at local:
// everything above its most lagging shard's epoch, for every shard.
func FetchReq(local []uint32) proto.ViewLogReq {
	since := local[0]
	for _, e := range local[1:] {
		if e < since {
			since = e
		}
	}
	return proto.ViewLogReq{Shard: proto.AllShards, Since: since}
}

// defaultDebounce is the fast-forward debounce of a host that does not
// gossip itself and only hears other nodes' vectors.
const defaultDebounce = 100 * time.Millisecond

// Debounce returns the fast-forward debounce window of a host announcing
// its epochs every gossipEvery (0: it does not announce): four periods, so
// a fetch's answer has time to land before another observation can fire a
// second one.
func Debounce(gossipEvery time.Duration) time.Duration {
	if gossipEvery > 0 {
		return 4 * gossipEvery
	}
	return defaultDebounce
}

// Observer is the receive side of epoch gossip. A peer whose per-shard
// epoch vector is strictly ahead of any local shard becomes a fast-forward
// candidate; at most one fetch fires per debounce window, at the candidate
// advertising the highest epoch seen within it (newest peer preferred — it
// provably retains the longest log suffix). The same observer serves wire
// gossip frames and heartbeat-piggybacked vectors. It is advisory only: the
// fetch's answer replays through the normal install path, so a lying vector
// can waste one request, never corrupt state.
type Observer struct {
	notBefore time.Duration
	cand      proto.NodeID
	candEpoch uint32
	haveCand  bool
}

// Observe takes one vector from peer `from`, given the local shards'
// epochs, at time now with the given debounce window. behind reports
// whether the peer is ahead; fetch reports whether a fetch should go out
// now, to peer `to`.
func (o *Observer) Observe(now, debounce time.Duration, from proto.NodeID, epochs, local []uint32) (behind, fetch bool, to proto.NodeID) {
	var peerMax, localMax uint32
	for _, e := range local {
		if e > localMax {
			localMax = e
		}
	}
	for i, e := range epochs {
		if e > peerMax {
			peerMax = e
		}
		if i < len(local) && e > local[i] {
			behind = true
		}
	}
	// W-mismatched peers (different vector lengths) still compare by their
	// highest epoch: views are node-wide decisions, so a peer whose maximum
	// is ahead has seen an epoch this node missed entirely.
	if peerMax > localMax {
		behind = true
	}
	if !behind {
		return false, false, proto.NilNode
	}
	if !o.haveCand || peerMax > o.candEpoch {
		o.cand, o.candEpoch, o.haveCand = from, peerMax, true
	}
	if now < o.notBefore {
		return true, false, proto.NilNode
	}
	o.notBefore = now + debounce
	to = o.cand
	o.haveCand, o.candEpoch = false, 0
	return true, true, to
}

// RollOrder returns the order in which a node-wide view rolls across the
// shards: ascending by the client load each shard accrued since the
// previous roll (cur minus prev; a missing prev counts from zero), ties by
// index. The coolest shard transitions first and the hottest keeps its
// lock-free read fast path open longest.
func RollOrder(cur, prev []uint64) []int {
	delta := make([]uint64, len(cur))
	for i, c := range cur {
		if i < len(prev) {
			c -= prev[i]
		}
		delta[i] = c
	}
	order := make([]int, len(cur))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return delta[order[a]] < delta[order[b]] })
	return order
}
