package sim

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/shardhost"
)

// ShardedReplica is the simulator's counterpart of cluster.ShardedNode: one
// host running W independent core.Hermes engines, each owning the keyspace
// partition proto.ShardOf selects, with per-shard membership epochs. Where
// the live node gives every engine its own event-loop goroutine, the
// simulator is single-threaded — the engines are simply distinct state
// machines behind one Replica facade, and CPU parallelism (when wanted) is
// modeled separately by Config.Workers.
//
// Outgoing messages wrap in proto.ShardMsg (elided at W=1) as on the live
// node, and every policy decision — routing, the view log, the epoch-gossip
// observer, the roll order — is the live node's own, from package
// shardhost, clocked by Env.Now. The chaos harness therefore exercises the
// routing, per-shard epoch filtering and self-healing the live cluster
// ships.
type ShardedReplica struct {
	id      proto.NodeID
	w       int
	env     proto.Env
	engines []*core.Hermes

	// vlog is the view log: every membership update this node has seen
	// (wire MUpdates, direct installs, node-wide views). A rejoining or
	// lagging peer replays its gap from here via proto.ViewLogReq.
	vlog shardhost.ViewLog

	// ffServed counts view-log entries served to peers; ffApplied counts
	// fetched entries whose replay actually advanced a local shard's epoch.
	ffServed, ffApplied uint64

	// Epoch-gossip self-healing: cfg.GossipEvery paces the announcements,
	// nextGossip is the next send, obs decides the fetches.
	cfg        ShardedReplicaConfig
	nextGossip time.Duration
	obs        shardhost.Observer
	// prevLoads is the per-engine load at the previous RollOrder.
	prevLoads []uint64
	// gossipSent counts vectors announced; gossipBehind counts observations
	// showing a peer strictly ahead; gossipFF counts debounced fetches
	// actually issued (the self-healing trigger firing).
	gossipSent, gossipBehind, gossipFF uint64
}

// ShardedReplicaConfig parameterizes NewShardedReplica. The embedded toggles
// mean what they do on core.Config.
type ShardedReplicaConfig struct {
	Shards                     int
	MLT                        time.Duration
	ElideVAL, EarlyACKs, NoLSC bool
	// Learner starts every engine as a shadow replica (§3.4 Recovery) — the
	// state a crashed node rejoins in.
	Learner bool
	// GossipEvery, when positive, announces this replica's per-shard epoch
	// vector (proto.EpochGossip) to the members and learners of its newest
	// known view on that period, from Tick — the sim counterpart of the live
	// controller's gossip loop. A receiver that observes itself behind
	// issues its own debounced view-log fetch: self-healing with no harness
	// backstop.
	GossipEvery time.Duration
}

// shardReplicaEnv is one engine's window to the host env: it tags outgoing
// messages with the engine's shard index (unless W=1, which stays
// wire-identical to an unsharded replica).
type shardReplicaEnv struct {
	env proto.Env
	idx uint16
	w   int
}

func (e shardReplicaEnv) Now() time.Duration { return e.env.Now() }
func (e shardReplicaEnv) Send(to proto.NodeID, msg any) {
	if e.w == 1 {
		e.env.Send(to, msg)
		return
	}
	e.env.Send(to, proto.ShardMsg{Shard: e.idx, Msg: msg})
}
func (e shardReplicaEnv) Complete(c proto.Completion) { e.env.Complete(c) }

// NewShardedReplica builds a W-engine replica for host id on env.
func NewShardedReplica(id proto.NodeID, view proto.View, env proto.Env, cfg ShardedReplicaConfig) *ShardedReplica {
	w := cfg.Shards
	if w < 1 {
		w = 1
	}
	r := &ShardedReplica{id: id, w: w, env: env, cfg: cfg}
	for i := 0; i < w; i++ {
		r.engines = append(r.engines, core.New(core.Config{
			ID: id, View: view.Clone(),
			Env: shardReplicaEnv{env: env, idx: uint16(i), w: w},
			MLT: cfg.MLT, ElideVAL: cfg.ElideVAL, EarlyACKs: cfg.EarlyACKs,
			NoLSC: cfg.NoLSC, Learner: cfg.Learner,
		}))
	}
	return r
}

// ID implements proto.Replica.
func (r *ShardedReplica) ID() proto.NodeID { return r.id }

// Shards returns the worker count W.
func (r *ShardedReplica) Shards() int { return r.w }

// Engine exposes shard i's state machine (metrics, tests).
func (r *ShardedReplica) Engine(i int) *core.Hermes { return r.engines[i] }

// Submit implements proto.Replica: ops route to the engine owning the key.
func (r *ShardedReplica) Submit(op proto.ClientOp) {
	r.engines[proto.ShardOf(op.Key, r.w)].Submit(op)
}

// Deliver implements proto.Replica: protocol traffic routes through
// shardhost.Route, node-level control traffic is handled here.
func (r *ShardedReplica) Deliver(from proto.NodeID, msg any) {
	if shardhost.Route(r.w, msg, func(s uint16, m any) { r.engines[s].Deliver(from, m) }) {
		return
	}
	switch m := msg.(type) {
	case proto.MUpdate:
		r.RecordView(m)
		r.applyMUpdate(m)
	case proto.ViewLogReq:
		ups := r.vlog.Serve(m)
		r.ffServed += uint64(len(ups))
		r.env.Send(from, proto.ViewLogResp{Updates: ups})
	case proto.ViewLogResp:
		// Replay the fetched gap through the normal install path, counting
		// only entries that advance an epoch (redeliveries are idempotent).
		for _, mu := range m.Updates {
			if r.advances(mu) {
				r.ffApplied++
			}
			r.RecordView(mu)
			r.applyMUpdate(mu)
		}
	case proto.EpochGossip:
		r.ObserveEpochGossip(from, m.Epochs)
	default:
		panic(fmt.Sprintf("sim: shardhost.Route left %T unrouted", msg))
	}
}

// applyMUpdate installs a membership update on the shards it addresses.
func (r *ShardedReplica) applyMUpdate(m proto.MUpdate) {
	lo, hi := shardhost.Addressed(r.w, m)
	for _, e := range r.engines[lo:hi] {
		e.OnViewChange(m.View)
	}
}

// advances reports whether installing m would move some addressed shard's
// epoch forward.
func (r *ShardedReplica) advances(m proto.MUpdate) bool {
	lo, hi := shardhost.Addressed(r.w, m)
	for _, e := range r.engines[lo:hi] {
		if e.View().Epoch < m.View.Epoch {
			return true
		}
	}
	return false
}

// RecordView retains a membership update in the replica's view log without
// installing it. The chaos harness calls it on the deciding coordinator —
// the membership service durably knows its own decisions even when the
// wire loses the fan-out — and Deliver records every update that arrives,
// so any node that applied an epoch can serve it to a laggard.
func (r *ShardedReplica) RecordView(m proto.MUpdate) { r.vlog.Record(m) }

// FastForwardStats reports the view-log counters: entries served to peers
// and fetched entries that advanced a local epoch.
func (r *ShardedReplica) FastForwardStats() (served, applied uint64) {
	return r.ffServed, r.ffApplied
}

// Tick implements proto.Replica.
func (r *ShardedReplica) Tick() {
	for _, e := range r.engines {
		e.Tick()
	}
	if r.cfg.GossipEvery > 0 {
		now := r.env.Now()
		if now >= r.nextGossip {
			r.nextGossip = now + r.cfg.GossipEvery
			r.gossip()
		}
	}
}

// gossip announces this replica's per-shard epoch vector to the members and
// learners of its newest known view (minus self) — the sim counterpart of
// the live controller's gossip loop. Gossip is node-level routing: it is
// sent bare, never shard-tagged.
func (r *ShardedReplica) gossip() {
	v := r.newestView()
	eg := proto.EpochGossip{Epochs: r.ShardEpochs()}
	for _, n := range v.Members {
		if n != r.id {
			r.gossipSent++
			r.env.Send(n, eg)
		}
	}
	for _, n := range v.Learners {
		if n != r.id {
			r.gossipSent++
			r.env.Send(n, eg)
		}
	}
}

// newestView returns the highest-epoch view among the engines — the best
// notion this node has of current membership (shards may differ mid-roll).
func (r *ShardedReplica) newestView() proto.View {
	best := r.engines[0].View()
	for _, e := range r.engines[1:] {
		if v := e.View(); v.Epoch > best.Epoch {
			best = v
		}
	}
	return best
}

// ObserveEpochGossip is the receive side of epoch gossip, for wire frames
// and heartbeat-piggybacked vectors (membership.Config.OnPeerAhead) alike:
// shardhost.Observer decides whether the peer is ahead and whether a
// debounced fetch fires, and at whom.
func (r *ShardedReplica) ObserveEpochGossip(from proto.NodeID, epochs []uint32) {
	local := r.ShardEpochs()
	behind, fetch, peer := r.obs.Observe(r.env.Now(), shardhost.Debounce(r.cfg.GossipEvery), from, epochs, local)
	if behind {
		r.gossipBehind++
	}
	if fetch {
		r.gossipFF++
		r.env.Send(peer, shardhost.FetchReq(local))
	}
}

// GossipStats reports the epoch-gossip counters: vectors announced, peer-
// ahead observations, and debounced fetches issued.
func (r *ShardedReplica) GossipStats() (sent, behind, ff uint64) {
	return r.gossipSent, r.gossipBehind, r.gossipFF
}

// SetNoLSC flips §8 clock-free read mode on every engine at runtime (the
// gate closes or reopens accordingly; queued speculative reads still drain).
func (r *ShardedReplica) SetNoLSC(on bool) {
	for _, e := range r.engines {
		e.SetNoLSC(on)
	}
}

// OnViewChange implements proto.Replica: the node-wide m-update fans out to
// every shard (what a membership agent's decision does). The view is also
// retained in the log so this node can serve laggards.
func (r *ShardedReplica) OnViewChange(v proto.View) {
	r.RecordView(proto.MUpdate{Shard: proto.AllShards, View: v})
	for _, e := range r.engines {
		e.OnViewChange(v)
	}
}

// InstallShard advances a single shard's membership epoch, leaving the other
// shards untouched — the localized reconfiguration the chaos harness storms.
func (r *ShardedReplica) InstallShard(shard int, v proto.View) {
	r.RecordView(proto.MUpdate{Shard: uint16(shard), View: v})
	r.engines[shard].OnViewChange(v)
}

// SetOperational flips the RM lease on every engine (lease loss is a
// node-level event).
func (r *ShardedReplica) SetOperational(ok bool) {
	for _, e := range r.engines {
		e.SetOperational(ok)
	}
}

// CaughtUp reports whether every learner engine finished state transfer.
func (r *ShardedReplica) CaughtUp() bool {
	for _, e := range r.engines {
		if !e.CaughtUp() {
			return false
		}
	}
	return true
}

// RollOrder is the order a node-wide view rolls across the engines:
// shardhost.RollOrder over the ops each engine processed since the previous
// call.
func (r *ShardedReplica) RollOrder() []int {
	load := make([]uint64, r.w)
	for i, e := range r.engines {
		m := e.Metrics()
		load[i] = m.Reads + m.Writes + m.RMWs
	}
	order := shardhost.RollOrder(load, r.prevLoads)
	r.prevLoads = load
	return order
}

// ShardEpochs reports each engine's current membership epoch; with per-shard
// installs they may legitimately differ.
func (r *ShardedReplica) ShardEpochs() []uint32 {
	out := make([]uint32, r.w)
	for i, e := range r.engines {
		out[i] = e.View().Epoch
	}
	return out
}
