package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/shardhost"
)

// RolloutController turns node-wide membership decisions into staggered
// per-shard installs — the automatic reconfiguration pipeline of §3.5–3.6.
// A membership agent (membership.Agent's OnView callback, or a node-wide
// wire MUpdate) hands it one view per epoch; the controller rolls that view
// across the node's W shards one at a time, ordered by live shard load
// (coolest shard first, so the hottest keeps its lock-free read fast path
// open longest), so **at most one read gate is shut at any moment**. The
// per-shard install blocks until that shard's §3.4 transition completes
// before the next gate shuts.
//
// Two escape hatches keep the staggering safe:
//
//   - A view that removes the local node (neither member nor learner)
//     installs node-wide immediately: a fenced node must stop serving every
//     shard at once, and trickling the fence across shards would keep
//     serving reads the new membership no longer sanctions.
//   - A newer view arriving mid-roll supersedes the current one: the roll
//     restarts with the newest view and each shard lands directly on the
//     latest epoch (views are complete membership states, so skipping
//     epochs is a fast-forward, not a gap). The skipped views stay in the
//     node's view log for peers that need to replay them.
//
// Every view the controller accepts enters the node's **view log**, which
// the node serves to rejoining or lagging peers (proto.ViewLogReq);
// FastForward replays a peer's log when this node is the laggard. The
// policy — roll order, gossip observer, view log — is shardhost's; the
// controller supplies the clock, the locks and the goroutines.
type RolloutController struct {
	sn  *ShardedNode
	cfg RolloutConfig

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup

	mu           sync.Mutex
	latest       proto.View
	have         bool
	lastAccepted uint32

	// prevLoads is the load snapshot of the previous roll; deltas against it
	// are the "live" load that orders the next roll. Only the roll loop
	// touches it.
	prevLoads []uint64

	// obs is the epoch-gossip observer (under mu), clocked by the monotonic
	// time since start.
	obs   shardhost.Observer
	start time.Time

	// Counters (see RolloutStats).
	views, redelivered, shardInstalls, skippedInstalls atomic.Uint64
	nodeWideFallbacks, ffRequests, ffApplied           atomic.Uint64
	gossipSent, gossipRecv, gossipBehind, gossipFF     atomic.Uint64

	// onInstall is a test hook observing each per-shard install in order.
	onInstall func(shard int, v proto.View)
}

// RolloutConfig parameterizes a controller.
type RolloutConfig struct {
	// Stagger is the pause between consecutive per-shard installs of one
	// roll, on top of each install's own (blocking) transition time. It
	// spaces the replay storms the installs trigger; 0 means back-to-back.
	Stagger time.Duration
	// GossipEvery, when positive, broadcasts this node's per-shard epoch
	// vector (proto.EpochGossip) to GossipPeers on that period. Combined
	// with the observer on the receive side this closes the self-healing
	// loop: a node that missed m-updates learns its lag from any peer's
	// gossip and fast-forwards itself, no operator or harness required.
	GossipEvery time.Duration
	// GossipPeers is the mesh peer set gossip is announced to (typically
	// the full configured node set; self is skipped).
	GossipPeers []proto.NodeID
	// FFDebounce rate-limits gossip-triggered fast-forwards: within one
	// window, at most one fetch is issued, and the candidate peer is the
	// one advertising the highest epoch seen in the window (newest peer
	// preferred — it provably retains the longest log suffix). Default
	// shardhost.Debounce(GossipEvery).
	FFDebounce time.Duration
}

// RolloutStats snapshots the controller's counters.
type RolloutStats struct {
	// Views counts accepted (newer-epoch) views; Redelivered counts
	// duplicate or stale deliveries dropped idempotently — without touching
	// any read gate (the PR 4 duplicate-install lesson, now enforced one
	// layer up).
	Views, Redelivered uint64
	// ShardInstalls counts per-shard installs performed; SkippedInstalls
	// counts shards found already at or past the target epoch (fast-forward
	// landed first, or a superseded roll already covered them).
	ShardInstalls, SkippedInstalls uint64
	// NodeWideFallbacks counts views that removed the local node and were
	// installed on every shard at once.
	NodeWideFallbacks uint64
	// FFRequests counts view-log fetches issued; FFApplied counts fetched
	// updates actually applied (epoch advanced somewhere).
	FFRequests, FFApplied uint64
	// GossipSent counts epoch-gossip frames announced; GossipRecv counts
	// frames observed; GossipBehind counts observations that showed a peer
	// strictly ahead of a local shard; GossipFastForwards counts the
	// fetches those observations actually issued after debouncing (the
	// self-healing trigger firing).
	GossipSent, GossipRecv, GossipBehind, GossipFastForwards uint64
}

// NewRolloutController attaches a controller to sn and starts its roll
// loop. It registers itself as sn's ViewHandlers, so node-wide wire
// m-updates and view-log traffic route through it from now on. Hand
// OnView to the membership agent (membership.Config.OnView) to complete
// the automatic pipeline. Close detaches and stops it.
func NewRolloutController(sn *ShardedNode, cfg RolloutConfig) *RolloutController {
	if cfg.FFDebounce <= 0 {
		cfg.FFDebounce = shardhost.Debounce(cfg.GossipEvery)
	}
	rc := &RolloutController{
		sn:    sn,
		cfg:   cfg,
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		start: time.Now(),
	}
	// Seed the accepted-epoch floor from the node's current state: a
	// controller attached to a node already at epoch N must treat a
	// late-redelivered view <= N as a redelivery, not a fresh decision — a
	// stale pre-rejoin removal view would otherwise fence the node through
	// the node-wide fallback.
	for _, e := range sn.ShardEpochs() {
		if e > rc.lastAccepted {
			rc.lastAccepted = e
		}
	}
	rc.prevLoads = sn.ShardLoads()
	sn.SetViewHandlers(&ViewHandlers{
		View:        rc.OnView,
		FastForward: rc.onViewLogResp,
		Gossip:      rc.ObserveGossip,
	})
	rc.wg.Add(1)
	go rc.loop()
	if cfg.GossipEvery > 0 {
		rc.wg.Add(1)
		go rc.gossipLoop()
	}
	return rc
}

// gossipLoop periodically announces this node's per-shard epoch vector to
// the configured peers. Sends run on this goroutine, never the dispatch
// pump, so a slow peer link cannot stall anything but its own gossip.
func (rc *RolloutController) gossipLoop() {
	defer rc.wg.Done()
	t := time.NewTicker(rc.cfg.GossipEvery)
	defer t.Stop()
	for {
		select {
		case <-rc.stop:
			return
		case <-t.C:
		}
		eg := proto.EpochGossip{Epochs: rc.sn.ShardEpochs()}
		for _, p := range rc.cfg.GossipPeers {
			if p == rc.sn.id {
				continue
			}
			rc.gossipSent.Add(1)
			rc.sn.tr.Send(rc.sn.id, p, eg)
		}
	}
}

// ObserveGossip is the receive side of epoch gossip (registered as the
// node's Gossip handler; membership heartbeat piggybacks route here too):
// shardhost.Observer decides whether the peer is ahead and whether a
// debounced fetch fires, and at whom.
func (rc *RolloutController) ObserveGossip(from proto.NodeID, epochs []uint32) {
	rc.gossipRecv.Add(1)
	local := rc.sn.ShardEpochs()
	rc.mu.Lock()
	behind, fetch, peer := rc.obs.Observe(time.Since(rc.start), rc.cfg.FFDebounce, from, epochs, local)
	rc.mu.Unlock()
	if behind {
		rc.gossipBehind.Add(1)
	}
	if !fetch {
		return
	}
	rc.gossipFF.Add(1)
	// The fetch leaves on its own goroutine: ObserveGossip runs on the
	// transport's dispatch pump, and a blocking send (lazy dial, exhausted
	// credits) must not stall data traffic behind a control-plane hint.
	go rc.FastForward(peer)
}

// OnView accepts one decided view. Newer epochs queue for rolling (newest
// wins — an older queued view still unrolled is superseded); duplicates and
// stale epochs are dropped idempotently and counted, without shutting or
// republishing any gate.
func (rc *RolloutController) OnView(v proto.View) {
	rc.mu.Lock()
	if v.Epoch <= rc.lastAccepted {
		rc.mu.Unlock()
		rc.redelivered.Add(1)
		return
	}
	rc.lastAccepted = v.Epoch
	rc.latest = v.Clone()
	rc.have = true
	rc.mu.Unlock()
	rc.sn.recordView(proto.MUpdate{Shard: proto.AllShards, View: v})
	rc.views.Add(1)
	select {
	case rc.kick <- struct{}{}:
	default:
	}
}

// onViewLogResp replays a fetched gap: node-wide entries feed OnView (so
// ordering, dedup and the roll machinery apply — consecutive entries
// supersede each other and the shards land on the newest, which is exactly
// the fast-forward), shard-scoped entries take the wire m-update path to
// their shard.
func (rc *RolloutController) onViewLogResp(from proto.NodeID, updates []proto.MUpdate) {
	for _, up := range updates {
		switch {
		case up.Shard == proto.AllShards:
			rc.mu.Lock()
			fresh := up.View.Epoch > rc.lastAccepted
			rc.mu.Unlock()
			if fresh {
				rc.ffApplied.Add(1)
			}
			rc.OnView(up.View)
		case int(up.Shard) < rc.sn.w:
			if rc.sn.ShardEpochs()[up.Shard] < up.View.Epoch {
				rc.ffApplied.Add(1)
				rc.sn.applyWireMUpdate(up)
			}
		}
	}
}

// FastForward asks peer for the epochs this node's most lagging shard has
// missed. The answer replays asynchronously via onViewLogResp. Callers are
// whoever detects the lag: a rejoin path, an epoch-gossip observer, or a
// harness.
func (rc *RolloutController) FastForward(peer proto.NodeID) {
	rc.ffRequests.Add(1)
	rc.sn.RequestViewLog(peer, shardhost.FetchReq(rc.sn.ShardEpochs()))
}

// Stats snapshots the controller's counters; safe mid-traffic.
func (rc *RolloutController) Stats() RolloutStats {
	return RolloutStats{
		Views:              rc.views.Load(),
		Redelivered:        rc.redelivered.Load(),
		ShardInstalls:      rc.shardInstalls.Load(),
		SkippedInstalls:    rc.skippedInstalls.Load(),
		NodeWideFallbacks:  rc.nodeWideFallbacks.Load(),
		FFRequests:         rc.ffRequests.Load(),
		FFApplied:          rc.ffApplied.Load(),
		GossipSent:         rc.gossipSent.Load(),
		GossipRecv:         rc.gossipRecv.Load(),
		GossipBehind:       rc.gossipBehind.Load(),
		GossipFastForwards: rc.gossipFF.Load(),
	}
}

// Close stops the roll loop and detaches the controller from the node.
// In-flight per-shard installs finish (they block on shard event loops that
// remain live); queued views are abandoned.
func (rc *RolloutController) Close() {
	select {
	case <-rc.stop:
	default:
		close(rc.stop)
	}
	rc.wg.Wait()
	rc.sn.SetViewHandlers(nil)
}

func (rc *RolloutController) loop() {
	defer rc.wg.Done()
	for {
		select {
		case <-rc.stop:
			return
		case <-rc.kick:
		}
		for {
			rc.mu.Lock()
			if !rc.have {
				rc.mu.Unlock()
				break
			}
			v := rc.latest
			rc.have = false
			rc.mu.Unlock()
			if !rc.roll(v) {
				return // stopped mid-roll
			}
		}
	}
}

// roll installs v across the shards, one read gate at a time, coolest shard
// first. Returns false when the controller was stopped mid-roll.
func (rc *RolloutController) roll(v proto.View) bool {
	self := rc.sn.id
	if !v.Contains(self) && !v.IsLearner(self) {
		// The view fences this node: stop serving everywhere at once.
		// Staggering a removal would keep gates open on shards the new
		// membership no longer sanctions.
		rc.nodeWideFallbacks.Add(1)
		rc.sn.InstallView(v)
		return true
	}
	for _, s := range rc.loadOrder() {
		rc.mu.Lock()
		superseded := rc.have
		rc.mu.Unlock()
		if superseded {
			// A newer view arrived mid-roll: abandon this epoch. The loop
			// restarts with the newest view, whose roll covers every shard
			// still behind — including the ones this pass never reached.
			return true
		}
		if rc.sn.ShardEpochs()[s] >= v.Epoch {
			// Already there (a fast-forward or a superseded roll landed
			// first): installing again would shut and republish a healthy
			// gate for nothing.
			rc.skippedInstalls.Add(1)
			continue
		}
		if rc.onInstall != nil {
			rc.onInstall(s, v)
		}
		rc.sn.shards[s].InstallView(v) // blocks until the transition completes
		rc.shardInstalls.Add(1)
		if rc.cfg.Stagger > 0 {
			select {
			case <-rc.stop:
				return false
			case <-time.After(rc.cfg.Stagger):
			}
		}
	}
	return true
}

// loadOrder is shardhost.RollOrder over the load accrued since the
// previous roll.
func (rc *RolloutController) loadOrder() []int {
	cur := rc.sn.ShardLoads()
	order := shardhost.RollOrder(cur, rc.prevLoads)
	rc.prevLoads = cur
	return order
}
