package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/refbuf"
	"repro/internal/shardhost"
)

// ShardedNode is the multi-worker protocol engine of HermesKV (paper §4.1):
// one live node hosting W independent core.Hermes state machines, each with
// its own event-loop goroutine, kvs.Store segment and timers, each owning
// the keyspace partition proto.ShardOf selects. Writes and RMWs to keys on
// different shards commit fully in parallel — there is no cross-shard
// serialization point — while the lock-free local-read fast path is the same
// as Node's (it consults the owning shard's store directly).
//
// On the wire every protocol message is wrapped in a proto.ShardMsg so the
// receiving node can route it to the peer shard that owns the key; shard s
// of one node only ever converses with shard s of the others. All nodes of
// a cluster must therefore be configured with the same shard count. With
// Shards=1 the envelope is elided entirely: a single-shard node is
// byte-for-byte identical to a plain Node on the wire and interoperates
// with one.
//
// Small messages (ACKs, VALs) do not write the transport directly: they
// pass through a per-peer egress coalescer that gathers what the W engines
// emit concurrently and ships it as one proto.ShardBatch frame under one
// flow-control credit — cutting the per-write frame rate that W would
// otherwise multiply. Arriving batches fan back out to owner shards in
// dispatch.
//
// Membership epochs are per shard: a node-wide m-update fans out to every
// shard (InstallView), while InstallShardView — or a wire proto.MUpdate
// addressing one shard — advances a single shard's epoch. Either way the
// §3.4 fault-tolerance machinery — epoch filtering, write replays,
// shadow-replica catch-up — operates per shard over that shard's slice of
// the keyspace, so one shard's reconfiguration never pauses the others.
type ShardedNode struct {
	id     proto.NodeID
	w      int
	tr     Transport
	shards []*Node
	// deliver[i] is shard i's arrival callback, captured when the shard's
	// Node registers on its shardTransport during construction.
	deliver []func(from proto.NodeID, msg any)

	// coal holds the egress coalescers, two per peer (lazily created): small
	// shard-tagged messages from all W engines gather there and ship as one
	// proto.ShardBatch frame under one flow-control credit, instead of W
	// independent ShardMsg frames. Responses (ACKs) and credit-consuming
	// messages (VALs) coalesce separately — see coalescerFor. Unused at W=1
	// (no envelopes at all).
	coalMu sync.Mutex
	coal   map[coalKey]*peerCoalescer

	// Coalescing counters (atomic; see CoalesceStats).
	batchesOut, coalescedOut, singlesOut atomic.Uint64
	// droppedOut counts messages shed by full coalescer buffers (a stalled
	// peer); the shard engines' retransmission recovers them.
	droppedOut atomic.Uint64

	// vlog is the node's view log: every membership update it installed or
	// received, served to peers' fast-forward fetches.
	vlogMu sync.Mutex
	vlog   shardhost.ViewLog

	// viewHandlers, when set, intercepts node-level membership traffic: a
	// rollout controller registers here to receive node-wide wire m-updates
	// (staggering them across shards instead of the all-gates-at-once fan
	// out), epoch gossip, and fast-forward responses.
	viewHandlers atomic.Pointer[ViewHandlers]
}

// ViewHandlers routes node-level membership traffic to an attached rollout
// controller (or any other membership host). All fields are optional; a nil
// handler falls back to the direct install path.
type ViewHandlers struct {
	// View receives node-wide (AllShards) wire m-updates.
	View func(v proto.View)
	// FastForward receives a view-log answer to this node's own fetch.
	FastForward func(from proto.NodeID, updates []proto.MUpdate)
	// Gossip receives a peer's per-shard epoch vector (proto.EpochGossip);
	// the handler decides whether the peer is ahead and whether to
	// fast-forward. Without a handler gossip frames drop harmlessly.
	Gossip func(from proto.NodeID, epochs []uint32)
}

// ShardedConfig parameterizes a sharded replica. The embedded per-shard
// toggles mean exactly what they do on NodeConfig; Shards is the worker
// count W (values < 1 become 1, so the zero value degenerates to a plain
// single-engine node).
type ShardedConfig struct {
	ID   proto.NodeID
	View proto.View
	MLT  time.Duration
	// Hermes toggles (see core.Config).
	ElideVAL, EarlyACKs, NoLSC bool
	TickEvery                  time.Duration
	Shards                     int
}

// DefaultShards picks a worker count for deployments that do not choose one:
// one shard per CPU, capped — the paper's testbed runs ~20 worker threads
// per node, but beyond the core count extra shards only add scheduling
// overhead.
func DefaultShards() int {
	w := runtime.NumCPU()
	if w > 16 {
		w = 16
	}
	if w < 1 {
		w = 1
	}
	return w
}

// shardTransport is the per-shard window onto the node's real transport: it
// tags outgoing messages with the shard index (unless W=1) and captures the
// shard's deliver callback for the node-level dispatcher instead of
// registering it with the real transport.
type shardTransport struct {
	sn  *ShardedNode
	idx uint16
	// coalCache memoizes coalescer lookups so the per-message fast path
	// skips the node-global coalMu; only this shard's event loop touches it,
	// so it needs no lock.
	coalCache map[coalKey]*peerCoalescer
}

func (t *shardTransport) Send(from, to proto.NodeID, msg any) {
	if t.sn.w == 1 {
		t.sn.tr.Send(from, to, msg)
		return
	}
	sm := proto.ShardMsg{Shard: t.idx, Msg: msg}
	if core.Coalescable(msg) {
		// Small messages are the coalescing targets: at W shards they
		// dominate the frame rate, and no protocol property depends on
		// their ordering relative to the direct path (links are lossy and
		// reordering anyway).
		k := coalKey{to: to, class: classOf(msg)}
		p := t.coalCache[k]
		if p == nil {
			p = t.sn.coalescerFor(k)
			if t.coalCache == nil {
				t.coalCache = make(map[coalKey]*peerCoalescer)
			}
			t.coalCache[k] = p
		}
		p.enqueue(sm)
		return
	}
	t.sn.tr.Send(from, to, sm)
}

func (t *shardTransport) SetDeliver(id proto.NodeID, fn func(from proto.NodeID, msg any)) {
	t.sn.deliver[t.idx] = fn
}

func (t *shardTransport) Close() error { return nil }

// msgClass is the flow-control class of a coalesced message; one coalescer
// carries exactly one class, because the classes settle credits differently
// and a mixed batch would have no coherent price.
type msgClass uint8

const (
	// classResponse: ACKs. A homogeneous response batch consumes no send
	// credit, so ACK egress — the traffic that repays the peer's credits —
	// can never block behind a credit-starved batch of another class (mixing
	// could deadlock two mutually starved peers whose repayments sit queued
	// behind their own blocked flushers).
	classResponse msgClass = iota
	// classOneWay: VALs. One credit per frame, repaid by the receiver's
	// explicit grants counting the batch once.
	classOneWay
	// classRequest: INVs. One credit per inner message (wings prices the
	// batch via LinkConfig.CreditCost), each repaid implicitly by its ACK.
	// Request batches are additionally size-budgeted: INVs carry values, and
	// an unbounded batch would turn the per-frame flush into a latency cliff.
	classRequest
)

func classOf(msg any) msgClass {
	if core.IsResponseMsg(msg) {
		return classResponse
	}
	if _, ok := msg.(core.INV); ok {
		return classRequest
	}
	return classOneWay
}

// coalKey identifies one egress coalescer: the destination peer and the
// flow-control class of what it carries.
type coalKey struct {
	to    proto.NodeID
	class msgClass
}

// maxBatchMsgs caps one ShardBatch at the codec's 2-byte count; a fuller
// buffer flushes as several frames.
const maxBatchMsgs = 0xFFFF

// maxBatchBytes budgets one request-class (INV) batch frame. INVs carry
// values, so unlike the fixed-size ACK/VAL batches their frames can grow
// arbitrarily; past the budget the buffer flushes as several frames, keeping
// per-frame encode-and-write latency bounded while still amortizing the
// framing and credit overhead. A single oversized INV still ships alone.
const maxBatchBytes = 64 << 10

// shardMsgSize estimates one coalesced message's wire footprint for the
// request-class byte budget: fixed header plus the value an INV carries.
func shardMsgSize(sm proto.ShardMsg) int {
	const overhead = 32
	if inv, ok := sm.Msg.(core.INV); ok {
		return overhead + len(inv.Value)
	}
	return overhead
}

// maxCoalesceBuf bounds one coalescer's queue. Enqueue never blocks the
// shard engines, so when the flusher is stalled (a credit-starved peer) the
// buffer must not grow without bound; past the cap, messages drop — the
// same bounded-queue discipline as ChanTransport's full inbox, and the
// protocols' retransmission recovers.
const maxCoalesceBuf = 1 << 16

// peerCoalescer gathers small shard-tagged messages of one credit class
// bound for one peer across all W shard engines and flushes them as single
// ShardBatch frames. Batching is opportunistic, exactly like the wings
// flusher it feeds: the first enqueue starts a flusher goroutine, and while
// its Send is in flight (possibly blocked on flow-control credits) further
// messages pile into buf and ship together — latency is never traded for
// batch size.
type peerCoalescer struct {
	sn    *ShardedNode
	to    proto.NodeID
	class msgClass

	mu       sync.Mutex
	buf      []proto.ShardMsg
	flushing bool
}

func (p *peerCoalescer) enqueue(sm proto.ShardMsg) {
	p.mu.Lock() //hermesvet:ignore eventloop bounded append under the buffer lock; flushLoop copies the batch out and releases before any I/O
	if len(p.buf) >= maxCoalesceBuf {
		p.mu.Unlock()
		p.sn.droppedOut.Add(1)
		return
	}
	p.buf = append(p.buf, sm)
	if !p.flushing {
		p.flushing = true
		go p.flushLoop()
	}
	p.mu.Unlock()
}

func (p *peerCoalescer) flushLoop() {
	for {
		p.mu.Lock()
		if len(p.buf) == 0 {
			p.flushing = false
			p.mu.Unlock()
			return
		}
		cut := len(p.buf)
		if cut > maxBatchMsgs {
			cut = maxBatchMsgs
		}
		if p.class == classRequest {
			size := 0
			for i := 0; i < cut; i++ {
				size += shardMsgSize(p.buf[i])
				if size > maxBatchBytes && i > 0 {
					cut = i
					break
				}
			}
		}
		batch := p.buf[:cut]
		if cut == len(p.buf) {
			p.buf = nil
		} else {
			p.buf = p.buf[cut:]
		}
		p.mu.Unlock()

		if len(batch) == 1 {
			// A lone message ships as a plain ShardMsg: no envelope overhead,
			// and the wire stays identical to the pre-coalescing protocol
			// whenever there is nothing to coalesce.
			p.sn.singlesOut.Add(1)
			p.sn.tr.Send(p.sn.id, p.to, batch[0])
			continue
		}
		p.sn.batchesOut.Add(1)
		p.sn.coalescedOut.Add(uint64(len(batch)))
		p.sn.tr.Send(p.sn.id, p.to, proto.ShardBatch{Msgs: batch})
	}
}

// coalescerFor returns (creating if needed) the egress coalescer for a
// peer and credit class. Hot paths go through shardTransport's per-shard
// cache and reach here only on first contact with a peer.
func (sn *ShardedNode) coalescerFor(k coalKey) *peerCoalescer {
	sn.coalMu.Lock() //hermesvet:ignore eventloop first-contact slow path only; steady state resolves the coalescer through the per-shard cache
	defer sn.coalMu.Unlock()
	p := sn.coal[k]
	if p == nil {
		p = &peerCoalescer{sn: sn, to: k.to, class: k.class}
		sn.coal[k] = p
	}
	return p
}

// CoalesceStats reports the egress coalescers' work: batch frames shipped,
// messages carried inside them, messages that flushed alone, and messages
// shed by full buffers.
func (sn *ShardedNode) CoalesceStats() (batches, coalesced, singles, dropped uint64) {
	return sn.batchesOut.Load(), sn.coalescedOut.Load(), sn.singlesOut.Load(), sn.droppedOut.Load()
}

// NewShardedNode builds and starts a live sharded Hermes replica on tr.
func NewShardedNode(cfg ShardedConfig, tr Transport) *ShardedNode {
	w := cfg.Shards
	if w < 1 {
		w = 1
	}
	sn := &ShardedNode{
		id:      cfg.ID,
		w:       w,
		tr:      tr,
		deliver: make([]func(proto.NodeID, any), w),
		coal:    make(map[coalKey]*peerCoalescer),
	}
	for i := 0; i < w; i++ {
		sn.shards = append(sn.shards, NewNode(NodeConfig{
			ID: cfg.ID, View: cfg.View.Clone(), MLT: cfg.MLT,
			ElideVAL: cfg.ElideVAL, EarlyACKs: cfg.EarlyACKs, NoLSC: cfg.NoLSC,
			TickEvery: cfg.TickEvery,
		}, &shardTransport{sn: sn, idx: uint16(i)}))
	}
	tr.SetDeliver(cfg.ID, sn.dispatch)
	return sn
}

// dispatch hands an arriving message to the shard-host policy's router
// (shardhost.Route: batch fan-out, the tag-vs-owner check, routing by key)
// and handles the node-level control traffic the router leaves to it.
func (sn *ShardedNode) dispatch(from proto.NodeID, msg any) {
	if shardhost.Route(sn.w, msg, func(s uint16, m any) { sn.deliver[s](from, m) }) {
		return
	}
	switch m := msg.(type) {
	case proto.MUpdate:
		sn.applyWireMUpdate(m)
	case proto.ViewLogReq:
		// A fast-forward fetch from a rejoining or lagging peer: answer from
		// the node's view log. ALWAYS answer — an empty ViewLogResp is the
		// legal "nothing newer" — because the request consumed a send credit
		// on the requester's link that only the response repays; silently
		// dropping it would erode the peer's send window one fetch at a
		// time. The reply leaves on its own goroutine: dispatch runs on the
		// transport's read pump, and a blocking send (lazy dial, exhausted
		// credits) must not stall delivery of the data traffic behind it.
		sn.vlogMu.Lock()
		ups := sn.vlog.Serve(m)
		sn.vlogMu.Unlock()
		go sn.tr.Send(sn.id, from, proto.ViewLogResp{Updates: ups})
	case proto.EpochGossip:
		// Advisory epoch gossip from a peer. Only an attached controller
		// knows how to act on it (debounce, pick the newest peer, fetch);
		// without one it drops — it carries no state, only a hint.
		if h := sn.viewHandlers.Load(); h != nil && h.Gossip != nil {
			h.Gossip(from, m.Epochs)
		}
	case proto.ViewLogResp:
		// The answer to this node's own fetch: hand it to the controller
		// (which orders and counts the replay), or replay the entries
		// directly through the install path a wire MUpdate takes.
		if h := sn.viewHandlers.Load(); h != nil && h.FastForward != nil {
			h.FastForward(from, m.Updates)
			return
		}
		for _, up := range m.Updates {
			sn.applyWireMUpdate(up)
		}
	default:
		panic(fmt.Sprintf("cluster: shardhost.Route left %T unrouted", msg))
	}
}

// applyWireMUpdate records a wire m-update in the view log and installs it
// on exactly the shards it addresses — the per-shard epoch machinery.
// Installs are asynchronous: the dispatch pump must not block behind one
// busy shard's event loop (that would re-couple the shards the per-shard
// epochs decouple). Node-wide (AllShards) updates divert to an attached
// rollout controller, which rolls them across the shards one gate at a time
// instead of shutting all W at once.
func (sn *ShardedNode) applyWireMUpdate(m proto.MUpdate) {
	sn.recordView(m)
	if m.Shard == proto.AllShards {
		if h := sn.viewHandlers.Load(); h != nil && h.View != nil {
			h.View(m.View)
			return
		}
	}
	lo, hi := shardhost.Addressed(sn.w, m)
	for _, s := range sn.shards[lo:hi] {
		s.installAsync(m.View)
	}
}

// recordView retains a membership update in the node's view log, from
// which peers fast-forward.
func (sn *ShardedNode) recordView(m proto.MUpdate) {
	sn.vlogMu.Lock()
	sn.vlog.Record(m)
	sn.vlogMu.Unlock()
}

// SetViewHandlers attaches (or, with nil, detaches) the node-level
// membership routing hooks. Safe to call while traffic is flowing.
func (sn *ShardedNode) SetViewHandlers(h *ViewHandlers) {
	sn.viewHandlers.Store(h)
}

// RequestViewLog sends a fast-forward fetch to a peer; the answer arrives
// asynchronously through dispatch (ViewHandlers.FastForward when attached,
// the direct install path otherwise).
func (sn *ShardedNode) RequestViewLog(peer proto.NodeID, req proto.ViewLogReq) {
	sn.tr.Send(sn.id, peer, req)
}

// ID returns the node's ID.
func (sn *ShardedNode) ID() proto.NodeID { return sn.id }

// Shards returns the worker count W.
func (sn *ShardedNode) Shards() int { return sn.w }

// Shard exposes shard i's engine (metrics, tests).
func (sn *ShardedNode) Shard(i int) *Node { return sn.shards[i] }

// shardFor returns the engine owning key.
func (sn *ShardedNode) shardFor(key proto.Key) *Node {
	return sn.shards[proto.ShardOf(key, sn.w)]
}

// Read performs a linearizable read via the owning shard; Valid keys are
// served lock-free from that shard's store segment on the caller's
// goroutine, subject to the shard engine's read gate.
func (sn *ShardedNode) Read(ctx context.Context, key proto.Key) (proto.Value, error) {
	return sn.shardFor(key).Read(ctx, key)
}

// ReadLocal attempts the lock-free fast path against the owning shard's
// store segment on the caller's goroutine; see Node.ReadLocal.
func (sn *ShardedNode) ReadLocal(key proto.Key) (proto.Value, bool) {
	return sn.shardFor(key).ReadLocal(key)
}

// ReadLocalRetained is ReadLocal minus the defensive copy; see
// Node.ReadLocalRetained for the pin contract.
func (sn *ShardedNode) ReadLocalRetained(key proto.Key) (proto.Value, *refbuf.Buf, bool) {
	return sn.shardFor(key).ReadLocalRetained(key)
}

// SubmitAsync routes op to its owning shard's event loop and invokes fn with
// the completion; see Node.SubmitAsync for the callback contract.
func (sn *ShardedNode) SubmitAsync(op proto.ClientOp, fn func(proto.Completion)) error {
	return sn.shardFor(op.Key).SubmitAsync(op, fn)
}

// ReadStats sums the shard engines' read-side counters (total reads,
// fast-path hits, fast-path fallbacks); safe to call concurrently with
// traffic.
func (sn *ShardedNode) ReadStats() (reads, fastHits, fastMisses uint64) {
	for _, s := range sn.shards {
		r, h, m := s.ReadStats()
		reads += r
		fastHits += h
		fastMisses += m
	}
	return reads, fastHits, fastMisses
}

// Write performs a linearizable write via the owning shard.
func (sn *ShardedNode) Write(ctx context.Context, key proto.Key, val proto.Value) error {
	return sn.shardFor(key).Write(ctx, key, val)
}

// CAS performs a compare-and-swap via the owning shard.
func (sn *ShardedNode) CAS(ctx context.Context, key proto.Key, expect, val proto.Value) (bool, proto.Value, error) {
	return sn.shardFor(key).CAS(ctx, key, expect, val)
}

// FAA performs a fetch-and-add via the owning shard.
func (sn *ShardedNode) FAA(ctx context.Context, key proto.Key, delta int64) (int64, error) {
	return sn.shardFor(key).FAA(ctx, key, delta)
}

// InstallView fans the m-update out to every shard — the node-wide install a
// membership agent decides once per node. Each shard runs the full §3.4
// transition independently over its own keyspace partition: its read gate
// shuts, its in-flight epoch-tagged messages are filtered, its replays run.
func (sn *ShardedNode) InstallView(v proto.View) {
	sn.recordView(proto.MUpdate{Shard: proto.AllShards, View: v})
	for _, s := range sn.shards {
		s.InstallView(v)
	}
}

// InstallShardView installs an m-update on one shard only, leaving every
// other shard's epoch, read gate and in-flight traffic untouched. This is
// what localizes reconfiguration: a replay storm following shard i's install
// cannot stall reads or writes on shards j≠i (measured by `hermes-bench
// -exp reconfig`). Blocks until the target shard's event loop has completed
// the transition.
func (sn *ShardedNode) InstallShardView(shard int, v proto.View) {
	sn.recordView(proto.MUpdate{Shard: uint16(shard), View: v})
	sn.shards[shard].InstallView(v)
}

// ShardLoads reports each shard's live client-op load (reads + updates
// served since construction); safe mid-traffic. The rollout controller
// orders installs by deltas of these.
func (sn *ShardedNode) ShardLoads() []uint64 {
	out := make([]uint64, sn.w)
	for i, s := range sn.shards {
		r, u := s.LoadStats()
		out[i] = r + u
	}
	return out
}

// ShardEpochs reports each shard's currently published membership epoch
// (read from the shards' atomic read-gate words; safe mid-traffic). With
// per-shard installs the epochs may legitimately differ across shards of one
// node.
func (sn *ShardedNode) ShardEpochs() []uint32 {
	out := make([]uint32, sn.w)
	for i, s := range sn.shards {
		out[i] = s.h.ReadGate().Epoch()
	}
	return out
}

// Close stops all shard engines (the transport is the caller's to close,
// as with Node).
func (sn *ShardedNode) Close() {
	for _, s := range sn.shards {
		s.Close()
	}
}

// ShardedLocal is a single-process sharded replica group over a
// ChanTransport, mirroring Local for the multi-worker engine.
type ShardedLocal struct {
	Nodes []*ShardedNode
	Tr    *ChanTransport
}

// NewShardedLocal stands up an n-replica, W-shard Hermes group in-process.
func NewShardedLocal(cfg LocalConfig, shards int) *ShardedLocal {
	ids := make([]proto.NodeID, cfg.N)
	for i := range ids {
		ids[i] = proto.NodeID(i)
	}
	view := proto.View{Epoch: 1, Members: ids}
	tr := NewChanTransport(ids)
	l := &ShardedLocal{Tr: tr}
	for _, id := range ids {
		l.Nodes = append(l.Nodes, NewShardedNode(ShardedConfig{
			ID: id, View: view, MLT: cfg.MLT,
			ElideVAL: cfg.ElideVAL, EarlyACKs: cfg.EarlyACKs, NoLSC: cfg.NoLSC,
			Shards: shards,
		}, tr))
	}
	return l
}

// Close stops all nodes and the transport.
func (l *ShardedLocal) Close() {
	for _, n := range l.Nodes {
		n.Close()
	}
	l.Tr.Close()
}
