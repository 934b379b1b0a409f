// Package membership implements the reliable membership (RM) substrate that
// membership-based protocols like Hermes depend on (paper §2.4): a stable,
// lease-guarded view of live nodes maintained in the style of Vertical
// Paxos / virtual synchrony. Each node runs an Agent that
//
//   - exchanges heartbeats and suspects silent peers,
//   - holds a lease: a node is operational only while it has heard from a
//     majority recently, so replicas on the minority side of a partition
//     stop serving before the membership can change (CAP §3.4),
//   - reconfigures the view (an "m-update": new member list + incremented
//     epoch_id) through single-decree Paxos among the *configured* node set,
//     so only a primary partition with a majority can decide, and
//   - only proposes removal after the suspect's lease must have expired,
//     masking false positives of unreliable failure detection.
//
// The Agent is a deterministic state machine with the same Env/Tick shape as
// the protocols, so it runs under both the simulator and the live runtime.
package membership

import (
	"sort"
	"time"

	"repro/internal/proto"
	"repro/internal/shardhost"
)

// --- Messages ---

// Heartbeat announces liveness and the sender's current epoch; a receiver
// that sees a higher epoch asks for the committed view. ShardEpochs gossips
// the sender's per-shard membership epoch vector (Config.Epochs) so a node
// whose individual shards lag the cluster — invisible in the node-level
// Epoch — can detect its own gap and fast-forward without an operator
// (Config.OnPeerAhead). Empty when the host has no per-shard epochs.
type Heartbeat struct {
	Epoch       uint32
	ShardEpochs []uint32
}

// ViewReq asks a more up-to-date peer for its committed view.
type ViewReq struct{}

// ViewCommit publishes a decided view. Idempotent; receivers install it iff
// the epoch advances.
type ViewCommit struct {
	View proto.View
}

// Prepare is Paxos phase 1a for the consensus instance deciding epoch
// View.Epoch (carried in Ballot's instance field).
type Prepare struct {
	Instance uint32 // the epoch being decided
	Ballot   uint64
}

// Promise is Paxos phase 1b.
type Promise struct {
	Instance uint32
	Ballot   uint64
	// Previously accepted proposal, if any.
	AcceptedBallot uint64
	AcceptedView   proto.View
	HasAccepted    bool
}

// Accept is Paxos phase 2a.
type Accept struct {
	Instance uint32
	Ballot   uint64
	View     proto.View
}

// Accepted is Paxos phase 2b.
type Accepted struct {
	Instance uint32
	Ballot   uint64
}

// IsMsg reports whether m is a membership-layer message; hosts use it to
// route traffic between the Agent and the replication protocol.
func IsMsg(m any) bool {
	switch m.(type) {
	case Heartbeat, ViewReq, ViewCommit, Prepare, Promise, Accept, Accepted:
		return true
	}
	return false
}

// --- Agent ---

// Config parameterizes an Agent.
type Config struct {
	ID proto.NodeID
	// All is the full configured node set: the Paxos acceptor group. The
	// replica group (view) is always a subset. Quorums are majorities of
	// All, which is what confines m-updates to the primary partition.
	All []proto.NodeID
	// Initial is the starting view.
	Initial proto.View
	// Env is the message/time interface (shared with the protocol host).
	Env proto.Env
	// HeartbeatEvery is the heartbeat period.
	HeartbeatEvery time.Duration
	// SuspectAfter is the silence threshold for suspecting a member.
	SuspectAfter time.Duration
	// LeaseDur is the membership lease duration: reconfiguration waits an
	// extra LeaseDur after suspicion so the suspect has provably stopped
	// serving (its lease expired) before it is removed.
	LeaseDur time.Duration
	// OnView is invoked whenever a new view is installed.
	OnView func(proto.View)
	// OnLease is invoked when this node's operational status changes.
	OnLease func(ok bool)
	// Epochs, when set, supplies the host's per-shard membership epoch
	// vector; it is attached to every outgoing heartbeat (epoch gossip).
	Epochs func() []uint32
	// OnPeerAhead is invoked when an incoming heartbeat's shard-epoch vector
	// shows the sender strictly ahead of this host on some shard (compared
	// against Epochs()). The hook owns debouncing and the actual
	// fast-forward; the agent only detects the lag.
	OnPeerAhead func(from proto.NodeID, epochs []uint32)
}

// instance is one single-decree Paxos consensus (deciding one epoch).
type instance struct {
	promised       uint64
	acceptedBallot uint64
	acceptedView   proto.View
	hasAccepted    bool
}

// proposal tracks this node's in-flight proposal.
type proposal struct {
	instance uint32
	ballot   uint64
	view     proto.View
	promises map[proto.NodeID]Promise
	accepts  map[proto.NodeID]bool
	phase    int // 1 = awaiting promises, 2 = awaiting accepts
	deadline time.Duration
}

// Agent is one node's reliable-membership state machine.
type Agent struct {
	cfg  Config
	id   proto.NodeID
	env  proto.Env
	view proto.View

	lastHeard map[proto.NodeID]time.Duration
	lastBeat  time.Duration
	leaseOK   bool

	instances map[uint32]*instance
	prop      *proposal
	ballotGen uint64

	// vlog is the bounded view log (node-wide entries): every view this
	// agent has installed, in ascending epoch order. A node or shard that
	// skipped epochs replays the gap from a peer's log (proto.ViewLogReq)
	// instead of wedging on the <=-epoch install guard.
	vlog shardhost.ViewLog
	// redelivered counts installs dropped by the <=-epoch guard: duplicate
	// deliveries of the current view (a lossy wire redelivers ViewCommits)
	// and stale ones. Redelivery stays idempotent — OnView never re-fires —
	// but is observable here.
	redelivered uint64
}

// New builds an Agent. The caller must invoke Tick periodically and route
// membership messages to Deliver.
func New(cfg Config) *Agent {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 10 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 5 * cfg.HeartbeatEvery
	}
	if cfg.LeaseDur <= 0 {
		cfg.LeaseDur = 2 * cfg.SuspectAfter
	}
	a := &Agent{
		cfg:       cfg,
		id:        cfg.ID,
		env:       cfg.Env,
		view:      cfg.Initial.Clone(),
		lastHeard: make(map[proto.NodeID]time.Duration),
		instances: make(map[uint32]*instance),
		leaseOK:   true,
	}
	// Give peers a full suspicion window from the start.
	for _, n := range cfg.All {
		a.lastHeard[n] = a.env.Now()
	}
	a.vlog.Record(proto.MUpdate{Shard: proto.AllShards, View: a.view})
	return a
}

// View returns the current committed view.
func (a *Agent) View() proto.View { return a.view }

// Operational reports whether this node's lease is valid: it has heard from
// a majority of the configured nodes within the lease window. On the
// minority side of a partition this goes false before any m-update can
// complete on the majority side.
func (a *Agent) Operational() bool { return a.leaseOK }

func (a *Agent) quorum() int { return len(a.cfg.All)/2 + 1 }

// Tick drives heartbeats, failure detection, lease evaluation and proposal
// retries.
func (a *Agent) Tick() {
	now := a.env.Now()
	if now-a.lastBeat >= a.cfg.HeartbeatEvery {
		a.lastBeat = now
		hb := Heartbeat{Epoch: a.view.Epoch}
		if a.cfg.Epochs != nil {
			hb.ShardEpochs = a.cfg.Epochs()
		}
		for _, n := range a.cfg.All {
			if n != a.id {
				a.env.Send(n, hb)
			}
		}
	}
	a.evalLease(now)
	a.maybePropose(now)
	if a.prop != nil && now >= a.prop.deadline {
		// Stalled proposal (duel or loss): retry with a higher ballot.
		v := a.prop.view
		inst := a.prop.instance
		a.prop = nil
		a.startProposal(inst, v, now)
	}
}

func (a *Agent) evalLease(now time.Duration) {
	heard := 1 // self
	for _, n := range a.cfg.All {
		if n == a.id {
			continue
		}
		if now-a.lastHeard[n] <= a.cfg.LeaseDur {
			heard++
		}
	}
	ok := heard >= a.quorum()
	if ok != a.leaseOK {
		a.leaseOK = ok
		if a.cfg.OnLease != nil {
			a.cfg.OnLease(ok)
		}
	}
}

// maybePropose starts a reconfiguration once a *view member* has been silent
// past suspicion plus lease expiry. Proposal initiation is staggered by the
// proposer's rank among live members to avoid duels (ballots still make
// duels safe, just slower).
func (a *Agent) maybePropose(now time.Duration) {
	if a.prop != nil || !a.leaseOK {
		return
	}
	var dead []proto.NodeID
	var oldest time.Duration
	for _, n := range a.view.Members {
		if n == a.id {
			continue
		}
		silent := now - a.lastHeard[n]
		if silent >= a.cfg.SuspectAfter+a.cfg.LeaseDur {
			dead = append(dead, n)
			if silent > oldest {
				oldest = silent
			}
		}
	}
	if len(dead) == 0 {
		return
	}
	// Keep a majority of the configured set: shrinking below that would
	// deadlock future reconfigurations; at that point the deployment needs
	// operator intervention anyway.
	if len(a.view.Members)-len(dead) < 1 {
		return
	}
	// Stagger: rank 0 among surviving members proposes immediately; rank r
	// waits r extra suspicion windows.
	rank := 0
	for _, n := range a.view.Members {
		if contains(dead, n) {
			continue
		}
		if n < a.id {
			rank++
		}
	}
	if oldest < a.cfg.SuspectAfter+a.cfg.LeaseDur+time.Duration(rank)*a.cfg.SuspectAfter {
		return
	}
	next := a.view.Clone()
	next.Epoch++
	next.Members = without(next.Members, dead)
	next.Learners = without(next.Learners, dead)
	a.startProposal(next.Epoch, next, now)
}

// ProposeView lets an operator (or the join tool) reconfigure explicitly:
// e.g. add a learner, or promote a caught-up learner to member.
func (a *Agent) ProposeView(members, learners []proto.NodeID) {
	next := proto.View{Epoch: a.view.Epoch + 1,
		Members:  append([]proto.NodeID(nil), members...),
		Learners: append([]proto.NodeID(nil), learners...)}
	sort.Slice(next.Members, func(i, j int) bool { return next.Members[i] < next.Members[j] })
	sort.Slice(next.Learners, func(i, j int) bool { return next.Learners[i] < next.Learners[j] })
	a.startProposal(next.Epoch, next, a.env.Now())
}

func (a *Agent) startProposal(inst uint32, v proto.View, now time.Duration) {
	if inst <= a.view.Epoch {
		return // already decided
	}
	a.ballotGen++
	b := a.ballotGen<<8 | uint64(a.id)
	a.prop = &proposal{
		instance: inst, ballot: b, view: v,
		promises: make(map[proto.NodeID]Promise),
		accepts:  make(map[proto.NodeID]bool),
		phase:    1,
		deadline: now + 4*a.cfg.HeartbeatEvery,
	}
	for _, n := range a.cfg.All {
		if n == a.id {
			a.onPrepare(a.id, Prepare{Instance: inst, Ballot: b})
		} else {
			a.env.Send(n, Prepare{Instance: inst, Ballot: b})
		}
	}
}

// Deliver routes a membership message.
func (a *Agent) Deliver(from proto.NodeID, msg any) {
	switch t := msg.(type) {
	case Heartbeat:
		a.onHeartbeat(from, t)
	case ViewReq:
		a.env.Send(from, ViewCommit{View: a.view})
	case ViewCommit:
		a.install(t.View)
	case Prepare:
		a.onPrepare(from, t)
	case Promise:
		a.onPromise(from, t)
	case Accept:
		a.onAccept(from, t)
	case Accepted:
		a.onAccepted(from, t)
	default:
		panic("membership: unknown message type")
	}
}

func (a *Agent) onHeartbeat(from proto.NodeID, hb Heartbeat) {
	a.lastHeard[from] = a.env.Now()
	if hb.Epoch > a.view.Epoch {
		a.env.Send(from, ViewReq{})
	}
	if a.cfg.OnPeerAhead == nil || a.cfg.Epochs == nil || len(hb.ShardEpochs) == 0 {
		return
	}
	// Per-shard lag detection: the node-level epoch check above cannot see a
	// single shard stuck behind (the agent's view may match while a shard
	// missed its install). Compare vectors elementwise; a peer ahead anywhere
	// hands the whole vector to the hook.
	mine := a.cfg.Epochs()
	for i, e := range hb.ShardEpochs {
		if i >= len(mine) {
			break
		}
		if e > mine[i] {
			a.cfg.OnPeerAhead(from, hb.ShardEpochs)
			return
		}
	}
}

func (a *Agent) inst(i uint32) *instance {
	in := a.instances[i]
	if in == nil {
		in = &instance{}
		a.instances[i] = in
	}
	return in
}

func (a *Agent) onPrepare(from proto.NodeID, p Prepare) {
	if p.Instance <= a.view.Epoch {
		// Already decided: help the laggard proposer catch up.
		a.send(from, ViewCommit{View: a.view})
		return
	}
	in := a.inst(p.Instance)
	if p.Ballot < in.promised {
		return // silent reject; proposer retries with a higher ballot
	}
	in.promised = p.Ballot
	a.send(from, Promise{
		Instance: p.Instance, Ballot: p.Ballot,
		AcceptedBallot: in.acceptedBallot, AcceptedView: in.acceptedView,
		HasAccepted: in.hasAccepted,
	})
}

func (a *Agent) onPromise(from proto.NodeID, p Promise) {
	pr := a.prop
	if pr == nil || pr.phase != 1 || p.Instance != pr.instance || p.Ballot != pr.ballot {
		return
	}
	pr.promises[from] = p
	if len(pr.promises) < a.quorum() {
		return
	}
	// Paxos safety: adopt the highest-ballot previously accepted value.
	var best *Promise
	for _, prm := range pr.promises {
		prm := prm
		if prm.HasAccepted && (best == nil || prm.AcceptedBallot > best.AcceptedBallot) {
			best = &prm
		}
	}
	if best != nil {
		pr.view = best.AcceptedView
	}
	pr.phase = 2
	for _, n := range a.cfg.All {
		msg := Accept{Instance: pr.instance, Ballot: pr.ballot, View: pr.view}
		if n == a.id {
			a.onAccept(a.id, msg)
		} else {
			a.env.Send(n, msg)
		}
	}
}

func (a *Agent) onAccept(from proto.NodeID, ac Accept) {
	if ac.Instance <= a.view.Epoch {
		a.send(from, ViewCommit{View: a.view})
		return
	}
	in := a.inst(ac.Instance)
	if ac.Ballot < in.promised {
		return
	}
	in.promised = ac.Ballot
	in.acceptedBallot = ac.Ballot
	in.acceptedView = ac.View
	in.hasAccepted = true
	a.send(from, Accepted{Instance: ac.Instance, Ballot: ac.Ballot})
}

func (a *Agent) onAccepted(from proto.NodeID, ac Accepted) {
	pr := a.prop
	if pr == nil || pr.phase != 2 || ac.Instance != pr.instance || ac.Ballot != pr.ballot {
		return
	}
	pr.accepts[from] = true
	if len(pr.accepts) < a.quorum() {
		return
	}
	// Decided: commit everywhere (including any node outside the new view,
	// so removed nodes learn they are out).
	decided := pr.view
	a.prop = nil
	for _, n := range a.cfg.All {
		if n != a.id {
			a.env.Send(n, ViewCommit{View: decided})
		}
	}
	a.install(decided)
}

// send delivers locally when from == self (Paxos self-messaging), otherwise
// over the network.
func (a *Agent) send(to proto.NodeID, msg any) {
	if to == a.id {
		a.Deliver(a.id, msg)
		return
	}
	a.env.Send(to, msg)
}

// ViewLog returns the retained views with epochs strictly above since, in
// ascending epoch order (cloned; callers may hold them across installs).
// This is what a peer serves to a rejoining or lagging node so it can
// replay the epochs it missed.
func (a *Agent) ViewLog(since uint32) []proto.View {
	var out []proto.View
	for _, mu := range a.vlog.Serve(proto.ViewLogReq{Shard: proto.AllShards, Since: since}) {
		out = append(out, mu.View.Clone())
	}
	return out
}

// Redelivered reports how many installs the <=-epoch guard dropped —
// duplicate or stale ViewCommit deliveries. Redelivery is idempotent (OnView
// fires once per epoch) but must not be invisible: a rising counter under a
// steady view is how operators see a peer stuck re-sending.
func (a *Agent) Redelivered() uint64 { return a.redelivered }

// Proposing reports whether this agent has a reconfiguration proposal in
// flight (phase 1 or 2 of its Paxos instance).
func (a *Agent) Proposing() bool { return a.prop != nil }

func (a *Agent) install(v proto.View) {
	if v.Epoch <= a.view.Epoch {
		a.redelivered++
		return
	}
	a.view = v.Clone()
	a.vlog.Record(proto.MUpdate{Shard: proto.AllShards, View: a.view})
	// Drop consensus state for decided instances.
	for i := range a.instances {
		if i <= v.Epoch {
			delete(a.instances, i)
		}
	}
	if a.prop != nil && a.prop.instance <= v.Epoch {
		a.prop = nil
	}
	if a.cfg.OnView != nil {
		a.cfg.OnView(a.view)
	}
}

func contains(ns []proto.NodeID, x proto.NodeID) bool {
	for _, n := range ns {
		if n == x {
			return true
		}
	}
	return false
}

// without returns ns minus drop in a freshly allocated slice. It must not
// write through ns: callers pass live view member lists (and cfg.All), and
// the previous `ns[:0]` in-place filter silently corrupted the caller's
// slice whenever a proposal dropped nodes.
func without(ns, drop []proto.NodeID) []proto.NodeID {
	out := make([]proto.NodeID, 0, len(ns))
	for _, n := range ns {
		if !contains(drop, n) {
			out = append(out, n)
		}
	}
	return out
}
