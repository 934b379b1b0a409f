package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/proto"
)

// shardedMeshGroup stands up n live W-shard Hermes replicas over loopback
// TCP. Every replication message crosses the wire inside a ShardMsg
// envelope under the wings credit discipline.
func shardedMeshGroup(t *testing.T, n, w int) ([]*cluster.ShardedNode, []*Mesh, func()) {
	t.Helper()
	addrs := make(map[proto.NodeID]string)
	meshes := make([]*Mesh, n)
	for i := 0; i < n; i++ {
		m, err := NewMesh(proto.NodeID(i), map[proto.NodeID]string{proto.NodeID(i): "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		meshes[i] = m
		addrs[proto.NodeID(i)] = m.Addr()
	}
	for _, m := range meshes {
		m.addrs = addrs
	}
	members := make([]proto.NodeID, n)
	for i := range members {
		members[i] = proto.NodeID(i)
	}
	view := proto.View{Epoch: 1, Members: members}
	nodes := make([]*cluster.ShardedNode, n)
	for i := 0; i < n; i++ {
		nodes[i] = cluster.NewShardedNode(cluster.ShardedConfig{
			ID: proto.NodeID(i), View: view, MLT: 50 * time.Millisecond, Shards: w,
		}, meshes[i])
	}
	return nodes, meshes, func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for _, m := range meshes {
			m.Close()
		}
	}
}

func TestShardMsgOverTCP(t *testing.T) {
	const w = 4
	nodes, _, done := shardedMeshGroup(t, 3, w)
	defer done()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Touch every shard from every coordinator; converge everywhere.
	for i := 0; i < 4*w; i++ {
		k := proto.Key(i + 1)
		val := proto.Value(fmt.Sprintf("v%d", i))
		if err := nodes[i%3].Write(ctx, k, val); err != nil {
			t.Fatalf("write %d (shard %d): %v", i, proto.ShardOf(k, w), err)
		}
		for _, n := range nodes {
			got, err := n.Read(ctx, k)
			if err != nil || string(got) != string(val) {
				t.Fatalf("node %d key %d: %q %v", n.ID(), k, got, err)
			}
		}
	}
}

// TestShardMsgTCPConcurrentWriters drives enough shard-tagged traffic
// through the links to exercise batching and the credit window, from
// concurrent writers on every node.
func TestShardMsgTCPConcurrentWriters(t *testing.T) {
	const w = 4
	nodes, _, done := shardedMeshGroup(t, 3, w)
	defer done()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for ni, n := range nodes {
		wg.Add(1)
		go func(ni int, n *cluster.ShardedNode) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				k := proto.Key(j%16 + 1)
				if err := n.Write(ctx, k, proto.Value(fmt.Sprintf("n%d-%d", ni, j))); err != nil {
					t.Errorf("node %d write %d: %v", ni, j, err)
					return
				}
			}
		}(ni, n)
	}
	wg.Wait()
	for k := proto.Key(1); k <= 16; k++ {
		ref, err := nodes[0].Read(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes[1:] {
			v, err := n.Read(ctx, k)
			if err != nil || string(v) != string(ref) {
				t.Fatalf("divergence on key %d: node %d has %q, node 0 has %q (%v)",
					k, n.ID(), v, ref, err)
			}
		}
	}
}

// TestShardMsgTCPReconnect kills one replica's mesh mid-run and restarts it
// on the same address: the peers' links die, lazy redial plus the shard
// engines' retransmission finish subsequent writes.
func TestShardMsgTCPReconnect(t *testing.T) {
	const w = 2
	nodes, meshes, done := shardedMeshGroup(t, 2, w)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := nodes[0].Write(ctx, 1, proto.Value("before")); err != nil {
		done()
		t.Fatal(err)
	}

	// Crash-restart node 1's transport and engine on the same port.
	addr1 := meshes[1].Addr()
	nodes[1].Close()
	meshes[1].Close()
	addrs := map[proto.NodeID]string{0: meshes[0].Addr(), 1: addr1}
	var mesh1b *Mesh
	var err error
	for i := 0; i < 50; i++ { // the freed port can linger briefly
		mesh1b, err = NewMesh(1, addrs)
		if err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		done()
		t.Fatalf("rebind %s: %v", addr1, err)
	}
	view := proto.View{Epoch: 1, Members: []proto.NodeID{0, 1}}
	node1b := cluster.NewShardedNode(cluster.ShardedConfig{
		ID: 1, View: view, MLT: 50 * time.Millisecond, Shards: w,
	}, mesh1b)
	defer func() {
		node1b.Close()
		mesh1b.Close()
		nodes[0].Close()
		meshes[0].Close()
	}()

	// Writes on both shards commit across the re-established links.
	for k := proto.Key(2); k <= 5; k++ {
		if err := nodes[0].Write(ctx, k, proto.Value("after")); err != nil {
			t.Fatalf("write key %d after reconnect: %v", k, err)
		}
		if v, err := node1b.Read(ctx, k); err != nil || string(v) != "after" {
			t.Fatalf("restarted node read key %d: %q %v", k, v, err)
		}
	}
}

// TestLostRMWsDoNotWedgeLinks: two coordinators FAA one hot key until more
// than a credit window's worth of RMWs have lost. A follower answers every
// losing RMW INV; that answer must be a response, which repays the credit
// the INV spent. An answer that repays nothing leaks one credit per lost
// RMW, and after one window (1024) the link wedges: the FAAs behind it
// time out.
func TestLostRMWsDoNotWedgeLinks(t *testing.T) {
	nodes, _, done := shardedMeshGroup(t, 3, 2)
	defer done()
	const key = proto.Key(7)
	lostWant := int64(2 * DefaultLinkConfig().Credits)
	deadline := time.Now().Add(90 * time.Second)

	var lost, committed atomic.Int64
	var stop atomic.Bool
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for _, n := range nodes[:2] {
		wg.Add(1)
		go func(n *cluster.ShardedNode) {
			defer wg.Done()
			for !stop.Load() && lost.Load() < lostWant && time.Now().Before(deadline) {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				_, err := n.FAA(ctx, key, 1)
				cancel()
				switch {
				case err == nil:
					committed.Add(1)
				case errors.Is(err, cluster.ErrAborted):
					lost.Add(1)
				default:
					stop.Store(true)
					errs <- fmt.Errorf("node %d: FAA stalled after %d lost / %d committed RMWs: %v",
						n.ID(), lost.Load(), committed.Load(), err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if lost.Load() < lostWant {
		t.Fatalf("only %d RMWs lost before the deadline (%d committed), want %d", lost.Load(), committed.Load(), lostWant)
	}
	// The counter holds exactly the committed increments, on every node.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range nodes {
		prior, err := n.FAA(ctx, key, 0)
		if err != nil || prior != committed.Load() {
			t.Fatalf("node %d: counter %d (%v), want %d committed increments", n.ID(), prior, err, committed.Load())
		}
	}
}
