package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/proto"
	"repro/internal/server"
	"repro/internal/transport"
)

// The composition is cmd/hermes-node's, three times in one process, with
// the defaults that binary picks on a 2-CPU host pinned so that every host
// runs the same configuration.
const (
	replicas = 3
	// serving is how many replicas front a server; the rest only replicate.
	serving = 2
	shards  = 2
	mlt     = 50 * time.Millisecond
)

// composition is one running cluster with its servers and client
// connections, conns[i] talking to replica i.
type composition struct {
	meshes []*transport.Mesh
	nodes  []*cluster.ShardedNode
	srvs   []*server.Server
	conns  []*client.Client
	serves sync.WaitGroup
	t      *tracer // nil in the untraced run
}

// standUp builds the cluster, preloads every key and dials the clients.
// With t non-nil every layer boundary is wrapped; with t nil the servers
// and nodes get the ShardedNode and Mesh themselves.
func standUp(sp spec, t *tracer) (*composition, error) {
	c := &composition{t: t}
	if err := c.build(t); err != nil {
		c.close()
		return nil, err
	}
	if err := c.preload(sp); err != nil {
		c.close()
		return nil, err
	}
	for i := 0; i < serving; i++ {
		var b server.Backend = c.nodes[i]
		if t != nil {
			b = &tracedBackend{n: c.nodes[i], t: t}
		}
		srv := server.New(server.Config{Backend: b})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, fmt.Errorf("client listener: %w", err)
		}
		c.srvs = append(c.srvs, srv)
		c.serves.Add(1)
		go func() {
			defer c.serves.Done()
			srv.Serve(ln)
		}()
		cl, err := client.Dial(ln.Addr().String(), client.Config{})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("dial replica %d: %w", i, err)
		}
		c.conns = append(c.conns, cl)
	}
	return c, nil
}

// build starts the meshes and nodes on loopback ports reserved just before.
// A port taken in between fails NewMesh; the whole reservation is retried.
func (c *composition) build(t *tracer) error {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		var addrs map[proto.NodeID]string
		if addrs, err = reservePorts(); err != nil {
			continue
		}
		c.meshes = c.meshes[:0]
		for id := 0; id < replicas && err == nil; id++ {
			var m *transport.Mesh
			if m, err = transport.NewMesh(proto.NodeID(id), addrs); err == nil {
				c.meshes = append(c.meshes, m)
			}
		}
		if err == nil {
			break
		}
		for _, m := range c.meshes {
			m.Close()
		}
		c.meshes = nil
	}
	if err != nil {
		return fmt.Errorf("mesh: %w", err)
	}
	ids := make([]proto.NodeID, replicas)
	for i := range ids {
		ids[i] = proto.NodeID(i)
	}
	for i, m := range c.meshes {
		var tr cluster.Transport = m
		if t != nil {
			tr = &tracedTransport{m: m, t: t}
		}
		c.nodes = append(c.nodes, cluster.NewShardedNode(cluster.ShardedConfig{
			ID: proto.NodeID(i), View: proto.View{Epoch: 1, Members: ids}, MLT: mlt, Shards: shards,
		}, tr))
	}
	return nil
}

func reservePorts() (map[proto.NodeID]string, error) {
	addrs := map[proto.NodeID]string{}
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for id := 0; id < replicas; id++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[proto.NodeID(id)] = ln.Addr().String()
	}
	return addrs, nil
}

// preloadDepth bounds the preload's writes in flight.
const preloadDepth = 512

// preload writes every key's preload value through replica 0.
func (c *composition) preload(sp spec) error {
	sem := make(chan struct{}, preloadDepth)
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for k := proto.Key(0); k < keys; k++ {
		sem <- struct{}{}
		err := c.nodes[0].SubmitAsync(proto.ClientOp{Kind: proto.OpWrite, Key: k, Value: preloadValue(k, sp.valueSize)},
			func(cp proto.Completion) {
				if cp.Status != proto.OK {
					fail(fmt.Errorf("preload key %d: %v", cp.Key, cp.Status))
				}
				<-sem
			})
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	for i := 0; i < preloadDepth; i++ {
		sem <- struct{}{}
	}
	return firstErr
}

// close stops everything the composition started and waits for it.
func (c *composition) close() {
	for _, cl := range c.conns {
		cl.Close()
	}
	for _, s := range c.srvs {
		s.Close()
	}
	c.serves.Wait()
	for _, n := range c.nodes {
		n.Close()
	}
	for _, m := range c.meshes {
		m.Close()
	}
}

// errDiverged is a replica disagreement that outlived the quiesce deadline.
var errDiverged = errors.New("replicas disagree")

// agree waits until every replica holds the same Valid value for each of
// ks and returns those values. Values still in flight (a VAL not yet
// applied) settle within a few message-loss timeouts; past the deadline a
// difference is a correctness failure.
func (c *composition) agree(ks []proto.Key, deadline time.Duration) (map[proto.Key]proto.Value, error) {
	out := make(map[proto.Key]proto.Value, len(ks))
	pending := ks
	stop := time.Now().Add(deadline)
	for {
		var still []proto.Key
		for _, k := range pending {
			if v, ok := c.agreeOn(k); ok {
				out[k] = v
			} else {
				still = append(still, k)
			}
		}
		if len(still) == 0 {
			return out, nil
		}
		if time.Now().After(stop) {
			return nil, fmt.Errorf("%w on %d of %d keys after %v, first key %d", errDiverged, len(still), len(ks), deadline, still[0])
		}
		pending = still
		time.Sleep(20 * time.Millisecond)
	}
}

// agreeOn reads k at every replica and reports the value if all hold it
// Valid and equal.
func (c *composition) agreeOn(k proto.Key) (proto.Value, bool) {
	var first proto.Value
	for i, n := range c.nodes {
		v, owner, ok := n.ReadLocalRetained(k)
		same := ok && (i == 0 || bytes.Equal(v, first))
		if ok && i == 0 {
			first = v.Clone()
		}
		if owner != nil {
			owner.Release()
		}
		if !same {
			return nil, false
		}
	}
	return first, true
}
