package main

import (
	"bufio"
	"encoding/binary"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/refbuf"
	"repro/internal/server"
	"repro/internal/wings"
)

// base is the origin of every timestamp the benchmark takes.
var base = time.Now()

// now is the monotonic time since base, in nanoseconds.
func now() int64 { return int64(time.Since(base)) }

// span is one timed call at a layer boundary. id is the update's tag where
// the layer can see it, 0 otherwise.
type span struct {
	id         uint64
	start, end int64
}

// spanChunk bounds how much a recorder copies when it grows.
const spanChunk = 1 << 14

// recorder keeps one layer's spans in memory until the run ends.
type recorder struct {
	mu     sync.Mutex
	chunks [][]span
}

func (r *recorder) add(id uint64, start, end int64) {
	r.mu.Lock()
	n := len(r.chunks)
	if n == 0 || len(r.chunks[n-1]) == spanChunk {
		r.chunks = append(r.chunks, make([]span, 0, spanChunk))
		n++
	}
	r.chunks[n-1] = append(r.chunks[n-1], span{id: id, start: start, end: end})
	r.mu.Unlock()
}

// durations returns every span's length in nanoseconds.
func (r *recorder) durations() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, c := range r.chunks {
		for _, s := range c {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// tracer wraps the public interfaces of each layer for the traced run. It
// records only while on is set, so set-up and the checks stay out of the
// spans.
type tracer struct {
	on atomic.Bool

	clientDo, readLocal, update, fallback, deliver, send recorder

	// Send-side counts: messages by kind (inside envelopes and batches),
	// envelopes handed to the transport, and their encoded bytes.
	inv, ack, val, other, envelopes, bytes atomic.Int64
	// copyingReads counts reads the server took through the copying
	// ReadLocal; non-zero means the wrapper hid the zero-copy path.
	copyingReads atomic.Int64
}

// layers names the recorders in the order the span file lists them.
func (t *tracer) layers() []struct {
	name string
	r    *recorder
} {
	return []struct {
		name string
		r    *recorder
	}{
		{"client.do", &t.clientDo}, {"cluster.read_local", &t.readLocal},
		{"cluster.update", &t.update}, {"cluster.fallback_read", &t.fallback},
		{"cluster.deliver", &t.deliver}, {"transport.send", &t.send},
	}
}

// do is Client.Do with its time inside the call recorded.
func (t *tracer) do(c *client.Client, o op, fn func(proto.ClientResp, error)) error {
	if t == nil || !t.on.Load() {
		return c.Do(o.kind, o.key, o.val, o.exp, fn)
	}
	start := now()
	err := c.Do(o.kind, o.key, o.val, o.exp, fn)
	t.clientDo.add(o.tag, start, now())
	return err
}

// tracedBackend is the server.Backend the traced run's servers call. It
// forwards ReadLocalRetained so the server keeps its zero-copy read path.
type tracedBackend struct {
	n *cluster.ShardedNode
	t *tracer
}

var _ server.RetainedReader = (*tracedBackend)(nil)

func (b *tracedBackend) ReadLocal(k proto.Key) (proto.Value, bool) {
	b.t.copyingReads.Add(1)
	return b.n.ReadLocal(k)
}

func (b *tracedBackend) ReadLocalRetained(k proto.Key) (proto.Value, *refbuf.Buf, bool) {
	if !b.t.on.Load() {
		return b.n.ReadLocalRetained(k)
	}
	start := now()
	v, owner, ok := b.n.ReadLocalRetained(k)
	b.t.readLocal.add(0, start, now())
	return v, owner, ok
}

func (b *tracedBackend) SubmitAsync(o proto.ClientOp, fn func(proto.Completion)) error {
	if !b.t.on.Load() {
		return b.n.SubmitAsync(o, fn)
	}
	r := &b.t.update
	if o.Kind == proto.OpRead {
		r = &b.t.fallback
	}
	id, start := tagOf(o.Value), now()
	return b.n.SubmitAsync(o, func(c proto.Completion) {
		r.add(id, start, now())
		fn(c)
	})
}

// tracedTransport is the cluster.Transport one replica's ShardedNode runs
// on in the traced run: it times Send and the deliver callback, and counts
// what is sent.
type tracedTransport struct {
	m cluster.Transport
	t *tracer
}

func (tt *tracedTransport) Send(from, to proto.NodeID, msg any) {
	if !tt.t.on.Load() {
		tt.m.Send(from, to, msg)
		return
	}
	tt.t.count(msg)
	tt.t.envelopes.Add(1)
	// Encode before Send: Send consumes the message's value references.
	if frame, err := wings.Encode(msg); err == nil {
		tt.t.bytes.Add(int64(len(frame)))
	}
	var id uint64
	if sm, ok := msg.(proto.ShardMsg); ok {
		if inv, ok := sm.Msg.(core.INV); ok {
			id = tagOf(inv.Value)
		}
	}
	start := now()
	tt.m.Send(from, to, msg)
	tt.t.send.add(id, start, now())
}

func (tt *tracedTransport) SetDeliver(id proto.NodeID, fn func(from proto.NodeID, msg any)) {
	tt.m.SetDeliver(id, func(from proto.NodeID, msg any) {
		if !tt.t.on.Load() {
			fn(from, msg)
			return
		}
		start := now()
		fn(from, msg)
		tt.t.deliver.add(0, start, now())
	})
}

func (tt *tracedTransport) Close() error { return tt.m.Close() }

// count tallies the protocol messages inside one transport envelope.
func (t *tracer) count(msg any) {
	switch m := msg.(type) {
	case proto.ShardBatch:
		for _, sm := range m.Msgs {
			t.count(sm.Msg)
		}
	case proto.ShardMsg:
		t.count(m.Msg)
	case core.INV:
		t.inv.Add(1)
	case core.ACK:
		t.ack.Add(1)
	case core.VAL:
		t.val.Add(1)
	default:
		t.other.Add(1)
	}
}

// writeSpans writes every recorded span to path as fixed 25-byte records:
// layer index (1 byte, in layers() order), id, start and end (ns since the
// process started), little-endian.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var rec [25]byte
	for i, l := range t.layers() {
		l.r.mu.Lock()
		for _, c := range l.r.chunks {
			for _, s := range c {
				rec[0] = byte(i)
				binary.LittleEndian.PutUint64(rec[1:], s.id)
				binary.LittleEndian.PutUint64(rec[9:], uint64(s.start))
				binary.LittleEndian.PutUint64(rec[17:], uint64(s.end))
				w.Write(rec[:])
			}
		}
		l.r.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
