package main

import (
	"encoding/binary"
	"math/rand"

	"repro/internal/proto"
	"repro/internal/workload"
)

// keys is the preloaded keyspace of every workload.
const keys = 1 << 16

// spec is one workload: a traffic mix and the fixed rate its open-loop
// phase offers. The rates are constants, never derived from a run, so every
// commit is measured at the same load; BENCHMARK.json states them too.
type spec struct {
	name string
	// updates is the share of ops that are updates; of those, 80% are
	// writes, 10% FAA and 10% CAS.
	updates   float64
	zipf      bool
	valueSize int
	// rate is the open-loop offered load in ops/s over both connections.
	rate float64
	// excluded, when set, is why BENCHMARK.json leaves the workload out.
	// The program still runs it, so the reason can be reproduced.
	excluded string
}

var specs = []spec{
	{name: "read-mostly", updates: 0.05, zipf: true, valueSize: 32, rate: 25000},
	{name: "write-heavy", updates: 0.50, zipf: false, valueSize: 1024, rate: 16000},
	{name: "hot-keys", updates: 0.50, zipf: true, valueSize: 32, rate: 20000,
		excluded: "within half a minute of this traffic a replica's peer link runs out of wings send credits " +
			"and the ops that replica coordinates never complete (see perfbench/README.md)"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// op is one generated client request. tag is unique per run; every update
// value starts with it (an FAA's delta is the tag itself), which is how
// spans of one update are tied together across layers.
type op struct {
	kind     proto.OpKind
	key      proto.Key
	val, exp proto.Value
	tag      uint64
}

// keyspace fixes, per seed, which key each zipf rank lands on and which
// keys the linearizability check samples.
type keyspace struct {
	rankKey []proto.Key
	zipf    *workload.Zipfian
	// sample holds the checked keys; the first hottest of them are the
	// hottest zipf ranks.
	sample []proto.Key
}

const (
	hottest     = 8
	sampleCount = 64
)

func newKeyspace(seed int64) *keyspace {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(keys)
	ks := &keyspace{rankKey: make([]proto.Key, keys), zipf: workload.NewZipfian(keys, 0.99, false)}
	for r, k := range perm {
		ks.rankKey[r] = proto.Key(k)
	}
	// The hottest ranks, then distinct colder ranks chosen by the seed.
	picked := map[int]bool{}
	for r := 0; r < hottest; r++ {
		picked[r] = true
		ks.sample = append(ks.sample, ks.rankKey[r])
	}
	for len(ks.sample) < sampleCount {
		r := hottest + rng.Intn(keys-hottest)
		if !picked[r] {
			picked[r] = true
			ks.sample = append(ks.sample, ks.rankKey[r])
		}
	}
	return ks
}

// preloadValue is key k's value before any client op: deterministic, so the
// CAS comparand below can name it without reading the store.
func preloadValue(k proto.Key, size int) proto.Value {
	return taggedValue(1<<63|uint64(k), size)
}

// taggedValue is size bytes starting with tag, the rest filled from it.
func taggedValue(tag uint64, size int) proto.Value {
	v := make(proto.Value, size)
	binary.LittleEndian.PutUint64(v, tag)
	for i := 8; i < size; i++ {
		v[i] = byte(tag >> (8 * (i % 8)))
	}
	return v
}

// tagOf reads the tag an update value starts with; 0 if it has none.
func tagOf(v proto.Value) uint64 {
	if len(v) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

// generator produces one connection's op stream. The stream is a pure
// function of the seed and the connection index.
type generator struct {
	sp   spec
	ks   *keyspace
	rng  *rand.Rand
	conn uint64
	seq  uint64
}

func newGenerator(sp spec, ks *keyspace, seed int64, conn int) *generator {
	return &generator{sp: sp, ks: ks, rng: rand.New(rand.NewSource(seed*31 + int64(conn) + 1)), conn: uint64(conn)}
}

func (g *generator) next() op {
	g.seq++
	var key proto.Key
	if g.sp.zipf {
		key = g.ks.rankKey[g.ks.zipf.Rank(g.rng)]
	} else {
		key = proto.Key(g.rng.Intn(keys))
	}
	tag := (g.conn+1)<<48 | g.seq
	if g.rng.Float64() >= g.sp.updates {
		return op{kind: proto.OpRead, key: key, tag: tag}
	}
	switch u := g.rng.Float64(); {
	case u < 0.8:
		return op{kind: proto.OpWrite, key: key, val: taggedValue(tag, g.sp.valueSize), tag: tag}
	case u < 0.9:
		return op{kind: proto.OpFAA, key: key, val: proto.EncodeInt64(int64(tag)), tag: tag}
	default:
		// The comparand is the key's preload value, so a CAS succeeds on a
		// key no update has touched yet and fails, reporting what it saw,
		// afterwards.
		return op{kind: proto.OpCAS, key: key, val: taggedValue(tag, g.sp.valueSize),
			exp: preloadValue(key, g.sp.valueSize), tag: tag}
	}
}
