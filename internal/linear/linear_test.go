package linear

import (
	"testing"
	"time"

	"repro/internal/proto"
)

func v(s string) proto.Value { return proto.Value(s) }

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestEmptyHistoryIsLinearizable(t *testing.T) {
	if res := CheckRegister(nil); !res.OK {
		t.Fatal("empty history rejected")
	}
}

func TestSequentialHistoryOK(t *testing.T) {
	ops := []Op{
		{ID: 1, Kind: KWrite, Arg: v("a"), Invoke: ms(0), Return: ms(1)},
		{ID: 2, Kind: KRead, Out: v("a"), Invoke: ms(2), Return: ms(3)},
		{ID: 3, Kind: KWrite, Arg: v("b"), Invoke: ms(4), Return: ms(5)},
		{ID: 4, Kind: KRead, Out: v("b"), Invoke: ms(6), Return: ms(7)},
	}
	if res := CheckRegister(ops); !res.OK {
		t.Fatalf("sequential history rejected: %s", res.Info)
	}
}

func TestStaleReadRejected(t *testing.T) {
	ops := []Op{
		{ID: 1, Kind: KWrite, Arg: v("a"), Invoke: ms(0), Return: ms(1)},
		{ID: 2, Kind: KWrite, Arg: v("b"), Invoke: ms(2), Return: ms(3)},
		// Read strictly after both writes returns the old value: not lin.
		{ID: 3, Kind: KRead, Out: v("a"), Invoke: ms(4), Return: ms(5)},
	}
	if res := CheckRegister(ops); res.OK {
		t.Fatal("stale read accepted")
	}
}

func TestConcurrentWriteReadEitherValueOK(t *testing.T) {
	// A read overlapping a write may return old or new.
	for _, out := range []string{"", "n"} {
		ops := []Op{
			{ID: 1, Kind: KWrite, Arg: v("n"), Invoke: ms(0), Return: ms(10)},
			{ID: 2, Kind: KRead, Out: v(out), Invoke: ms(2), Return: ms(8)},
		}
		if res := CheckRegister(ops); !res.OK {
			t.Fatalf("overlapping read of %q rejected: %s", out, res.Info)
		}
	}
}

func TestReadMustNotTravelBackwards(t *testing.T) {
	// Two sequential reads during one long write: once the second read sees
	// the new value, a LATER read may not see the old one.
	ops := []Op{
		{ID: 1, Kind: KWrite, Arg: v("n"), Invoke: ms(0), Return: ms(100)},
		{ID: 2, Kind: KRead, Out: v("n"), Invoke: ms(10), Return: ms(20)},
		{ID: 3, Kind: KRead, Out: v(""), Invoke: ms(30), Return: ms(40)},
	}
	if res := CheckRegister(ops); res.OK {
		t.Fatal("non-monotone reads accepted")
	}
}

func TestPendingWriteMayOrMayNotApply(t *testing.T) {
	// A write whose client crashed may be observed...
	ops := []Op{
		{ID: 1, Kind: KWrite, Arg: v("x"), Invoke: ms(0), Return: Pending},
		{ID: 2, Kind: KRead, Out: v("x"), Invoke: ms(5), Return: ms(6)},
	}
	if res := CheckRegister(ops); !res.OK {
		t.Fatalf("pending write observed rejected: %s", res.Info)
	}
	// ...or never take effect.
	ops[1].Out = v("")
	if res := CheckRegister(ops); !res.OK {
		t.Fatalf("pending write unobserved rejected: %s", res.Info)
	}
}

func TestPendingWriteCannotFlipFlop(t *testing.T) {
	// Observed then unobserved: violation even though the write is pending.
	ops := []Op{
		{ID: 1, Kind: KWrite, Arg: v("x"), Invoke: ms(0), Return: Pending},
		{ID: 2, Kind: KRead, Out: v("x"), Invoke: ms(5), Return: ms(6)},
		{ID: 3, Kind: KRead, Out: v(""), Invoke: ms(7), Return: ms(8)},
	}
	if res := CheckRegister(ops); res.OK {
		t.Fatal("flip-flopping pending write accepted")
	}
}

func TestFAASemantics(t *testing.T) {
	d := proto.EncodeInt64
	ops := []Op{
		{ID: 1, Kind: KFAA, Arg: d(5), Out: v(""), Invoke: ms(0), Return: ms(1)},
		{ID: 2, Kind: KFAA, Arg: d(3), Out: d(5), Invoke: ms(2), Return: ms(3)},
		{ID: 3, Kind: KRead, Out: d(8), Invoke: ms(4), Return: ms(5)},
	}
	if res := CheckRegister(ops); !res.OK {
		t.Fatalf("FAA chain rejected: %s", res.Info)
	}
	// Wrong old value.
	ops[1].Out = d(4)
	if res := CheckRegister(ops); res.OK {
		t.Fatal("FAA with wrong prior accepted")
	}
}

func TestConcurrentFAAsMustSerialize(t *testing.T) {
	d := proto.EncodeInt64
	// Two concurrent FAA(1) both reporting prior 0: lost update.
	ops := []Op{
		{ID: 1, Kind: KFAA, Arg: d(1), Out: v(""), Invoke: ms(0), Return: ms(10)},
		{ID: 2, Kind: KFAA, Arg: d(1), Out: v(""), Invoke: ms(1), Return: ms(9)},
	}
	if res := CheckRegister(ops); res.OK {
		t.Fatal("lost update accepted")
	}
	// Correct serialization: one sees 0, the other 1.
	ops[1].Out = d(1)
	if res := CheckRegister(ops); !res.OK {
		t.Fatalf("serialized FAAs rejected: %s", res.Info)
	}
}

func TestCASSemantics(t *testing.T) {
	ops := []Op{
		{ID: 1, Kind: KWrite, Arg: v("a"), Invoke: ms(0), Return: ms(1)},
		{ID: 2, Kind: KCASOk, Exp: v("a"), Arg: v("b"), Invoke: ms(2), Return: ms(3)},
		{ID: 3, Kind: KCASFail, Exp: v("a"), Out: v("b"), Invoke: ms(4), Return: ms(5)},
		{ID: 4, Kind: KRead, Out: v("b"), Invoke: ms(6), Return: ms(7)},
	}
	if res := CheckRegister(ops); !res.OK {
		t.Fatalf("CAS chain rejected: %s", res.Info)
	}
	// A CAS-ok that could not have matched.
	bad := []Op{
		{ID: 1, Kind: KWrite, Arg: v("a"), Invoke: ms(0), Return: ms(1)},
		{ID: 2, Kind: KCASOk, Exp: v("z"), Arg: v("b"), Invoke: ms(2), Return: ms(3)},
	}
	if res := CheckRegister(bad); res.OK {
		t.Fatal("impossible CAS-ok accepted")
	}
	// A CAS-fail that should have succeeded.
	bad2 := []Op{
		{ID: 1, Kind: KWrite, Arg: v("a"), Invoke: ms(0), Return: ms(1)},
		{ID: 2, Kind: KCASFail, Exp: v("a"), Out: v("a"), Invoke: ms(2), Return: ms(3)},
	}
	if res := CheckRegister(bad2); res.OK {
		t.Fatal("impossible CAS-fail accepted")
	}
}

func TestDeepConcurrencySearch(t *testing.T) {
	// Many overlapping writes with a read that matches only one specific
	// linearization: the search must find it.
	ops := []Op{
		{ID: 1, Kind: KWrite, Arg: v("a"), Invoke: ms(0), Return: ms(100)},
		{ID: 2, Kind: KWrite, Arg: v("b"), Invoke: ms(0), Return: ms(100)},
		{ID: 3, Kind: KWrite, Arg: v("c"), Invoke: ms(0), Return: ms(100)},
		{ID: 4, Kind: KWrite, Arg: v("d"), Invoke: ms(0), Return: ms(100)},
		{ID: 5, Kind: KRead, Out: v("c"), Invoke: ms(50), Return: ms(60)},
		{ID: 6, Kind: KRead, Out: v("a"), Invoke: ms(70), Return: ms(80)},
	}
	if res := CheckRegister(ops); !res.OK {
		t.Fatalf("valid deep interleaving rejected: %s", res.Info)
	}
	// Now force a contradiction: after reading "c" then "a", a third read
	// in sequence sees "c" again while no more writes overlap it.
	ops = append(ops, Op{ID: 7, Kind: KRead, Out: v("e"), Invoke: ms(200), Return: ms(201)})
	if res := CheckRegister(ops); res.OK {
		t.Fatal("read of never-written value accepted")
	}
}

func TestHistoryRecorder(t *testing.T) {
	h := NewHistory()
	h.Invoke(1, 5, KWrite, v("x"), nil, ms(0))
	h.Return(1, KWrite, nil, ms(1))
	h.Invoke(2, 5, KRead, nil, nil, ms(2))
	h.Return(2, KRead, v("x"), ms(3))
	h.Invoke(3, 5, KWrite, v("crashed"), nil, ms(4))
	h.Invoke(4, 9, KFAA, proto.EncodeInt64(1), nil, ms(0))
	h.Discard(4) // aborted: provably never applied
	h.Close()

	keys := h.Keys()
	if len(keys) != 1 || keys[0] != 5 {
		t.Fatalf("keys=%v", keys)
	}
	ops := h.Ops(5)
	if len(ops) != 3 {
		t.Fatalf("%d ops", len(ops))
	}
	if _, _, ok := h.CheckAll(); !ok {
		t.Fatal("recorded history rejected")
	}
}

func TestCheckAllFindsViolatingKey(t *testing.T) {
	h := NewHistory()
	h.Invoke(1, 1, KWrite, v("a"), nil, ms(0))
	h.Return(1, KWrite, nil, ms(1))
	h.Invoke(2, 1, KRead, nil, nil, ms(2))
	h.Return(2, KRead, v("WRONG"), ms(3))
	h.Close()
	k, res, ok := h.CheckAll()
	if ok || k != 1 || res.OK {
		t.Fatalf("violation not found: key=%d res=%+v ok=%v", k, res, ok)
	}
}

func TestReturnWithoutInvokeIgnored(t *testing.T) {
	h := NewHistory()
	h.Return(99, KRead, v("x"), ms(1)) // no such invocation
	h.Close()
	if len(h.Keys()) != 0 {
		t.Fatal("phantom op recorded")
	}
}

// Close must turn the same pending invocations into the same history every
// time: seeded chaos runs fingerprint it, so map order must not leak in.
func TestCloseOrdersPendingByID(t *testing.T) {
	h := NewHistory()
	for id := uint64(1); id <= 8; id++ {
		h.Invoke(id, 5, KWrite, proto.EncodeInt64(int64(id)), nil, time.Duration(id))
	}
	h.Close()
	for i, op := range h.Ops(5) {
		if op.ID != uint64(i+1) || op.Return != Pending {
			t.Fatalf("closed history %+v: op %d out of ID order or not pending", h.Ops(5), i)
		}
	}
}
