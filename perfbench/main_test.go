package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/proto"
)

func seq(n int) dist {
	d := make(dist, n)
	for i := range d {
		d[i] = float64(i + 1)
	}
	return d
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		want   float64
		beyond int
		ok     bool
	}{
		{n: 1000, q: 0.99, want: 990, beyond: 10, ok: true},
		{n: 999, q: 0.99, want: 990, beyond: 9, ok: false},
		{n: 100, q: 0.99, want: 99, beyond: 1, ok: false},
		{n: 21, q: 0.50, want: 11, beyond: 10, ok: true},
		{n: 20, q: 0.50, want: 10, beyond: 10, ok: true},
		{n: 19, q: 0.50, want: 10, beyond: 9, ok: false},
		{n: 1, q: 0.50, want: 1, beyond: 0, ok: false},
	} {
		v, beyond, ok := quantile(seq(c.n), c.q)
		if v != c.want || beyond != c.beyond || ok != c.ok {
			t.Errorf("quantile(1..%d, %g) = %g, %d beyond, ok=%v; want %g, %d, %v", c.n, c.q, v, beyond, ok, c.want, c.beyond, c.ok)
		}
	}
	if _, _, ok := quantile(nil, 0.5); ok {
		t.Error("a percentile of no samples was reportable")
	}
}

func TestUnreportablePercentileShowsMaximum(t *testing.T) {
	var r report
	if r.addPct("x_us", seq(500), 0.99, "us", 1) {
		t.Fatal("p99 of 500 samples was reportable")
	}
	if got := r.metrics[0].Value; got != 500 {
		t.Fatalf("unreportable p99 reported as %g, want the maximum 500", got)
	}
	if !strings.Contains(r.metrics[0].Note, "fewer than 10 beyond") {
		t.Fatalf("note %q does not say the percentile is unreportable", r.metrics[0].Note)
	}
}

// segments cuts [0, n*width) into n segments.
func segments(n int, width int64) []segment {
	var segs []segment
	for i := int64(0); i < int64(n); i++ {
		segs = append(segs, segment{i * width, (i + 1) * width})
	}
	return segs
}

func TestOffSchedule(t *testing.T) {
	// Five segments of [0, 5000), 1000 samples each, on schedule (1 ns
	// late) unless disturbed below.
	lateness := func(disturb func(i int) float64) []sample {
		var ss []sample
		for i := 0; i < 5000; i++ {
			ss = append(ss, sample{due: int64(i), ns: 1 + disturb(i)})
		}
		return ss
	}
	for _, c := range []struct {
		name    string
		disturb func(i int) float64
		want    int
	}{
		{"on schedule", func(int) float64 { return 0 }, 0},
		{"one stall past the max bound", func(i int) float64 {
			if i == 2500 {
				return 300
			}
			return 0
		}, 1},
		{"ten stalls under the max bound, at the p99 rank", func(i int) float64 {
			if i >= 1000 && i < 1010 {
				return 100
			}
			return 0
		}, 0},
		{"eleven stalls under the max bound, past the p99 rank", func(i int) float64 {
			if i >= 1000 && i < 1011 {
				return 100
			}
			return 0
		}, 1},
		{"a stall in each of three segments", func(i int) float64 {
			if i%2000 == 10 {
				return 300
			}
			return 0
		}, 3},
	} {
		if got := offSchedule(lateness(c.disturb), segments(5, 1000), 50, 250); got != c.want {
			t.Errorf("%s: %d segments off schedule, want %d", c.name, got, c.want)
		}
	}
}

func TestSliceQuantiles(t *testing.T) {
	// Three segments of [0, 300): the middle one holds larger values.
	var ss []sample
	for i := 0; i < 300; i++ {
		v := float64(i%100 + 1)
		if i >= 100 && i < 200 {
			v += 1000
		}
		ss = append(ss, sample{due: int64(i), ns: v})
	}
	qs, fewest, ok := sliceQuantiles(ss, segments(3, 100), 0.50)
	if !ok || fewest != 50 || qs[0] != 50 || qs[1] != 1050 || qs[2] != 50 {
		t.Fatalf("p50 per slice = %v, %d beyond, ok=%v", qs, fewest, ok)
	}
	if median(qs) != 50 {
		t.Fatalf("median of slices %v = %g, want 50: one disturbed slice must not move it", qs, median(qs))
	}
	if _, _, ok := sliceQuantiles(ss, segments(3, 100), 0.99); ok {
		t.Fatal("p99 of 100 samples per slice was reportable")
	}
	if _, _, ok := sliceQuantiles(ss[:150], segments(3, 100), 0.50); ok {
		t.Fatal("an empty slice's percentile was reportable")
	}
	// Samples due between segments belong to none.
	qs, _, _ = sliceQuantiles(ss, []segment{{0, 100}, {200, 300}}, 0.50)
	if len(qs) != 2 || qs[0] != 50 || qs[1] != 50 {
		t.Fatalf("p50 per segment with a gap = %v, want [50 50]", qs)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, n := range []string{"setup_s", "client.do_us.p99", "transport.msgs_per_update.inv", "9lives", strings.Repeat("a", 64)} {
		if !metricName.MatchString(n) {
			t.Errorf("%q rejected", n)
		}
	}
	for _, n := range []string{"", "_x", ".x", "-x", "a b", "a/b", "µs", strings.Repeat("a", 65)} {
		if metricName.MatchString(n) {
			t.Errorf("%q accepted", n)
		}
	}
	for _, u := range []string{"us", "ops/s", "1/s", "%", "gc/kop", "MB"} {
		if !unitName.MatchString(u) {
			t.Errorf("unit %q rejected", u)
		}
	}
	for _, u := range []string{"", "µs", "ops per s", strings.Repeat("u", 17)} {
		if unitName.MatchString(u) {
			t.Errorf("unit %q accepted", u)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) || !unitName.MatchString(m.unit) {
			t.Errorf("metric %q (%q) breaks the grammar", m.name, m.unit)
		}
	}
}

func TestReportRejectsMalformedAndDuplicateNames(t *testing.T) {
	for _, name := range []string{"bad name", "dup"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("add(%q) did not panic", name)
				}
			}()
			var r report
			r.add("dup", 1, "s", "")
			r.add(name, 1, "s", "")
		}()
	}
}

func TestResultLine(t *testing.T) {
	var r report
	r.add("a", 1.5, "s", "")
	r.add("b", 2, "us", "")
	line, err := r.resultLine(true, 10, 1, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":10,"failed":1,"metrics":{"a":{"value":1.5,"unit":"s"}}}`
	if line != want {
		t.Fatalf("got %s, want %s", line, want)
	}
	if _, err := r.resultLine(true, 10, 0, []string{"c"}); err == nil {
		t.Fatal("a result line named an unmeasured metric")
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	var listed []spec
	for _, sp := range specs {
		if sp.excluded == "" {
			listed = append(listed, sp)
		}
	}
	if len(bf.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(listed))
	}
	for i, w := range bf.Workloads {
		sp := listed[i]
		if w.Name != sp.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, sp.name)
		}
		if rate := fmt.Sprintf("open loop at %.0f ops/s", sp.rate); !strings.Contains(w.Why, rate) {
			t.Errorf("workload %q: why %q does not state %q", w.Name, w.Why, rate)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range bf.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the program", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the program", i, m, want)
		}
	}
}

func TestCheckHistory(t *testing.T) {
	const k = proto.Key(7)
	a, b := proto.Value("a"), proto.Value("b")
	write := histOp{op: op{kind: proto.OpWrite, key: k, val: b}, invoke: 10, ret: 20, status: proto.OK, responded: true}
	read := func(inv, ret int64, out proto.Value) histOp {
		return histOp{op: op{kind: proto.OpRead, key: k}, invoke: inv, ret: ret, status: proto.OK, out: out, responded: true}
	}
	init := map[proto.Key]proto.Value{k: a}
	final := map[proto.Key]proto.Value{k: b}
	sample := []proto.Key{k}
	if err := checkHistory([]histOp{write, read(15, 18, a), read(21, 25, b)}, init, final, sample, 30); err != nil {
		t.Fatalf("linearizable history rejected: %v", err)
	}
	if err := checkHistory([]histOp{write, read(21, 25, a)}, init, final, sample, 30); err == nil {
		t.Fatal("a read of the overwritten value after the write returned passed")
	}
	if err := checkHistory([]histOp{write}, init, map[proto.Key]proto.Value{k: a}, sample, 30); err == nil {
		t.Fatal("a final value that lost a completed write passed")
	}
	aborted := histOp{op: op{kind: proto.OpFAA, key: k, val: proto.EncodeInt64(1)}, invoke: 10, ret: 20, status: proto.Aborted, responded: true}
	if err := checkHistory([]histOp{aborted}, init, init, sample, 30); err != nil {
		t.Fatalf("an aborted RMW was taken to have applied: %v", err)
	}
}
