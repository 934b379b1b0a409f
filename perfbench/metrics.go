package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 of 500 samples rests on five values and moves with each.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted samples and how
// many samples lie above it. ok is false when fewer than minBeyond do, in
// which case the value must not be reported as that percentile.
func quantile(sorted []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	beyond = n - 1 - i
	return sorted[i], beyond, beyond >= minBeyond
}

// dist is a sorted sample of one timing.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

func (d dist) max() float64 {
	if len(d) == 0 {
		return 0
	}
	return d[len(d)-1]
}

// median returns the median of xs (the mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := newDist(xs)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// segment is the due times [start, end) of one open-loop segment.
type segment struct{ start, end int64 }

// sliceQuantiles cuts samples into slices by due time, one per segment, and
// returns each slice's q-quantile and the fewest samples found beyond one.
// ok is false when some slice's quantile is not reportable.
func sliceQuantiles(ss []sample, segs []segment, q float64) (qs []float64, fewestBeyond int, ok bool) {
	bySlice := make([][]float64, len(segs))
	for _, s := range ss {
		for i, sg := range segs {
			if s.due >= sg.start && s.due < sg.end {
				bySlice[i] = append(bySlice[i], s.ns)
				break
			}
		}
	}
	ok = len(segs) > 0
	fewestBeyond = -1
	for _, sl := range bySlice {
		v, beyond, sok := quantile(newDist(sl), q)
		qs = append(qs, v)
		ok = ok && sok
		if fewestBeyond < 0 || beyond < fewestBeyond {
			fewestBeyond = beyond
		}
	}
	return qs, fewestBeyond, ok
}

// offSchedule counts the segments in which the generator's lateness exceeded
// p99Bound at the 99th percentile or maxBound at most.
func offSchedule(late []sample, segs []segment, p99Bound, maxBound float64) int {
	p99s, _, _ := sliceQuantiles(late, segs, 0.99)
	maxes, _, _ := sliceQuantiles(late, segs, 1)
	off := 0
	for i := range p99s {
		if p99s[i] > p99Bound || maxes[i] > maxBound {
			off++
		}
	}
	return off
}

// windowRates returns the responses per second in each window between
// consecutive marks.
func windowRates(marks []mark) []float64 {
	var rates []float64
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		rates = append(rates, float64(b.answered-a.answered)/(float64(b.at-a.at)/1e9))
	}
	return rates
}

// metricName is the grammar every reported metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitName is the grammar of a metric's unit.
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// metric is one reported value with the facts a reader needs to trust it.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// Note is printed beside the value: sample counts, the base of a ratio.
	Note string
}

// report collects a run's metrics in print order.
type report struct {
	metrics []metric
	seen    map[string]bool
}

func (r *report) add(name string, v float64, unit, note string) {
	if !metricName.MatchString(name) || !unitName.MatchString(unit) {
		panic(fmt.Sprintf("perfbench: malformed metric %q (%q)", name, unit))
	}
	if r.seen == nil {
		r.seen = map[string]bool{}
	}
	if r.seen[name] {
		panic(fmt.Sprintf("perfbench: metric %q reported twice", name))
	}
	r.seen[name] = true
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, Note: note})
}

// addPct reports the q-quantile of d under name and whether it was
// reportable. A percentile with fewer than minBeyond samples above it is
// reported as the sample maximum, which bounds it from above, and the note
// says so.
func (r *report) addPct(name string, d dist, q float64, unit string, scale float64) (ok bool) {
	v, beyond, ok := quantile(d, q)
	note := fmt.Sprintf("n=%d, %d beyond", len(d), beyond)
	if !ok {
		v = d.max()
		note = fmt.Sprintf("n=%d, fewer than %d beyond p%g: sample max shown", len(d), minBeyond, q*100)
	}
	r.add(name, v*scale, unit, note)
	return ok
}

// addSliced reports the median over segments of the q-quantile of ss,
// and whether every segment's quantile was reportable.
func (r *report) addSliced(name string, ss []sample, segs []segment, q float64, unit string, scale float64) bool {
	qs, fewest, ok := sliceQuantiles(ss, segs, q)
	note := fmt.Sprintf("median of %d rounds; %d samples, at least %d beyond p%g in each", len(segs), len(ss), fewest, q*100)
	if !ok {
		note = fmt.Sprintf("%d samples; a round has fewer than %d beyond p%g", len(ss), minBeyond, q*100)
	}
	r.add(name, median(qs)*scale, unit, note)
	return ok
}

// ratio reports num/den with its base, or 0 over an empty base.
func (r *report) addRatio(name string, num, den float64, unit string) {
	v := 0.0
	if den > 0 {
		v = num / den
	}
	r.add(name, v, unit, fmt.Sprintf("%.0f / %.0f", num, den))
}

func (r *report) print(w io.Writer) {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-36s %14.4f %-12s (%s)\n", m.Name, m.Value, m.Unit, m.Note)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the named metrics of r as the result object.
func (r *report) resultLine(correct bool, attempted, failed int64, names []string) (string, error) {
	byName := map[string]metric{}
	for _, m := range r.metrics {
		byName[m.Name] = m
	}
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			return "", fmt.Errorf("metric %q was not measured", n)
		}
		res.Metrics[n] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(res)
	return string(b), err
}
