package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of sorted (q in (0,1]).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailQuantile is the highest of p99.9, p99, p90 and p50 that has at
// least ten of n samples beyond it, or 0 when n is below 20.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0
}

// quartiles returns the first quartile, median and third quartile of
// values by the same rule as Python's statistics.quantiles(values, n=4)
// (the "exclusive" method), so records and external checks agree.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	n := len(d)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// dist summarizes a sample of timings.
type dist struct {
	sorted []float64
}

func newDist(values []float64) dist {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	return dist{sorted: d}
}

func (d dist) n() int                      { return len(d.sorted) }
func (d dist) q(q float64) float64         { return quantile(d.sorted, q) }
func ratio(num, den float64) float64       { return num / math.Max(den, 1e-300) }
func perOp(total float64, ops int) float64 { return total / math.Max(1, float64(ops)) }

func mean(values []float64) float64 { return perOp(sum(values), len(values)) }

func sum(values []float64) float64 {
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s
}

// span is one timed call into a module, from the benchmark's own code.
type span struct {
	name       string
	parent     int // index of the enclosing span, -1 for a root
	start, end time.Duration
}

// tracer records nested spans in memory; spans are written out only
// when the run ends. It is used from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// reset drops every recorded span.
func (t *tracer) reset() { t.spans, t.open = t.spans[:0], t.open[:0] }

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its direct children.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		self[s.name] += s.end - s.start - covered(s, children[i])
	}
	return self
}

// covered is the length of the union of kids' intervals, clipped to p.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.start, p.start), min(k.end, p.end)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}
