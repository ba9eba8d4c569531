package main

import (
	"math"
	"sort"
	"time"
)

// pct is a percentile together with the number of samples it was
// taken from, so a reader can judge whether a p99 rests on enough data.
type pct struct {
	Value float64
	N     int
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by the
// nearest-rank rule: the smallest sample with at least q·n samples at
// or below it. xs is sorted in place. An empty input yields {0, 0}.
func percentile(xs []float64, q float64) pct {
	if len(xs) == 0 {
		return pct{}
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return pct{Value: xs[rank-1], N: len(xs)}
}

// median is percentile(xs, 0.5).Value on a copy, leaving xs unsorted.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5).Value
}

// mean returns the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// windowedRate splits [0, span) into equal windows, counts the events
// (offsets from the window's start) in each, and returns the median of
// the per-window rates, per second. A median of windows keeps a short
// stall — a collection, a neighbour on the host — from moving the
// figure the way it moves a mean.
func windowedRate(events []time.Duration, span time.Duration, windows int) float64 {
	if windows < 1 || span <= 0 {
		return 0
	}
	counts := make([]float64, windows)
	w := span / time.Duration(windows)
	for _, e := range events {
		if i := int(e / w); e >= 0 && i < windows {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return median(counts)
}

// windowedP99 splits samples, in the order they were taken, into
// consecutive windows and returns the median of the windows' p99s, with
// the total sample count; one stall then moves one window's p99, not
// the figure.
func windowedP99(samples []float64, windows int) (pct, []float64) {
	n := len(samples) / windows
	if n == 0 {
		return percentile(append([]float64(nil), samples...), 0.99), nil
	}
	p99s := make([]float64, windows)
	for w := range p99s {
		p99s[w] = percentile(append([]float64(nil), samples[w*n:(w+1)*n]...), 0.99).Value
	}
	return pct{median(p99s), len(samples)}, p99s
}

// interval is a half-open span of monotonic time.
type interval struct{ start, end time.Duration }

// covered returns how much of [parent.start, parent.end) the children
// cover, counting time where children overlap once. Children are
// clipped to the parent first, so a child that started before its
// parent (clock skew between goroutines) or ended after it cannot make
// the parent's self time negative.
func covered(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var total time.Duration
	var cur interval
	for i, c := range cs {
		if i == 0 || c.start > cur.end {
			total += cur.end - cur.start
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	if len(cs) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.end - parent.start - covered(parent, children)
}

// backlogGrowing reports whether an open-loop step left a growing
// queue behind: depths are the generator's count of requests due but
// not yet answered, sampled at each due time. The queue grew when the
// final third of the step averages more requests waiting than the first
// third by over twice the connection count and over 1% of the step's
// requests. A queue that is long but steady (every connection busy,
// nothing accumulating) is not a backlog, and neither is the jitter of
// a busy queue: a service short of the offered rate by a few percent
// piles up a few percent of the step's requests.
func backlogGrowing(depths []int, conns int) bool {
	if len(depths) < 3 {
		return false
	}
	third := len(depths) / 3
	avg := func(ds []int) float64 {
		s := 0
		for _, d := range ds {
			s += d
		}
		return float64(s) / float64(len(ds))
	}
	growth := avg(depths[len(depths)-third:]) - avg(depths[:third])
	return growth > 2*float64(conns) && growth > 0.01*float64(len(depths))
}

// ladderStep is one rate of the goodput ladder.
type ladderStep struct {
	Rate    float64 // offered requests per second
	P99ms   pct     // p99 latency from due time
	Backlog bool    // backlogGrowing over the step
	LateMS  float64 // the generator's own lateness p99, ms
	Failed  int     // requests that failed or were refused
	// Achieved is the rate at which answers came back while the step's
	// schedule ran, per second: the service's capacity once it falls
	// behind.
	Achieved float64
}

// passes reports whether a step meets the latency limit: p99 within
// the limit, no growing backlog, and no failed request (a refused
// request misses any limit). A generator running late fails nothing by
// itself: latency counts from the due time, so its delay is already in
// the p99.
func (s ladderStep) passes(limitMS float64) bool {
	return s.P99ms.N > 0 && s.P99ms.Value <= limitMS && !s.Backlog && s.Failed == 0
}

// goodput is the highest offered rate on the ladder that meets the
// limit, with every lower rate meeting it too (a pass above a failure
// is noise, not capacity). Between the last passing step and the first
// failing one it estimates where the limit was crossed, so the figure
// moves smoothly with capacity instead of jumping by whole ladder
// steps: a step that failed on its p99 alone is interpolated on
// log(p99) to the rate where p99 would reach the limit; a step that
// fell behind gives the rate it actually achieved, which is the
// service's capacity, kept within the two steps. A step with a refused
// request gives no estimate. Zero means even the lowest rate failed.
func goodput(steps []ladderStep, limitMS float64) float64 {
	best := 0.0
	for i, s := range steps {
		if s.passes(limitMS) {
			best = s.Rate
			continue
		}
		if i == 0 || s.Failed > 0 {
			return best
		}
		prev := steps[i-1]
		if s.Backlog {
			return math.Min(math.Max(s.Achieved, prev.Rate), s.Rate)
		}
		if s.P99ms.N == 0 || s.P99ms.Value <= prev.P99ms.Value {
			return best
		}
		lo, hi := math.Log(prev.P99ms.Value), math.Log(s.P99ms.Value)
		frac := (math.Log(limitMS) - lo) / (hi - lo)
		return prev.Rate + frac*(s.Rate-prev.Rate)
	}
	return best
}
