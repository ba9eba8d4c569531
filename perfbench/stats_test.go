package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileReportsItsSampleCount(t *testing.T) {
	xs := make([]float64, 0, 1000)
	for i := 1000; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := percentile(append([]float64(nil), xs...), 0.99); got != (pct{990, 1000}) {
		t.Errorf("p99 of 1..1000 = %+v, want {990 1000}", got)
	}
	if got := percentile(append([]float64(nil), xs...), 0.5); got != (pct{500, 1000}) {
		t.Errorf("p50 of 1..1000 = %+v, want {500 1000}", got)
	}
	// Nearest rank: with 10 samples the p99 is the largest one.
	if got := percentile([]float64{3, 1, 2, 5, 4, 6, 7, 9, 8, 10}, 0.99); got != (pct{10, 10}) {
		t.Errorf("p99 of ten samples = %+v, want {10 10}", got)
	}
	if got := percentile(nil, 0.5); got != (pct{}) {
		t.Errorf("percentile of nothing = %+v, want zero with count 0", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func iv(a, b int) interval { return interval{time.Duration(a), time.Duration(b)} }

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := iv(0, 100)
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"none", nil, 100},
		{"disjoint", []interval{iv(10, 20), iv(30, 50)}, 70},
		{"overlapping", []interval{iv(10, 40), iv(30, 60)}, 50},
		{"nested", []interval{iv(10, 90), iv(20, 30)}, 20},
		{"touching", []interval{iv(10, 20), iv(20, 30)}, 80},
		{"unsorted", []interval{iv(70, 80), iv(10, 20), iv(15, 25)}, 75},
		{"clipped to parent", []interval{iv(-10, 10), iv(95, 120)}, 85},
		{"outside parent", []interval{iv(150, 200)}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBacklogDetection(t *testing.T) {
	steady := []int{1, 2, 1, 2, 1, 2, 1, 2, 1}
	busySteady := []int{6, 7, 6, 7, 6, 7, 6, 7, 6} // every connection busy, queue not growing
	growing := []int{0, 1, 2, 4, 6, 8, 11, 14, 18}
	if backlogGrowing(steady, 2) {
		t.Error("a short steady queue was taken for a backlog")
	}
	if backlogGrowing(busySteady, 2) {
		t.Error("a long but steady queue was taken for a backlog")
	}
	if !backlogGrowing(growing, 2) {
		t.Error("a growing queue was not detected")
	}
	if backlogGrowing([]int{9, 10}, 2) {
		t.Error("too few samples must not decide a backlog")
	}
	// 3000 requests: jitter of a few requests is not a backlog, a
	// shortfall that piles up 2% of the step is.
	jitter, shortfall := make([]int, 3000), make([]int, 3000)
	for i := range jitter {
		jitter[i] = 3 + i%7
		shortfall[i] = i / 50
	}
	if backlogGrowing(jitter, 2) {
		t.Error("a busy queue's jitter was taken for a backlog")
	}
	if !backlogGrowing(shortfall, 2) {
		t.Error("a queue growing by 2% of the step was not detected")
	}
}

func TestGoodputLadder(t *testing.T) {
	step := func(rate, p99 float64, backlog bool) ladderStep {
		return ladderStep{Rate: rate, P99ms: pct{p99, 1000}, Backlog: backlog}
	}
	backlog := func(rate, achieved float64) ladderStep {
		return ladderStep{Rate: rate, P99ms: pct{6, 1000}, Backlog: true, Achieved: achieved}
	}
	const limit = 10
	cases := []struct {
		name  string
		steps []ladderStep
		want  float64
	}{
		{"all pass", []ladderStep{step(1000, 1, false), step(2000, 2, false)}, 2000},
		{"first fails", []ladderStep{step(1000, 20, false), step(2000, 2, false)}, 0},
		// p99 goes 5 → 20 ms; log-interpolation reaches 10 ms halfway.
		{"interpolated on p99", []ladderStep{step(1000, 5, false), step(2000, 20, false)}, 1500},
		// A backlog ends the ladder, whatever the p99 says, at the rate
		// the service achieved while falling behind.
		{"backlog gives achieved rate", []ladderStep{step(1000, 5, false), backlog(2000, 1700), step(3000, 7, false)}, 1700},
		{"achieved rate kept within the steps", []ladderStep{step(1000, 5, false), backlog(2000, 900)}, 1000},
		{"pass above a failure is noise", []ladderStep{step(1000, 5, false), step(2000, 30, false), step(3000, 4, false)}, 1000 + 1000*math.Log(2)/math.Log(6)},
	}
	for _, c := range cases {
		if got := goodput(c.steps, limit); fmt.Sprintf("%.6f", got) != fmt.Sprintf("%.6f", c.want) {
			t.Errorf("%s: goodput %v, want %v", c.name, got, c.want)
		}
	}
	failed := step(2000, 5, false)
	failed.Failed = 1
	if got := goodput([]ladderStep{step(1000, 5, false), failed}, limit); got != 1000 {
		t.Errorf("a step with a refused request passed: goodput %v, want 1000", got)
	}
}

func TestWindowedRateIsAMedianOfWindows(t *testing.T) {
	var events []time.Duration
	// Four one-second windows with 10, 12, 0 (a stall) and 11 events.
	for w, n := range []int{10, 12, 0, 11} {
		for i := 0; i < n; i++ {
			events = append(events, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	if got := windowedRate(events, 4*time.Second, 4); got != 10 {
		t.Errorf("windowed rate %v, want 10 (the median of 0, 10, 11, 12 by nearest rank)", got)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	draw := func(seed uint64) []any {
		var out []any
		sg, rg, lg := newSleepGen(seed, 1), newRSAGen(seed), newLoginGen(seed, 1, 2)
		for i := 0; i < 200; i++ {
			out = append(out, sg.next(), rg.next(), lg.next())
		}
		return append(out, schedule(seed, 3, 5000, 100))
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different inputs")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same inputs")
	}
}

func TestInputsStayInRange(t *testing.T) {
	rg := newRSAGen(1)
	lg := newLoginGen(1, 1, 2)
	for i := 0; i < 5000; i++ {
		in := rg.next().Inputs
		if in["key"] < 1 || in["key"] >= 1<<21 || in["nblocks"] < 1 || in["nblocks"] > 10 {
			t.Fatalf("rsa input out of range: %v", in)
		}
		req := lg.next()
		var rank int
		if _, err := fmt.Sscanf(req.Tenant, "t%d", &rank); err != nil || rank%2 != 1 || rank >= loginPopulation {
			t.Fatalf("connection 1 drew tenant %q, not one of its own", req.Tenant)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(file), len(code))
			return
		}
		for i := range code {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]",
					kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	// Every gated workload runs in the code; sleep-run is run on demand
	// only (see README.md).
	limits := map[string]float64{"rsa-stream": rsaLimitMS, "login-tenants": loginLimitMS}
	if len(f.Workloads) != len(limits) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(f.Workloads), len(limits))
	}
	for _, fw := range f.Workloads {
		if _, err := findWorkload(fw.Name); err != nil {
			t.Error(err)
		}
		limit, ok := limits[fw.Name]
		if !ok {
			t.Errorf("BENCHMARK.json gates %s, which is not a gated workload", fw.Name)
		}
		if want := fmt.Sprintf("limit %g ms", limit); !strings.Contains(fw.Why, want) {
			t.Errorf("workload %s: its description does not record the latency limit (%q)", fw.Name, want)
		}
	}
}
