package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/obs"
	"repro/internal/sem/mem"
	"repro/internal/server"
	"repro/internal/transport/wire"
	"repro/internal/types"
)

// echoSrc is the canonical secret-dependent workload: a mitigated
// sleep on the secret, then a public reply.
const echoSrc = `
var h : H;
var reply : L;
mitigate (1, H) [L,L] {
    sleep(h % 64) [H,H];
}
reply := 1;
`

func buildProg(t testing.TB, src string) (*ast.Program, *types.Result) {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := types.Check(p, lattice.TwoPoint())
	if err != nil {
		t.Fatal(err)
	}
	return p, r
}

// newService builds a pool + handler + httptest server over echoSrc.
func newService(t testing.TB, popts server.PoolOptions, hopts Options) (*Handler, *httptest.Server) {
	t.Helper()
	p, r := buildProg(t, echoSrc)
	if popts.Env == nil {
		popts.Env = hw.NewPartitioned(r.Lat, hw.Table1Config())
	}
	if popts.Workers == 0 {
		popts.Workers = 2
	}
	pool, err := server.NewPool(p, r, popts)
	if err != nil {
		t.Fatal(err)
	}
	hopts.Pool = pool
	hopts.Prog = p
	h, err := New(hopts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		pool.Close()
	})
	return h, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestRunRoundTrip(t *testing.T) {
	_, ts := newService(t, server.PoolOptions{Workers: 1}, Options{})

	// Serial in-process reference with an identical environment, on
	// the tree engine (the oracle for the default vm engine).
	p, r := buildProg(t, echoSrc)
	ref, err := server.New(p, r, server.Options{Env: hw.NewPartitioned(r.Lat, hw.Table1Config()), Engine: "tree"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Handle(context.Background(), func(m *mem.Memory) { m.Set("h", 5) })
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/run", wire.RunRequest{
		Inputs: map[string]int64{"h": 5},
		Trace:  true, Mitigations: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got wire.RunResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != wire.SchemaVersion {
		t.Errorf("schema version %d, want %d", got.SchemaVersion, wire.SchemaVersion)
	}
	if got.Time != want.Time {
		t.Errorf("Time over HTTP = %d, in-process = %d", got.Time, want.Time)
	}
	if got.Mispredictions != want.Mispredictions {
		t.Errorf("Mispredictions over HTTP = %d, in-process = %d", got.Mispredictions, want.Mispredictions)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("trace length %d, want %d", len(got.Trace), len(want.Trace))
	}
	for i, e := range want.Trace {
		if got.Trace[i] != (wire.Event{Var: e.Var, Value: e.Value, Time: e.Time}) {
			t.Errorf("trace[%d] = %+v, want %+v", i, got.Trace[i], e)
		}
	}
	if len(got.Mitigations) != len(want.Mitigations) {
		t.Fatalf("mitigations length %d, want %d", len(got.Mitigations), len(want.Mitigations))
	}
}

// TestBatchMatchesInProcess is the acceptance check: a 100-request
// batch over HTTP must be byte-identical, item for item, to the same
// burst through Pool.HandleAll in process.
func TestBatchMatchesInProcess(t *testing.T) {
	const n = 100
	const workers = 4
	_, ts := newService(t, server.PoolOptions{Workers: workers}, Options{})

	// In-process reference: an identically sharded pool on the tree
	// engine, the oracle for the default vm engine.
	p, r := buildProg(t, echoSrc)
	refPool, err := server.NewPool(p, r, server.PoolOptions{
		Workers: workers,
		Options: server.Options{Env: hw.NewPartitioned(r.Lat, hw.Table1Config()), Engine: "tree"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer refPool.Close()

	wireReqs := make([]wire.RunRequest, n)
	refReqs := make([]server.Request, n)
	for i := 0; i < n; i++ {
		h := int64(i % 17)
		wireReqs[i] = wire.RunRequest{Inputs: map[string]int64{"h": h}, Trace: true, Mitigations: true}
		refReqs[i] = func(m *mem.Memory) { m.Set("h", h) }
	}
	refResps, err := refPool.HandleAll(context.Background(), refReqs)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/batch", wire.BatchRequest{Requests: wireReqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got wire.BatchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != n {
		t.Fatalf("%d results, want %d", len(got.Results), n)
	}
	for i, res := range got.Results {
		if res.Error != nil {
			t.Fatalf("result %d failed: %v", i, res.Error)
		}
		want := toRunResponse(refResps[i], wireReqs[i])
		gotJSON, _ := json.Marshal(res.Response)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("result %d over HTTP differs from in-process HandleAll:\n got  %s\n want %s",
				i, gotJSON, wantJSON)
		}
	}
}

func TestUnknownInputRejected(t *testing.T) {
	_, ts := newService(t, server.PoolOptions{}, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/run", wire.RunRequest{Inputs: map[string]int64{"nope": 1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var envelope struct {
		Error *wire.Error `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == nil {
		t.Fatalf("bad error envelope: %s", body)
	}
	if envelope.Error.Code != wire.CodeUnknownInput {
		t.Errorf("code %q, want %q", envelope.Error.Code, wire.CodeUnknownInput)
	}
}

func TestMalformedAndVersionedRequestsRejected(t *testing.T) {
	_, ts := newService(t, server.PoolOptions{}, Options{})

	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	resp2, body := postJSON(t, ts.URL+"/v1/run", wire.RunRequest{SchemaVersion: 99})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("future schema version: status %d, want 400: %s", resp2.StatusCode, body)
	}
}

// TestSaturationMapsTo503 is the overload acceptance check: queue
// saturation (here injected deterministically through the fault layer
// the pool already uses for load-shed testing) must surface as 503
// with a Retry-After header and the stable overloaded code.
func TestSaturationMapsTo503(t *testing.T) {
	_, ts := newService(t, server.PoolOptions{
		ShedOnSaturation: true,
		Options: server.Options{
			Injector: fault.New(1, fault.Plan{fault.QueueSaturation: {Rate: 1}}),
		},
	}, Options{RetryAfter: 2 * time.Second})

	resp, body := postJSON(t, ts.URL+"/v1/run", wire.RunRequest{Inputs: map[string]int64{"h": 1}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	var envelope struct {
		Error *wire.Error `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == nil {
		t.Fatalf("bad error envelope: %s", body)
	}
	if envelope.Error.Code != wire.CodeOverloaded {
		t.Errorf("code %q, want %q", envelope.Error.Code, wire.CodeOverloaded)
	}
	if envelope.Error.RetryAfterMS != 2000 {
		t.Errorf("retry_after_ms = %d, want 2000", envelope.Error.RetryAfterMS)
	}
}

func TestMaxInFlightSheds(t *testing.T) {
	h, ts := newService(t, server.PoolOptions{}, Options{MaxInFlight: 1})
	// Occupy the only admission slot directly (white-box), then a real
	// request must shed at the transport before touching the pool.
	if werr := h.begin(); werr != nil {
		t.Fatalf("first admission refused: %v", werr)
	}
	defer h.end()
	resp, body := postJSON(t, ts.URL+"/v1/run", wire.RunRequest{Inputs: map[string]int64{"h": 1}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestGracefulShutdownDrains exercises the drain protocol
// deterministically: with one admission in flight, Shutdown must
// block, new work must be refused with shutting_down, and the last
// request out must release the shutdown, which then closes the pool.
func TestGracefulShutdownDrains(t *testing.T) {
	h, ts := newService(t, server.PoolOptions{}, Options{})

	if werr := h.begin(); werr != nil {
		t.Fatalf("admission refused: %v", werr)
	}
	done := make(chan error, 1)
	go func() { done <- h.Shutdown(context.Background()) }()

	// Shutdown must be parked on the in-flight request.
	for !h.Draining() {
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a request still in flight", err)
	case <-time.After(10 * time.Millisecond):
	}

	// New work is refused while draining.
	resp, body := postJSON(t, ts.URL+"/v1/run", wire.RunRequest{Inputs: map[string]int64{"h": 1}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status while draining = %d, want 503: %s", resp.StatusCode, body)
	}
	var envelope struct {
		Error *wire.Error `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == nil {
		t.Fatalf("bad error envelope: %s", body)
	}
	if envelope.Error.Code != wire.CodeShuttingDown {
		t.Errorf("code %q, want %q", envelope.Error.Code, wire.CodeShuttingDown)
	}

	// The last in-flight request leaving completes the drain.
	h.end()
	if err := <-done; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	// The pool is closed: in-process submission fails accordingly.
	if _, err := h.opts.Pool.Handle(context.Background(), func(*mem.Memory) {}); err == nil {
		t.Error("pool still accepting work after Shutdown")
	}
}

// TestGracefulShutdownUnderLoad drives a real in-flight HTTP request
// (held open by an injected shard stall) through a full drain.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	h, ts := newService(t, server.PoolOptions{
		Workers: 1,
		Options: server.Options{
			Injector: fault.New(1, fault.Plan{fault.ShardStall: {Rate: 1, Stall: 30 * time.Millisecond}}),
		},
	}, Options{})

	type outcome struct {
		status int
		body   []byte
	}
	got := make(chan outcome, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/run", wire.RunRequest{Inputs: map[string]int64{"h": 3}})
		got <- outcome{resp.StatusCode, body}
	}()

	// Wait until the request is admitted, then drain.
	for {
		h.mu.Lock()
		n := h.inFlight
		h.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := h.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	o := <-got
	if o.status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d: %s", o.status, o.body)
	}
}

func TestHealthz(t *testing.T) {
	h, ts := newService(t, server.PoolOptions{Workers: 3}, Options{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health wire.Health
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != wire.StatusOK || health.Workers != 3 || health.Engine != "vm" {
		t.Errorf("health = %+v", health)
	}
	_ = h
}

// TestMetricsPromMatchesExport is the exposition acceptance check:
// every counter scraped from /v1/metrics must equal the corresponding
// obs.Export field from the JSON form of the same endpoint.
func TestMetricsPromMatchesExport(t *testing.T) {
	_, ts := newService(t, server.PoolOptions{}, Options{})
	for i := 0; i < 8; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/run", wire.RunRequest{Inputs: map[string]int64{"h": int64(i)}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup run %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	jr, err := http.Get(ts.URL + "/v1/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var export obs.Export
	if err := json.NewDecoder(jr.Body).Decode(&export); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()

	pr, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := pr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prometheus Content-Type = %q", ct)
	}
	promText, err := io.ReadAll(pr.Body)
	pr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	scraped := parseProm(t, string(promText))
	for name, want := range map[string]uint64{
		"timingc_requests_total":                         export.Requests,
		"timingc_failures_total":                         export.Failures,
		"timingc_steps_total":                            export.Steps,
		"timingc_cycles_total":                           export.Cycles,
		"timingc_padding_cycles_total":                   export.PaddingCycles,
		"timingc_useful_cycles_total":                    export.UsefulCycles,
		"timingc_mitigations_total":                      export.Mitigations,
		"timingc_mispredictions_total":                   export.Mispredictions,
		"timingc_schedule_bumps_total":                   export.ScheduleBumps,
		"timingc_faults_total":                           export.Faults,
		"timingc_retries_total":                          export.Retries,
		"timingc_sheds_total":                            export.Sheds,
		"timingc_breaker_opens_total":                    export.BreakerOpens,
		"timingc_breaker_closes_total":                   export.BreakerCloses,
		"timingc_latency_cycles_count":                   export.Latency.Count,
		"timingc_latency_cycles_sum":                     export.Latency.Sum,
		`timingc_hw_events_total{unit="l1d",kind="hit"}`: export.HW.L1DHits,
		`timingc_hw_events_total{unit="bp",kind="miss"}`: export.HW.BPMisses,
	} {
		got, ok := scraped[name]
		if !ok {
			t.Errorf("metric %s missing from exposition", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %d, exposition disagrees with export %d", name, got, want)
		}
	}
	if export.Requests != 8 {
		t.Errorf("export.Requests = %d, want 8", export.Requests)
	}
}

// parseProm reads "name value" and "name{labels} value" sample lines.
func parseProm(t *testing.T, text string) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseUint(line[sp+1:], 10, 64)
		if err != nil {
			// Gauges may be floats; only integer samples participate in
			// the comparison.
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

func TestPoolHandleAllErrsReportsPerItem(t *testing.T) {
	p, r := buildProg(t, echoSrc)
	pool, err := server.NewPool(p, r, server.PoolOptions{
		Workers: 2,
		Options: server.Options{Env: hw.NewPartitioned(r.Lat, hw.Table1Config())},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	reqs := make([]server.Request, 6)
	for i := range reqs {
		h := int64(i)
		reqs[i] = func(m *mem.Memory) { m.Set("h", h) }
	}
	resps, errs := pool.HandleAllErrs(context.Background(), reqs)
	if len(resps) != len(reqs) || len(errs) != len(reqs) {
		t.Fatalf("lengths: %d resps, %d errs", len(resps), len(errs))
	}
	for i := range reqs {
		if errs[i] != nil {
			t.Errorf("request %d failed: %v", i, errs[i])
		}
		if resps[i] == nil {
			t.Errorf("request %d: nil response without error", i)
		}
	}
}

func TestHandlerRequiresPoolAndProg(t *testing.T) {
	p, r := buildProg(t, echoSrc)
	pool, err := server.NewPool(p, r, server.PoolOptions{
		Workers: 1,
		Options: server.Options{Env: hw.NewFlat(r.Lat, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := New(Options{Prog: p}); err == nil {
		t.Error("New without Pool must fail")
	}
	if _, err := New(Options{Pool: pool}); err == nil {
		t.Error("New without Prog must fail")
	}
	if _, err := New(Options{Pool: pool, Prog: p}); err != nil {
		t.Errorf("New with both = %v", err)
	}
}
