package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
	"repro/internal/lattice"
	"repro/internal/leakage"
	"repro/internal/machine/hw"
	"repro/internal/obs"
	"repro/internal/sem/full"
	"repro/internal/sem/mem"
	"repro/internal/server"
	"repro/internal/transport/client"
	"repro/internal/transport/wire"
	"repro/internal/types"
)

// Serving defaults the checks depend on: `timingc serve` runs the
// two-point lattice on the partitioned Table 1 machine unless told
// otherwise, and the benchmark never tells it otherwise.
const servingHW = "partitioned"

func servingLattice() lattice.Lattice { return lattice.TwoPoint() }

// Workload parameters. The latency limits are fixed here and recorded
// in BENCHMARK.json's workload descriptions.
const (
	// sleep-run: the reference rate for latency, the ladder for
	// goodput, and the p99 limit a ladder step must meet.
	sleepRefRate   = 2000.0
	sleepLimitMS   = 10.0
	rsaLimitMS     = 10.0
	loginLimitMS   = 150.0
	setupStarts    = 9
	loginBudget    = 300.0
	loginMaxTenant = 1024
)

// sleepLadder is the fixed ladder of offered rates: 1000 and 2000
// requests/s, then 4000 to 40000 in steps of 2000, run ladderPasses
// times over; each rate's p99 is the median of its passes. Its top sits
// well above today's capacity (8000 to 25000 requests/s on a two-core
// virtual machine, depending on the load on its host), so a faster
// service still finds its limit on the ladder, and its bottom is low
// enough for a slow host to pass.
var sleepLadder = func() []float64 {
	rates := []float64{1000, 2000}
	for r := 4000.0; r <= 40000; r += 2000 {
		rates = append(rates, r)
	}
	return rates
}()

const ladderPasses = 3

// workload names a traffic mix: its program, the session flags its
// server needs, and the functions that drive and check it.
type workload struct {
	name    string
	program string
	flags   []string
	conns   func(nproc int) int
	drive   func(ctx context.Context, r *run) error
	// check validates the outputs recorded by drive, outside the timed
	// window.
	check func(r *run) error
}

// run is one drive of a workload against one target.
type run struct {
	*workload
	prog    *program
	hz      wire.Health // the service's /v1/healthz: engine and workers
	t       target
	o       *outcome
	seed    uint64
	seconds float64
	traced  bool

	// outputs recorded for the checks and the session replay
	traceReqs []traceSample
	rsaRecs   []rsaRec
	login     []loginRec
}

var workloads = []*workload{
	{name: "sleep-run", program: "testdata/mitigated.tc", conns: allCPUs, drive: driveSleep, check: checkSleep},
	{name: "rsa-stream", program: "testdata/rsa.tc", conns: one, drive: driveRSA, check: checkRSA},
	{name: "login-tenants", program: "testdata/login.tc", conns: allCPUs, drive: driveLogin, check: checkLogin,
		flags: []string{"-session-budget", fmt.Sprint(loginBudget), "-session-max", fmt.Sprint(loginMaxTenant)}},
}

func allCPUs(nproc int) int { return nproc }
func one(int) int           { return 1 }

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// program is a parsed and checked served program.
type program struct {
	src  string
	prog *ast.Program
	res  *types.Result
	lat  lattice.Lattice
}

func loadProgram(path string) (*program, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p := &program{src: string(b), lat: servingLattice()}
	if p.prog, err = parser.Parse(p.src); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if p.res, err = types.Check(p.prog, p.lat); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// outcome collects what one drive measured.
type outcome struct {
	attempted, failed int
	served            int     // items answered with a response
	denied            int     // items refused for the leakage budget
	elapsed           float64 // seconds of the measured window
	throughputRPS     float64
	goodputRPS        float64
	lat               pct // p50 and p99 of the workload's latency, ms
	latP99            pct
	simCycles         []float64
	late              pct // open-loop generator lateness p99, ms
	ladder            []ladderStep
	problems          []string // failed output checks
	warnings          []string // conditions that make the figures doubtful
	notes             map[string]any
	m0, m1            mark // the measured window's edges
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// ---------------------------------------------------------------------
// sleep-run: open-loop anonymous /v1/run of mitigated.tc.

type traceSample struct {
	h      int64
	events []wire.Event
}

func (w *run) onSleep(mu *sync.Mutex) func(int, wire.RunRequest, runResult) {
	o := w.o
	return func(_ int, req wire.RunRequest, r runResult) {
		mu.Lock()
		defer mu.Unlock()
		if r.err != nil {
			o.failed++
			o.problem("run: %v", r.err)
			return
		}
		o.served++
		o.simCycles = append(o.simCycles, float64(r.resp.Time))
		if req.Trace {
			w.traceReqs = append(w.traceReqs, traceSample{req.Inputs["h"], r.resp.Trace})
		}
	}
}

// driveSleep runs sleep-run: a closed-loop phase for capacity, the
// fixed reference rate for latency, then the goodput ladder (skipped
// when traced). Fractions of the run's seconds go to each phase.
func driveSleep(ctx context.Context, w *run) error {
	t, o, seed, seconds, traced := w.t, w.o, w.seed, w.seconds, w.traced
	clients := make([]*client.Client, w.conns(nproc()))
	gens := make([]*sleepGen, len(clients))
	for i := range clients {
		clients[i] = t.newClient(i)
		gens[i] = newSleepGen(seed, i)
	}
	var mu sync.Mutex
	next := func(conn int) wire.RunRequest { return gens[conn].next() }
	discard := func(int, wire.RunRequest, runResult) {}
	closedLoop(ctx, t, clients, dur(seconds*0.03), next, discard)
	t.tr.reset()
	if err := t.mark(ctx, o, true); err != nil {
		return err
	}
	start := time.Now()

	onResp := w.onSleep(&mu)
	answered, d := closedLoop(ctx, t, clients, dur(seconds*0.1), next, onResp)
	o.attempted += len(answered)
	o.throughputRPS = windowedRate(answered, d, 9)
	if traced {
		// The traced run analyses the reference-rate phase only: its
		// spans decompose one uncontended call.
		t.tr.reset()
	}

	refN := int(sleepRefRate * seconds * 0.2)
	reqs := make([]wire.RunRequest, refN)
	for i := range reqs {
		reqs[i] = gens[0].next()
	}
	ref := openLoop(ctx, t, clients, schedule(seed, 0, sleepRefRate, refN), reqs, onResp)
	o.attempted += ref.sent
	o.lat = percentile(append([]float64(nil), ref.latMS...), 0.5)
	var p99s []float64
	o.latP99, p99s = windowedP99(ref.latMS, 5)
	o.notes["latency_p99_windows_ms"] = p99s
	o.late = percentile(ref.lateMS, 0.99)
	// A generator more than a quarter of the limit behind its own
	// schedule measured the host more than the service: the run record
	// says so. The outputs are not in question, so the checks still
	// pass.
	o.notes["loadgen.valid"] = o.late.Value <= sleepLimitMS/4
	if o.late.Value > sleepLimitMS/4 {
		o.warnings = append(o.warnings, fmt.Sprintf("generator fell behind at the reference rate: lateness p99 %.3f ms; latencies count it from the due time", o.late.Value))
	}
	if !traced {
		o.ladder = runLadder(ctx, t, clients, gens[0], seed, seconds*0.7, onResp, o)
		o.goodputRPS = goodput(o.ladder, sleepLimitMS)
	}
	o.elapsed = time.Since(start).Seconds()
	return t.mark(ctx, o, false)
}

// runLadder offers each ladder rate in turn, ladderPasses times over,
// within the given seconds, and merges the passes: a rate's p99 is the
// median of its passes' p99s and it has a backlog when most passes saw
// one, so one stall (a collection, a neighbour on the host) does not
// decide the figure. Every step sends the same number of requests, so
// a fast rate's p99 rests on as many samples as a slow one's. A pass
// stops early once a rate's p99 exceeds four times the limit; the rates
// above count as failed in that pass.
func runLadder(ctx context.Context, t target, clients []*client.Client, gen *sleepGen, seed uint64, seconds float64,
	onResp func(int, wire.RunRequest, runResult), o *outcome) []ladderStep {
	perPass := 0.0 // seconds one pass takes per request per step
	for _, rate := range sleepLadder {
		perPass += 1 / rate
	}
	n := int(seconds / (ladderPasses * perPass))
	passes := make([][]ladderStep, len(sleepLadder))
	for pass := 0; pass < ladderPasses; pass++ {
		hopeless := false
		for i, rate := range sleepLadder {
			if hopeless {
				continue
			}
			reqs := make([]wire.RunRequest, n)
			for j := range reqs {
				reqs[j] = gen.next()
			}
			st := openLoop(ctx, t, clients, schedule(seed, pass*len(sleepLadder)+i+1, rate, n), reqs, onResp)
			o.attempted += st.sent
			step := ladderStep{
				Rate:     rate,
				P99ms:    percentile(st.latMS, 0.99),
				Backlog:  backlogGrowing(st.depths, len(clients)),
				LateMS:   percentile(st.lateMS, 0.99).Value,
				Failed:   st.failed,
				Achieved: st.achieved,
			}
			passes[i] = append(passes[i], step)
			hopeless = step.P99ms.Value > 4*sleepLimitMS
		}
	}
	merged := make([]ladderStep, len(sleepLadder))
	for i, ps := range passes {
		// A pass that skipped this rate counts as an infinite p99 and a
		// backlog.
		p99s := make([]float64, ladderPasses)
		backlogs, n := ladderPasses-len(ps), 0
		var lates, achieved []float64
		m := ladderStep{Rate: sleepLadder[i]}
		for j := range p99s {
			p99s[j] = math.Inf(1)
		}
		for j, p := range ps {
			p99s[j] = p.P99ms.Value
			lates = append(lates, p.LateMS)
			achieved = append(achieved, p.Achieved)
			n += p.P99ms.N
			m.Failed += p.Failed
			if p.Backlog {
				backlogs++
			}
		}
		m.P99ms = pct{median(p99s), n}
		m.LateMS = median(lates)
		m.Achieved = median(achieved)
		m.Backlog = 2*backlogs > ladderPasses
		if math.IsInf(m.P99ms.Value, 1) {
			m.P99ms = pct{}
			m.Backlog = true
		}
		merged[i] = m
	}
	return merged
}

// checkSleep compares the event values of every traced response with
// an in-process run of the reference semantics (sem/full) on the same
// secret. Times may differ (the service's caches are warm); values may
// not.
func checkSleep(w *run) error {
	o := w.o
	if len(w.traceReqs) == 0 {
		return errors.New("no sampled request asked for its trace")
	}
	for _, s := range w.traceReqs {
		env, err := hw.NewEnv(servingHW, w.prog.lat, hw.Table1Config())
		if err != nil {
			return err
		}
		m, err := full.New(w.prog.prog, w.prog.res, env, full.Options{})
		if err != nil {
			return err
		}
		m.Memory().Set("h", s.h)
		if err := m.Run(10_000_000); err != nil {
			return err
		}
		want := m.Trace()
		if len(want) != len(s.events) {
			o.problem("h=%d: %d events served, %d from sem/full", s.h, len(s.events), len(want))
			continue
		}
		for i, e := range want {
			if e.Var != s.events[i].Var || e.Value != s.events[i].Value {
				o.problem("h=%d event %d: served %s=%d, sem/full %s=%d", s.h, i,
					s.events[i].Var, s.events[i].Value, e.Var, e.Value)
			}
		}
	}
	o.notes["trace_samples_checked"] = len(w.traceReqs)
	return nil
}

// ---------------------------------------------------------------------
// rsa-stream: one pipelined /v1/stream of anonymous RSA decryptions.

type rsaRec struct {
	inputs map[string]int64
	resp   wire.RunResponse
}

// driveRSA keeps a window of twice the server's worker count in flight
// on one stream, and times each item from send to receive.
func driveRSA(ctx context.Context, w *run) error {
	t, o, seed, seconds := w.t, w.o, w.seed, w.seconds
	c := t.newClient(0)
	st, err := c.Stream(ctx)
	if err != nil {
		return err
	}
	defer st.Close()
	gen := newRSAGen(seed)
	window := 2 * w.hz.Workers
	slots := make(chan struct{}, window)
	type sent struct {
		req wire.RunRequest
		at  time.Duration
	}
	// Sized to the window: the sender never holds more unanswered
	// items than that, so the channel never fills.
	inflight := make(chan sent, window)
	epoch := time.Now()
	measureFrom := dur(seconds * 0.05)
	stopAt := measureFrom + dur(seconds)
	var lats []float64
	var doneAt, goodAt []time.Duration // answer times of served and in-limit items
	var marked, ended bool
	var startWin time.Duration
	ord := 0

	sendErr := make(chan error, 1)
	stop := make(chan struct{})
	stopSending := sync.OnceFunc(func() { close(stop) })
	defer stopSending()
	go func() {
		defer close(inflight)
		for {
			select {
			case <-stop:
				sendErr <- st.CloseSend()
				return
			case slots <- struct{}{}:
			}
			req := gen.next()
			at := time.Since(epoch)
			if err := st.Send(req); err != nil {
				sendErr <- err
				return
			}
			select {
			case inflight <- sent{req, at}:
			case <-stop:
				sendErr <- nil
				return
			}
		}
	}()
	for s := range inflight {
		res, err := st.Recv()
		if err != nil {
			stopSending()
			return fmt.Errorf("stream recv: %w", err)
		}
		now := time.Since(epoch)
		<-slots
		ord++
		if res.Response != nil {
			w.rsaRecs = append(w.rsaRecs, rsaRec{s.req.Inputs, *res.Response})
		}
		if !marked && now >= measureFrom {
			marked = true
			t.tr.reset()
			if err := t.mark(ctx, o, true); err != nil {
				stopSending()
				return err
			}
			startWin = time.Since(epoch)
			continue
		}
		if !marked || ended {
			continue
		}
		if now >= stopAt {
			ended = true
			o.elapsed = (now - startWin).Seconds()
			if err := t.mark(ctx, o, false); err != nil {
				stopSending()
				return err
			}
			stopSending()
			continue
		}
		o.attempted++
		l := float64(now-s.at) / 1e6
		lats = append(lats, l)
		if t.tr != nil {
			t.tr.streamItem(ord, time.Duration(epoch.Sub(t.tr.epoch))+s.at, time.Duration(epoch.Sub(t.tr.epoch))+now)
		}
		if res.Response == nil {
			o.failed++
			o.problem("stream item: %v", client.Err(*res))
			continue
		}
		o.served++
		doneAt = append(doneAt, now-startWin)
		if l <= rsaLimitMS {
			goodAt = append(goodAt, now-startWin)
		}
		o.simCycles = append(o.simCycles, float64(res.Response.Time))
	}
	if err := <-sendErr; err != nil {
		return err
	}
	windows := max(int(o.elapsed), 1)
	o.throughputRPS = windowedRate(doneAt, dur(o.elapsed), windows)
	o.goodputRPS = windowedRate(goodAt, dur(o.elapsed), windows)
	o.lat = percentile(append([]float64(nil), lats...), 0.5)
	o.latP99, _ = windowedP99(lats, 10)
	return nil
}

// checkRSA replays every shard's sequence, in shard_index order, on a
// serial tree-engine server over a fresh copy of the serving machine:
// anonymous requests share their shard's mitigation state, so each
// shard is a deterministic serial machine and every time and
// misprediction count must match.
func checkRSA(w *run) error {
	o := w.o
	byShard := map[int][]rsaRec{}
	for _, r := range w.rsaRecs {
		byShard[r.resp.Shard] = append(byShard[r.resp.Shard], r)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	sem := make(chan struct{}, nproc())
	var firstErr error
	for shard, recs := range byShard {
		sort.Slice(recs, func(i, j int) bool { return recs[i].resp.ShardIndex < recs[j].resp.ShardIndex })
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			bad, err := replayShard(w.prog, recs)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			for _, b := range bad {
				o.problem("shard %d: %s", shard, b)
			}
		}()
	}
	wg.Wait()
	o.notes["replayed_items"] = len(w.rsaRecs)
	return firstErr
}

func replayShard(p *program, recs []rsaRec) ([]string, error) {
	env, err := hw.NewEnv(servingHW, p.lat, hw.Table1Config())
	if err != nil {
		return nil, err
	}
	srv, err := server.New(p.prog, p.res, server.Options{Env: env, Engine: "tree"})
	if err != nil {
		return nil, err
	}
	var bad []string
	for i, r := range recs {
		if r.resp.ShardIndex != i {
			return append(bad, fmt.Sprintf("shard_index %d where %d was expected (a response is missing)", r.resp.ShardIndex, i)), nil
		}
		in := r.inputs
		resp, err := srv.Handle(context.Background(), func(m *mem.Memory) {
			for k, v := range in {
				m.Set(k, v)
			}
		})
		if err != nil {
			return nil, err
		}
		if resp.Time != r.resp.Time || resp.Mispredictions != r.resp.Mispredictions {
			bad = append(bad, fmt.Sprintf("index %d: served time %d mispredictions %d, replay %d and %d",
				i, r.resp.Time, r.resp.Mispredictions, resp.Time, resp.Mispredictions))
			if len(bad) >= 5 {
				break
			}
		}
	}
	return bad, nil
}

// ---------------------------------------------------------------------
// login-tenants: /v1/batch calls of tenanted login attempts.

type loginRec struct {
	tenant string
	denied bool
	resp   wire.RunResponse
}

// tally is the client's own account of one tenant's session.
type tally struct {
	epoch int
	k     int
	t     uint64
}

// driveLogin runs one closed loop per connection, each sending batches
// of loginBatch attempts of its own tenants, and checks every reply
// against the client-side tallies as it arrives.
func driveLogin(ctx context.Context, w *run) error {
	t, o, seed, seconds, traced := w.t, w.o, w.seed, w.seconds, w.traced
	conns := w.conns(nproc())
	clients := make([]*client.Client, conns)
	gens := make([]*loginGen, conns)
	tallies := make([]map[string]*tally, conns)
	for i := range clients {
		clients[i] = t.newClient(i)
		gens[i] = newLoginGen(seed, i, conns)
		tallies[i] = map[string]*tally{}
	}
	closure := w.prog.lat.Size() - 1
	var mu sync.Mutex
	var lats []float64
	var doneAt, goodAt []time.Duration // answer times of served and in-limit items
	var start time.Time
	measuring := false
	run := func(d time.Duration) error {
		var wg sync.WaitGroup
		errs := make([]error, conns)
		deadline := time.Now().Add(d)
		for conn := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) && ctx.Err() == nil {
					batch := gens[conn].batch()
					cctx, done := t.tr.startCall(ctx, conn)
					t0 := time.Now()
					resp, err := clients[conn].RunBatch(cctx, batch)
					l := float64(time.Since(t0)) / 1e6
					done()
					if err != nil {
						errs[conn] = err
						return
					}
					served, denied, failed := 0, 0, 0
					var recs []loginRec
					var cycles []float64
					for i, res := range resp.Results {
						tn := batch[i].Tenant
						tl := tallies[conn][tn]
						if tl == nil {
							tl = &tally{}
							tallies[conn][tn] = tl
						}
						if err := client.Err(res); err != nil {
							if errors.Is(err, client.ErrLeakageBudget) {
								denied++
								recs = append(recs, loginRec{tenant: tn, denied: true})
								if b := leakage.Bound(closure, tl.k, tl.t); b < loginBudget {
									o.problemLocked(&mu, "tenant %s denied at %.3f bits, under the %.0f-bit budget", tn, b, loginBudget)
								}
								continue
							}
							failed++
							o.problemLocked(&mu, "login item: %v", err)
							continue
						}
						r := res.Response
						if r.Epoch == 1 {
							*tl = tally{} // a new session: first request, or the old one was evicted
						} else if r.Epoch != tl.epoch+1 {
							o.problemLocked(&mu, "tenant %s: epoch %d after %d", tn, r.Epoch, tl.epoch)
						}
						tl.epoch = r.Epoch
						tl.k += len(r.Mitigations)
						tl.t += r.Time
						if want := leakage.Bound(closure, tl.k, tl.t); math.Abs(r.LeakageBits-want) > 1e-9 {
							o.problemLocked(&mu, "tenant %s epoch %d: leakage_bits %.12f, §7 bound %.12f", tn, r.Epoch, r.LeakageBits, want)
						}
						served++
						cycles = append(cycles, float64(r.Time))
						recs = append(recs, loginRec{tenant: tn, resp: *r})
					}
					mu.Lock()
					if traced {
						w.login = append(w.login, recs...)
					}
					if measuring {
						o.attempted += len(batch)
						o.served += served
						o.denied += denied
						o.failed += failed
						o.simCycles = append(o.simCycles, cycles...)
						lats = append(lats, l)
						at := time.Since(start)
						for i := 0; i < served; i++ {
							doneAt = append(doneAt, at)
							if l <= loginLimitMS {
								goodAt = append(goodAt, at)
							}
						}
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	if err := run(dur(seconds * 0.05)); err != nil {
		return err
	}
	t.tr.reset()
	if err := t.mark(ctx, o, true); err != nil {
		return err
	}
	measuring = true
	start = time.Now()
	if err := run(dur(seconds)); err != nil {
		return err
	}
	o.elapsed = time.Since(start).Seconds()
	if err := t.mark(ctx, o, false); err != nil {
		return err
	}
	windows := max(int(o.elapsed), 1)
	o.throughputRPS = windowedRate(doneAt, dur(o.elapsed), windows)
	o.goodputRPS = windowedRate(goodAt, dur(o.elapsed), windows)
	o.lat = percentile(append([]float64(nil), lats...), 0.5)
	o.latP99 = percentile(lats, 0.99)
	o.notes["denied_share"] = float64(o.denied) / float64(o.attempted)
	return nil
}

func (o *outcome) problemLocked(mu *sync.Mutex, format string, args ...any) {
	mu.Lock()
	o.problem(format, args...)
	mu.Unlock()
}

// checkLogin has nothing left to do: each reply was checked against the
// client-side §7 recomputation as it arrived.
func checkLogin(*run) error { return nil }

// ---------------------------------------------------------------------

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// health fetches /v1/healthz.
func health(ctx context.Context, base string) (wire.Health, error) {
	h, err := client.New(base, client.Options{}).Health(ctx)
	if err != nil {
		return wire.Health{}, err
	}
	return *h, nil
}

// scrape fetches the service's metrics export.
func scrape(ctx context.Context, base string) (obs.Export, error) {
	e, err := client.New(base, client.Options{}).Metrics(ctx)
	if err != nil {
		return obs.Export{}, err
	}
	return *e, nil
}
