package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/exec"
	"repro/internal/lang/parser"
	"repro/internal/machine/hw"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/transport/wire/fastjson"
	"repro/internal/types"
)

// servingCodec is the codec the transport and the client SDK use when
// none is configured; the traced codec wraps it.
var servingCodec wire.Codec = fastjson.Codec{}

// servingQueueDepth mirrors `timingc serve -queue`'s default; the
// worker count and engine come from the real server's /v1/healthz.
const servingQueueDepth = 2

// tracedBenchmark runs the workload twice: shortly against the real
// binary, untraced, for the reference throughput, then against the same
// stack assembled in-process from the public constructors with every
// layer wrapped. It returns the per-layer metrics.
func tracedBenchmark(ctx context.Context, cfg config, prog *program, env map[string]any) (*outcome, map[string]float64, error) {
	// Half the run, at most five seconds: a traced rsa-stream keeps
	// about 50000 spans per second in memory.
	seconds := min(cfg.seconds/2, 5)

	// Untraced reference on the real server, in the traced run's shape.
	ref, p, err := serveReal(ctx, cfg, prog)
	if err != nil {
		return nil, nil, err
	}
	ref.seconds, ref.traced = seconds, true
	err = ref.drive(ctx, ref)
	if serr := p.stop(); err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("untraced reference: %w", err)
	}

	v := map[string]float64{}
	if err := frontendTimes(cfg.w.program, v); err != nil {
		return nil, nil, err
	}

	tr := newTracer(cfg.w.conns(nproc()))
	base, stop, err := assemble(prog, ref.hz, cfg.w, tr)
	if err != nil {
		return nil, nil, err
	}
	r := &run{
		workload: cfg.w, prog: prog, hz: ref.hz, seed: cfg.seed, seconds: seconds, traced: true,
		t: target{base: base, tr: tr},
		o: &outcome{notes: map[string]any{}},
	}
	err = r.drive(ctx, r)
	spans := tr.snapshot()
	stop()
	if err != nil {
		return nil, nil, err
	}
	o := r.o
	if err := r.check(r); err != nil {
		return nil, nil, err
	}

	a := analyze(spans)
	a.metrics(v, o, ref.hz.Workers)
	if err := replaySessions(r, spans, v); err != nil {
		return nil, nil, err
	}
	v["trace.overhead_ratio"] = ref.o.throughputRPS / o.throughputRPS

	// One span file per workload, the latest traced run's: a traced
	// rsa-stream writes tens of megabytes.
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s.jsonl", cfg.w.name))
	if err := writeSpans(path, spans); err != nil {
		return nil, nil, err
	}
	o.notes["span_file"] = path
	o.notes["spans"] = len(spans)
	o.notes["units_joined"] = fmt.Sprintf("%d of %d", a.joined, len(a.units))
	o.notes["untraced_rps"] = ref.o.throughputRPS
	o.notes["traced_rps"] = o.throughputRPS
	o.notes["overhead_note"] = "trace.overhead_ratio compares the real binary, untraced, with the in-process traced assembly, so it includes the move in-process as well as the cost of tracing"
	o.notes["engine"] = ref.hz.Engine
	o.notes["workers"] = ref.hz.Workers
	o.notes["breakdown_us"] = a.breakdown
	env["server_gomaxprocs"] = fmt.Sprint(runtime.GOMAXPROCS(0)) // the server runs in this process
	return o, v, nil
}

// frontendTimes times parser.Parse, types.Check, and compiling the
// checked program through a fresh one-entry program cache, each the
// median of several repetitions.
func frontendTimes(path string, v map[string]float64) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var parse, check, compile []float64
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		pr, err := parser.Parse(string(src))
		if err != nil {
			return err
		}
		t1 := time.Now()
		res, err := types.Check(pr, servingLattice())
		if err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := exec.NewProgramCache(1).Get(pr, res, exec.DefaultOptLevel); err != nil {
			return err
		}
		t3 := time.Now()
		parse = append(parse, ms(t1.Sub(t0)))
		check = append(check, ms(t2.Sub(t1)))
		compile = append(compile, ms(t3.Sub(t2)))
	}
	v["frontend.parse_ms"] = median(parse)
	v["frontend.check_ms"] = median(check)
	v["frontend.compile_ms"] = median(compile)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// assemble builds pool, session manager and transport the way `timingc
// serve -listen` does, with the traced engine, codec and handler in
// place, and serves it on a loopback port.
// It returns the base URL and a func that shuts the stack down.
func assemble(p *program, hz wire.Health, w *workload, tr *tracer) (string, func(), error) {
	if err := registerTracedEngine(tr, hz.Engine); err != nil {
		return "", nil, err
	}
	env, err := hw.NewEnv(servingHW, p.lat, hw.Table1Config())
	if err != nil {
		return "", nil, err
	}
	met := obs.NewMetrics()
	var sessions *session.Manager
	if len(w.flags) > 0 {
		sessions, err = session.NewManager(session.Options{
			Lat: p.lat, BudgetBits: loginBudget, MaxSessions: loginMaxTenant, Metrics: met,
		})
		if err != nil {
			return "", nil, err
		}
	}
	pool, err := server.NewPool(p.prog, p.res, server.PoolOptions{
		Workers:    hz.Workers,
		QueueDepth: servingQueueDepth,
		Options: server.Options{
			Env: env, Engine: tracedEngineName, OptLevel: exec.DefaultOptLevel, OptSet: true,
			Limits: exec.Limits{MaxSteps: 10_000_000}, Metrics: met,
		},
	})
	if err != nil {
		return "", nil, err
	}
	th := &tracedHandler{tr: tr, opts: transport.Options{Pool: pool, Prog: p.prog, Sessions: sessions}}
	if _, err := transport.New(th.opts); err != nil {
		pool.Close()
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		return "", nil, err
	}
	hs := &http.Server{Handler: th, ConnContext: th.connContext}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-served
		pool.Close()
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// ---------------------------------------------------------------------
// Runtime counters of this process (client and server both, in the
// traced run).

type runtimeSample struct {
	allocs   uint64  // heap objects allocated
	gcCPU    float64 // GC CPU seconds
	totalCPU float64 // all CPU seconds the runtime accounts
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocs:   s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

// ---------------------------------------------------------------------
// Joining spans into requests.

// unit is one request as the client sees it (a run or batch call, or
// one stream item) with its spans on both sides.
type unit struct {
	call        *span
	clientCodec []interval
	server      *interval // the handler span, or a stream item's decode-to-encode
	decode      []interval
	encode      []interval
	engines     []span
}

// analysis holds the joined units and the layer sums over them.
type analysis struct {
	units     []*unit
	engines   []span
	joined    int
	breakdown map[string]float64
}

// analyze joins spans into units. Run and batch calls are joined by the
// request id the client sent as a header; stream items by their
// ordinal; engine runs by the shard and shard index the encoded
// responses carried.
func analyze(spans []span) *analysis {
	byReq := map[uint64]*unit{}
	byOrd := map[int]*unit{}
	get := func(s span) *unit {
		if s.Req != 0 {
			u := byReq[s.Req]
			if u == nil {
				u = &unit{}
				byReq[s.Req] = u
			}
			return u
		}
		if s.Ord != 0 {
			u := byOrd[s.Ord]
			if u == nil {
				u = &unit{}
				byOrd[s.Ord] = u
			}
			return u
		}
		return nil
	}
	engines := map[shardKey]span{}
	a := &analysis{}
	for _, s := range spans {
		if s.Name == "exec.run" {
			engines[shardKey{s.Shard, s.Index}] = s
			a.engines = append(a.engines, s)
		}
	}
	for i := range spans {
		s := spans[i]
		switch s.Name {
		case "client.call":
			if u := get(s); u != nil {
				u.call = &spans[i]
			}
		case "client.encode", "client.decode":
			if u := get(s); u != nil {
				u.clientCodec = append(u.clientCodec, s.interval())
			}
		case "transport.handler":
			if s.Req != 0 {
				iv := s.interval()
				get(s).server = &iv
			}
		case "wire.decode", "wire.encode":
			// A stream line has no request id; its ordinal joins it to
			// the client's item.
			u := get(s)
			if u == nil {
				continue
			}
			if s.Name == "wire.decode" {
				u.decode = append(u.decode, s.interval())
			} else {
				u.encode = append(u.encode, s.interval())
			}
			for _, k := range s.Keys {
				if e, ok := engines[k]; ok {
					u.engines = append(u.engines, e)
				}
			}
		}
	}
	for _, u := range byOrd {
		if u.server == nil && len(u.decode) > 0 && len(u.encode) > 0 {
			iv := interval{u.decode[0].start, u.encode[len(u.encode)-1].end}
			u.server = &iv
		}
	}
	for _, u := range byReq {
		if u.call != nil {
			a.units = append(a.units, u)
		}
	}
	for _, u := range byOrd {
		if u.call != nil {
			a.units = append(a.units, u)
		}
	}
	return a
}

// waits returns, for each engine run of a unit, the interval it waited:
// from the later of the unit's decode end and the end of the unit's
// last engine run that finished before it started, to its start. For a
// single run that is decode-to-engine, the pool's queue and hand-off;
// for the serial items of a tenanted batch it is the gap between items,
// the session admission and the hand-off.
func (u *unit) waits() []interval {
	var decEnd time.Duration
	for _, d := range u.decode {
		decEnd = max(decEnd, d.end)
	}
	var out []interval
	for _, e := range u.engines {
		from := decEnd
		for _, p := range u.engines {
			if p.End <= e.Start && p.End > from {
				from = p.End
			}
		}
		if e.Start > from {
			out = append(out, interval{from, e.Start})
		}
	}
	return out
}

// metrics computes the per-layer metrics from the joined units and the
// window's counter deltas.
func (a *analysis) metrics(v map[string]float64, o *outcome, workers int) {
	var calls, callSelf, clientCodec, handler, handlerSelf, dec, enc, wait float64
	var waitN int
	for _, u := range a.units {
		call := u.call.interval()
		calls += us(call.end - call.start)
		for _, c := range u.clientCodec {
			clientCodec += us(c.end - c.start)
		}
		children := append([]interval(nil), u.clientCodec...)
		if u.server == nil || len(u.engines) == 0 {
			callSelf += us(selfTime(call, children))
			continue
		}
		a.joined++
		children = append(children, *u.server)
		callSelf += us(selfTime(call, children))
		handler += us(u.server.end - u.server.start)
		var sc []interval
		for _, d := range u.decode {
			dec += us(d.end - d.start)
			sc = append(sc, d)
		}
		for _, e := range u.encode {
			enc += us(e.end - e.start)
			sc = append(sc, e)
		}
		for _, w := range u.waits() {
			wait += us(w.end - w.start)
			waitN++
			sc = append(sc, w)
		}
		for _, e := range u.engines {
			sc = append(sc, e.interval())
		}
		handlerSelf += us(selfTime(*u.server, sc))
	}
	n := float64(max(len(a.units), 1))
	items := float64(max(len(a.engines), 1))
	v["client.call_us"] = calls / n
	v["client.net_us"] = callSelf / n
	v["client.codec_us"] = clientCodec / n
	jn := float64(max(a.joined, 1))
	v["transport.handler_us"] = handler / jn
	v["transport.self_us"] = handlerSelf / jn
	v["wire.decode_us_per_req"] = dec / items
	v["wire.encode_us_per_req"] = enc / items
	v["server.queue_wait_us"] = wait / float64(max(waitN, 1))

	var runs, steps []float64
	var busy float64
	perShard := map[int]int{}
	var first, last time.Duration
	for i, e := range a.engines {
		d := us(e.End - e.Start)
		runs = append(runs, d)
		busy += d
		steps = append(steps, float64(e.Steps))
		perShard[e.Shard]++
		if i == 0 || e.Start < first {
			first = e.Start
		}
		last = max(last, e.End)
	}
	v["exec.run_us_p50"] = percentile(append([]float64(nil), runs...), 0.5).Value
	v["exec.run_us_p99"] = percentile(runs, 0.99).Value
	v["exec.steps_per_req"] = mean(steps)
	if last > first {
		v["server.busy_share"] = busy / (us(last-first) * float64(workers))
	}
	maxShard := 0
	for _, c := range perShard {
		maxShard = max(maxShard, c)
	}
	v["server.shard_skew"] = float64(maxShard) / (items / float64(workers))

	// A unit whose server side did not join counts it all as client
	// network time; the joined share says how much of the breakdown
	// rests on complete requests.
	v["trace.joined_share"] = float64(a.joined) / n
	var execSelf float64
	for _, u := range a.units {
		if u.server != nil && len(u.engines) > 0 {
			var es []interval
			for _, e := range u.engines {
				es = append(es, e.interval())
			}
			execSelf += us(covered(*u.server, es))
		}
	}
	a.breakdown = map[string]float64{
		"client.call":    calls / n,
		"client.net":     callSelf / n,
		"client.codec":   clientCodec / n,
		"transport.self": handlerSelf / n,
		"wire":           (dec + enc) / n,
		"server.wait":    wait / n,
		"exec":           execSelf / n,
		"sum_of_self":    (callSelf + clientCodec + handlerSelf + dec + enc + wait + execSelf) / n,
	}

	d := delta(o.m0.exp, o.m1.exp)
	req := float64(max(d.Requests, 1))
	v["transport.bytes_per_req"] = float64(d.BytesIn+d.BytesOut) / req
	v["server.sheds"] = float64(d.Sheds)
	v["hw.l1d_hit_rate"] = rate(d.HW.L1DHits, d.HW.L1DMisses)
	v["hw.l2_hit_rate"] = rate(d.HW.L2DHits, d.HW.L2DMisses)
	v["hw.tlb_hit_rate"] = rate(d.HW.DTLBHits, d.HW.DTLBMisses)
	v["mitigation.mispredict_share"] = float64(d.Mispredictions) / float64(max(d.Mitigations, 1))
	v["mitigation.padding_cycles_per_req"] = float64(d.PaddingCycles) / req
	v["runtime.allocs_per_req"] = float64(o.m1.rt.allocs-o.m0.rt.allocs) / req
	if cpu := o.m1.rt.totalCPU - o.m0.rt.totalCPU; cpu > 0 {
		v["runtime.gc_cpu_share"] = (o.m1.rt.gcCPU - o.m0.rt.gcCPU) / cpu
	}
}

func rate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// replaySessions times the session layer by replaying a tenant
// sequence through a fresh session.Manager's Begin and Commit, with the
// served simulated times and mitigation counts. On login-tenants it is
// the recorded sequence, denials included; the anonymous workloads have
// no tenants, so their engine runs, in order, are assigned to the
// seed's login-tenants population — the cost per-request leakage
// accounting would add to that traffic. The login-tenants sequence
// includes the warm-up, so the replayed accounts match the served ones.
func replaySessions(r *run, spans []span, v map[string]float64) error {
	type item struct {
		tenant string
		denied bool
		cycles uint64
		mits   int
	}
	var seq []item
	if len(r.login) > 0 {
		for _, l := range r.login {
			seq = append(seq, item{l.tenant, l.denied, l.resp.Time, len(l.resp.Mitigations)})
		}
	} else {
		var engines []span
		for _, s := range spans {
			if s.Name == "exec.run" {
				engines = append(engines, s)
			}
		}
		sort.Slice(engines, func(i, j int) bool { return engines[i].Start < engines[j].Start })
		gen := newLoginGen(r.seed, 0, 1)
		for _, e := range engines {
			seq = append(seq, item{tenant: gen.next().Tenant, cycles: e.Cyc, mits: e.Mits})
		}
	}
	met := obs.NewMetrics()
	mgr, err := session.NewManager(session.Options{
		Lat: r.prog.lat, BudgetBits: loginBudget, MaxSessions: loginMaxTenant, Metrics: met,
	})
	if err != nil {
		return err
	}
	var admit time.Duration
	var bits float64
	denied, committed := 0, 0
	for _, it := range seq {
		t0 := time.Now()
		tk, err := mgr.Begin(it.tenant)
		if err != nil {
			admit += time.Since(t0)
			if !errors.Is(err, session.ErrBudgetExceeded) {
				return err
			}
			denied++
			continue
		}
		if it.denied {
			// The service refused this item and nothing ran; the
			// replay admitted it (an eviction fell differently), so it
			// leaves the account as it was.
			tk.Abort()
			admit += time.Since(t0)
			continue
		}
		info := tk.Commit(it.cycles, it.mits)
		admit += time.Since(t0)
		bits += info.SpentBits
		committed++
	}
	snap := met.Snapshot()
	v["session.admit_us"] = us(admit) / float64(max(len(seq), 1))
	v["session.created"] = float64(snap.SessionsCreated)
	v["session.evicted_lru"] = float64(snap.SessionsEvictedLRU)
	v["session.denied_share"] = float64(denied) / float64(max(len(seq), 1))
	v["session.leak_bits_mean"] = bits / float64(max(committed, 1))
	return nil
}
