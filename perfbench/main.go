// Command perfbench is the repository's benchmark: it drives the real
// `timingc serve -listen` binary with one of three seeded traffic
// mixes, checks every output it can, and prints the end-to-end metrics
// — or, with -trace 1, assembles the same stack in-process, times each
// layer from outside and prints the per-layer metrics. See README.md.
//
//	perfbench -workload sleep-run -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	workloadName := flag.String("workload", "", "traffic mix: sleep-run, rsa-stream, login-tenants, or all")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced in-process assembly and prints per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin/timingc", "the timingc binary to serve")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for the run record and the span file")
	flag.Parse()

	selected := workloads
	if *workloadName != "all" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		selected = []*workload{w}
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	// One workload ends with its result line; "all" runs each in turn
	// and ends with one line mapping each workload to its result.
	results := map[string]*result{}
	code := 0
	for _, w := range selected {
		cfg := config{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, bin: *bin, out: *outDir}
		res, err := runBenchmark(context.Background(), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if !res.Correct {
			code = 1
		}
		results[w.name] = res
	}
	var out any = results
	if len(selected) == 1 {
		out = results[selected[0].name]
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	os.Exit(code)
}

type config struct {
	w       *workload
	seed    uint64
	seconds float64
	traced  bool
	bin     string
	out     string
}

// result is the last line of output, the machine-readable summary of
// the run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer name every metric with its unit; BENCHMARK.json
// lists the same names (a test keeps the two in step).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"goodput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"server_cpu_us_per_req", "us"},
	{"peak_rss_mb", "MiB"},
	{"sim_cycles_p50", "cycles"},
	{"padding_share", "ratio"},
}

var perLayer = []metricDef{
	{"client.call_us", "us"},
	{"client.net_us", "us"},
	{"client.codec_us", "us"},
	{"transport.handler_us", "us"},
	{"transport.self_us", "us"},
	{"transport.bytes_per_req", "bytes"},
	{"wire.decode_us_per_req", "us"},
	{"wire.encode_us_per_req", "us"},
	{"session.admit_us", "us"},
	{"session.created", "count"},
	{"session.evicted_lru", "count"},
	{"session.denied_share", "ratio"},
	{"session.leak_bits_mean", "bits"},
	{"server.queue_wait_us", "us"},
	{"server.busy_share", "ratio"},
	{"server.shard_skew", "ratio"},
	{"server.sheds", "count"},
	{"exec.run_us_p50", "us"},
	{"exec.run_us_p99", "us"},
	{"exec.steps_per_req", "steps"},
	{"hw.l1d_hit_rate", "ratio"},
	{"hw.l2_hit_rate", "ratio"},
	{"hw.tlb_hit_rate", "ratio"},
	{"mitigation.mispredict_share", "ratio"},
	{"mitigation.padding_cycles_per_req", "cycles"},
	{"frontend.parse_ms", "ms"},
	{"frontend.check_ms", "ms"},
	{"frontend.compile_ms", "ms"},
	{"runtime.allocs_per_req", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.joined_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

type metricDef struct{ name, unit string }

func nproc() int { return runtime.NumCPU() }

// runBenchmark runs one workload, untraced or traced, and assembles the
// result line. The run record (environment, sample counts, notes and
// problems) is printed before it and kept under cfg.out.
func runBenchmark(ctx context.Context, cfg config) (*result, error) {
	prog, err := loadProgram(cfg.w.program)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(cfg.bin); err != nil {
		return nil, fmt.Errorf("server binary: %w", err)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	env := environment(cfg.seed)

	var o *outcome
	var values map[string]float64
	var defs []metricDef
	if cfg.traced {
		o, values, err = tracedBenchmark(ctx, cfg, prog, env)
		defs = perLayer
	} else {
		o, values, err = untracedBenchmark(ctx, cfg, prog, env)
		defs = endToEnd
	}
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	record := map[string]any{
		"workload": cfg.w.name, "seed": cfg.seed, "seconds": cfg.seconds, "traced": cfg.traced,
		"environment": env, "notes": o.notes, "warnings": o.warnings, "problems": o.problems, "result": res,
	}
	b, err := json.Marshal(record)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("run-%s-seed%d-trace%d.json", cfg.w.name, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.traced])
	if err := os.WriteFile(filepath.Join(cfg.out, name), append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	printSummary(cfg, res, o)
	fmt.Println(string(b))
	return res, nil
}

// printSummary prints the human-readable lines: each metric with its
// unit, then the notes and any failed check.
func printSummary(cfg config, res *result, o *outcome) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("perfbench %s seed %d (%s)\n", cfg.w.name, cfg.seed, map[bool]string{false: "end to end", true: "traced"}[cfg.traced])
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(o.notes))
	for k := range o.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  note %-31s %v\n", k, o.notes[k])
	}
	for _, w := range o.warnings {
		fmt.Printf("  WARNING: %s\n", w)
	}
	for _, p := range o.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

// untracedBenchmark measures the end-to-end metrics against the real
// binary: set-up time over several starts, then one measured server.
func untracedBenchmark(ctx context.Context, cfg config, prog *program, env map[string]any) (*outcome, map[string]float64, error) {
	setups, err := measureSetup(setupStarts, cfg.bin, cfg.w.program, cfg.w.flags...)
	if err != nil {
		return nil, nil, err
	}
	r, p, err := serveReal(ctx, cfg, prog)
	if err != nil {
		return nil, nil, err
	}
	o := r.o
	err = r.drive(ctx, r)
	var rss float64
	if err == nil {
		rss, err = peakRSSMB(p.cmd.Process.Pid)
		env["server_gomaxprocs"] = serverGOMAXPROCS(p.cmd.Process.Pid)
	}
	if serr := p.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping the server: %w", serr)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := r.check(r); err != nil {
		return nil, nil, err
	}
	v := map[string]float64{
		"setup_s":        median(setups),
		"throughput_rps": o.throughputRPS,
		"goodput_rps":    o.goodputRPS,
		"latency_p50_ms": o.lat.Value,
		"latency_p99_ms": o.latP99.Value,
		"peak_rss_mb":    rss,
		"sim_cycles_p50": median(o.simCycles),
	}
	if o.served > 0 {
		v["server_cpu_us_per_req"] = float64(o.m1.cpu-o.m0.cpu) / 1e3 / float64(o.served)
	}
	d := delta(o.m0.exp, o.m1.exp)
	if d.Cycles > 0 {
		v["padding_share"] = float64(d.PaddingCycles) / float64(d.Cycles)
	}
	o.notes["setup_s_samples"] = setups
	if dt := o.m1.total - o.m0.total; dt > 0 {
		o.notes["host_steal_share"] = float64(o.m1.steal-o.m0.steal) / float64(dt)
	}
	o.notes["latency_samples"] = o.lat.N
	o.notes["fail_share"] = float64(o.failed) / float64(max(o.attempted, 1))
	o.notes["served"] = o.served
	o.notes["engine"] = r.hz.Engine
	o.notes["workers"] = r.hz.Workers
	if o.late.N > 0 {
		o.notes["loadgen.late_p99_ms"] = o.late.Value
	}
	if len(o.ladder) > 0 {
		o.notes["ladder"] = o.ladder
	}
	return o, v, nil
}

// serveReal starts the measured server and prepares a run against it.
func serveReal(ctx context.Context, cfg config, prog *program) (*run, *serverProc, error) {
	p, err := startServer(cfg.bin, cfg.w.program, cfg.w.flags...)
	if err != nil {
		return nil, nil, err
	}
	hz, err := health(ctx, p.base)
	if err != nil {
		p.stop()
		return nil, nil, err
	}
	r := &run{
		workload: cfg.w, prog: prog, hz: hz, seed: cfg.seed, seconds: cfg.seconds,
		t: target{base: p.base, pid: p.cmd.Process.Pid},
		o: &outcome{notes: map[string]any{}},
	}
	return r, p, nil
}

// delta subtracts two metric exports' counters.
func delta(a, b obs.Export) obs.Export {
	return obs.Export{
		Requests: b.Requests - a.Requests, Steps: b.Steps - a.Steps,
		Cycles: b.Cycles - a.Cycles, PaddingCycles: b.PaddingCycles - a.PaddingCycles,
		Mitigations: b.Mitigations - a.Mitigations, Mispredictions: b.Mispredictions - a.Mispredictions,
		Sheds:   b.Sheds - a.Sheds,
		BytesIn: b.BytesIn - a.BytesIn, BytesOut: b.BytesOut - a.BytesOut,
		HW: obs.HWExport{
			L1DHits: b.HW.L1DHits - a.HW.L1DHits, L1DMisses: b.HW.L1DMisses - a.HW.L1DMisses,
			L2DHits: b.HW.L2DHits - a.HW.L2DHits, L2DMisses: b.HW.L2DMisses - a.HW.L2DMisses,
			DTLBHits: b.HW.DTLBHits - a.HW.DTLBHits, DTLBMisses: b.HW.DTLBMisses - a.HW.DTLBMisses,
		},
	}
}

// environment records where the run happened.
func environment(seed uint64) map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"host":             host,
		"cpu_model":        cpuModel(),
		"nproc":            nproc(),
		"bench_gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version":       runtime.Version(),
		"commit":           commit(),
		"source_sha256":    sourceHash("."),
		"seed":             seed,
		"time":             time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
		}
	}
	return "unknown"
}

// commit names the code under test: the PERFBENCH_COMMIT environment
// variable (run.sh sets it from git when the checkout is a repository),
// else "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// sourceHash identifies the code under test where no commit does (the
// benchmark may run in a checkout that is not a repository): a SHA-256
// over the path and content of every Go source, go.mod and program file
// under root, outside the build directory.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".tc":
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// serverGOMAXPROCS reports the server's GOMAXPROCS: its environment's
// setting if any, else the size of its CPU affinity mask, which is what
// the Go runtime defaults to.
func serverGOMAXPROCS(pid int) string {
	if b, err := os.ReadFile(fmt.Sprintf("/proc/%d/environ", pid)); err == nil {
		for _, kv := range strings.Split(string(b), "\x00") {
			if v, ok := strings.CutPrefix(kv, "GOMAXPROCS="); ok {
				return v
			}
		}
	}
	list, err := statusField(pid, "Cpus_allowed_list")
	if err != nil {
		return "unknown"
	}
	n := 0
	for _, part := range strings.Split(list, ",") {
		var lo, hi int
		if c, _ := fmt.Sscanf(part, "%d-%d", &lo, &hi); c == 2 {
			n += hi - lo + 1
		} else {
			n++
		}
	}
	return fmt.Sprint(n)
}
