package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps/login"
	"repro/internal/exec"
	"repro/internal/lattice"
	"repro/internal/machine/hw"
	"repro/internal/obs"
	"repro/internal/sem/mem"
	"repro/internal/server"
)

func init() {
	MustRegister(Experiment{
		Name: "service", Order: 70,
		Summary: "serial server vs sharded pool: determinism and speedup",
		Run: func(o RunOptions) (*Report, error) {
			cfg := ServiceConfig{}
			if o.Quick {
				cfg = cfg.Quick()
			}
			cfg.Engine = o.Engine
			d, err := Service(cfg)
			if err != nil {
				return nil, err
			}
			return &Report{Text: d.Render(), Data: d}, nil
		},
	})
}

// ServiceData holds the service-layer experiment: the same login
// workload through a serial server and a sharded pool, with per-shard
// determinism verified and the pool's instrumentation snapshot.
type ServiceData struct {
	Requests int
	Workers  int
	// Engine names the execution engine the servers ran ("tree"/"vm").
	Engine string
	// SerialWall and PoolWall are host wall-clock times; their ratio is
	// the observed speedup (≈1 on a single-CPU host, approaching
	// Workers on machines with that many cores — the simulated cycle
	// counts are identical either way).
	SerialWall, PoolWall time.Duration
	// Deterministic is true when every shard's responses matched the
	// serial reference run over that shard's subsequence exactly.
	Deterministic bool
	// SettledByShard is each shard's convergence point (see
	// server.SettledAfter).
	SettledByShard []int
	// Snapshot is the pool's pooled instrumentation. It is excluded
	// from JSON in favor of the stable Export schema below.
	Snapshot obs.Snapshot `json:"-"`
	// Export is the versioned, JSON-stable form of Snapshot — the only
	// shape external consumers of the harness JSON should parse.
	Export obs.Export
}

// ServiceConfig sizes the experiment.
type ServiceConfig struct {
	App      login.Config
	Requests int
	Workers  int
	// HW names the machine environment in the hw registry; default
	// "partitioned".
	HW string
	// Engine names the execution engine in the exec registry; default
	// exec.DefaultEngine ("vm", the compiled-bytecode hot path).
	Engine string
}

// Defaults fills zero fields with the paper-scale values.
func (c ServiceConfig) Defaults() ServiceConfig {
	if c.App.TableSize == 0 {
		c.App = login.DefaultConfig()
	}
	if c.Requests == 0 {
		c.Requests = 64
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.HW == "" {
		c.HW = "partitioned"
	}
	if c.Engine == "" {
		c.Engine = exec.DefaultEngine
	}
	return c
}

// Quick returns the reduced-scale service configuration.
func (c ServiceConfig) Quick() ServiceConfig {
	c.App = login.Config{TableSize: 16, WorkFactor: 48, WorkTableSize: 256}
	c.Requests = 32
	c.Workers = 4
	return c
}

// Service runs the login workload through the serial server and a
// sharded pool, checking shard-by-shard determinism against serial
// references and collecting the instrumentation snapshot.
func Service(cfg ServiceConfig) (*ServiceData, error) {
	cfg = cfg.Defaults()
	lat := lattice.TwoPoint()
	app, err := login.Build(cfg.App, lat)
	if err != nil {
		return nil, err
	}
	creds := login.MakeCredentials(cfg.App.TableSize)
	reqs := make([]server.Request, cfg.Requests)
	for i := 0; i < cfg.Requests; i++ {
		att := login.Attempt{User: creds[i%len(creds)].User, Pass: creds[i%len(creds)].Pass}
		if i%3 == 0 {
			att.Pass = "wrong"
		}
		reqs[i] = func(m *mem.Memory) { app.Setup(m, creds, att, 1, 1) }
	}
	newEnv := func() (hw.Env, error) { return hw.NewEnv(cfg.HW, lat, hw.Table1Config()) }
	ctx := context.Background()

	// Serial reference over the whole sequence (for wall-clock).
	env, err := newEnv()
	if err != nil {
		return nil, err
	}
	serial, err := server.New(app.Prog, app.Res, server.Options{Env: env, Engine: cfg.Engine})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := serial.HandleAll(ctx, reqs); err != nil {
		return nil, err
	}
	serialWall := time.Since(start)

	// The pool over the same sequence.
	env, err = newEnv()
	if err != nil {
		return nil, err
	}
	pool, err := server.NewPool(app.Prog, app.Res, server.PoolOptions{
		Workers: cfg.Workers,
		Options: server.Options{Env: env, Engine: cfg.Engine},
	})
	if err != nil {
		return nil, err
	}
	start = time.Now()
	resps, err := pool.HandleAll(ctx, reqs)
	if err != nil {
		return nil, err
	}
	poolWall := time.Since(start)
	pool.Close()

	data := &ServiceData{
		Requests:   cfg.Requests,
		Workers:    cfg.Workers,
		Engine:     cfg.Engine,
		SerialWall: serialWall,
		PoolWall:   poolWall,
		Snapshot:   pool.Snapshot(),
	}
	data.Export = data.Snapshot.Export()

	// Shard-by-shard determinism: each shard's responses must match a
	// serial reference run over that shard's round-robin subsequence,
	// on the tree engine (the oracle) whatever engine the pool served.
	byShard := make([][]*server.Response, cfg.Workers)
	for _, r := range resps {
		byShard[r.Shard] = append(byShard[r.Shard], r)
	}
	data.Deterministic = true
	for shard := 0; shard < cfg.Workers; shard++ {
		env, err := newEnv()
		if err != nil {
			return nil, err
		}
		ref, err := server.New(app.Prog, app.Res, server.Options{Env: env, Engine: "tree"})
		if err != nil {
			return nil, err
		}
		for k, i := 0, shard; i < len(reqs); k, i = k+1, i+cfg.Workers {
			want, err := ref.Handle(ctx, reqs[i])
			if err != nil {
				return nil, err
			}
			got := byShard[shard][k]
			if got.Time != want.Time || got.Mispredictions != want.Mispredictions {
				data.Deterministic = false
			}
		}
		data.SettledByShard = append(data.SettledByShard, server.SettledAfter(byShard[shard]))
	}
	return data, nil
}

// Speedup is the serial/pool wall-clock ratio.
func (d *ServiceData) Speedup() float64 {
	if d.PoolWall == 0 {
		return 0
	}
	return float64(d.SerialWall) / float64(d.PoolWall)
}

// Render formats the experiment.
func (d *ServiceData) Render() string {
	var b strings.Builder
	b.WriteString("Service layer: sharded mitigation pool\n")
	fmt.Fprintf(&b, "requests:            %d across %d shards (%s engine)\n",
		d.Requests, d.Workers, d.Engine)
	fmt.Fprintf(&b, "serial wall-clock:   %v\n", d.SerialWall)
	fmt.Fprintf(&b, "pool wall-clock:     %v (speedup %.2fx; bounded by host cores)\n",
		d.PoolWall, d.Speedup())
	fmt.Fprintf(&b, "shard determinism:   %v (each shard == serial reference)\n", d.Deterministic)
	fmt.Fprintf(&b, "settled by shard:    %v\n", d.SettledByShard)
	b.WriteString("\ninstrumentation snapshot:\n")
	b.WriteString(d.Snapshot.String())
	return b.String()
}

// CSVHeader implements CSV for the service experiment.
func (d *ServiceData) CSVHeader() []string {
	return []string{"requests", "workers", "engine", "serial_wall_ns", "pool_wall_ns", "speedup",
		"deterministic", "mitigations", "mispredictions", "padding_cycles", "useful_cycles"}
}

// CSVRows implements CSV for the service experiment.
func (d *ServiceData) CSVRows() [][]string {
	return [][]string{{
		strconv.Itoa(d.Requests),
		strconv.Itoa(d.Workers),
		d.Engine,
		strconv.FormatInt(d.SerialWall.Nanoseconds(), 10),
		strconv.FormatInt(d.PoolWall.Nanoseconds(), 10),
		strconv.FormatFloat(d.Speedup(), 'f', 4, 64),
		strconv.FormatBool(d.Deterministic),
		u(d.Snapshot.Mitigations),
		u(d.Snapshot.Mispredictions),
		u(d.Snapshot.PaddingCycles),
		u(d.Snapshot.UsefulCycles()),
	}}
}
